package graph_test

import (
	"fmt"
	"strings"
	"testing"

	"subgemini/internal/gen"
	"subgemini/internal/graph"
)

// fingerprint renders every structural fact of a circuit: vertex indices,
// names, types, flags, pin classes and nets, and each net's connection
// list in order.  Two circuits with equal fingerprints are
// indistinguishable to every reader of the graph.
func fingerprint(c *graph.Circuit) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %d %d\n", c.Name, c.NumDevices(), c.NumNets())
	for i, d := range c.Devices {
		fmt.Fprintf(&b, "d%d %d %s %s", i, d.Index, d.Name, d.Type)
		for _, p := range d.Pins {
			fmt.Fprintf(&b, " %d:%d:%s", p.Class, p.Net.Index, p.Net.Name)
		}
		b.WriteByte('\n')
	}
	for i, n := range c.Nets {
		fmt.Fprintf(&b, "n%d %d %s %t %t", i, n.Index, n.Name, n.Port, n.Global)
		for _, cn := range n.Conns {
			fmt.Fprintf(&b, " %d.%d", cn.Dev.Index, cn.Pin)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// cloneByAdd is the per-vertex copy Clone replaced: it rebuilds the
// circuit one AddNet and MustAddDevice at a time.  It is the oracle the
// arena copy must be indistinguishable from.
func cloneByAdd(c *graph.Circuit) *graph.Circuit {
	cp := graph.New(c.Name)
	for _, n := range c.Nets {
		nn := cp.AddNet(n.Name)
		nn.Port = n.Port
		nn.Global = n.Global
	}
	for _, d := range c.Devices {
		classes := make([]graph.TermClass, len(d.Pins))
		nets := make([]*graph.Net, len(d.Pins))
		for i, p := range d.Pins {
			classes[i] = p.Class
			nets[i] = cp.Nets[p.Net.Index]
		}
		cp.MustAddDevice(d.Name, d.Type, classes, nets)
	}
	return cp
}

// editedCircuit is a random-logic circuit with a port, marked globals and
// a few rewires, so some nets list their connections out of device order.
func editedCircuit(t testing.TB) *graph.Circuit {
	t.Helper()
	c := gen.RandomLogic(120, 8, 3).C
	c.MarkGlobal("VDD")
	c.MarkGlobal("GND")
	if err := c.MarkPort("in0"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		d := c.Devices[7*i+1]
		if err := c.RewirePin(d.Name, 0, c.Nets[3+i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCloneMatchesRebuild(t *testing.T) {
	c := editedCircuit(t)
	got, want := c.Clone(), cloneByAdd(c)
	if err := got.Validate(); err != nil {
		t.Fatalf("clone invalid: %v", err)
	}
	if fg, fw := fingerprint(got), fingerprint(want); fg != fw {
		t.Errorf("arena clone differs from the per-vertex copy:\n%s\nwant:\n%s", fg, fw)
	}
	if got.GlobalMarks() != want.GlobalMarks() {
		t.Errorf("GlobalMarks = %d, want %d", got.GlobalMarks(), want.GlobalMarks())
	}
}

// fullSegment returns the first net of c whose connection list has no
// spare capacity, so one more connection must reallocate it.
func fullSegment(t *testing.T, c *graph.Circuit) *graph.Net {
	t.Helper()
	for _, n := range c.Nets {
		if len(n.Conns) > 0 && len(n.Conns) == cap(n.Conns) {
			return n
		}
	}
	t.Fatal("no net with a full connection segment")
	return nil
}

// mutate applies every mutator to c.  pick chooses the net that each
// RewirePin or AddDevice appends a connection to; check runs after every
// step.
func mutate(t *testing.T, c *graph.Circuit, pick func() *graph.Net, check func(step string)) {
	t.Helper()
	must := func(step string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		check(step)
	}
	d := c.Devices[len(c.Devices)/2]
	must("RewirePin onto a full segment", c.RewirePin(d.Name, 0, pick()))
	_, err := c.AddDevice("XNEW", "nmos", []graph.TermClass{graph.ClassDS, graph.ClassGate, graph.ClassDS},
		[]*graph.Net{pick(), c.Nets[len(c.Nets)-1], c.AddNet("xnew_out")})
	must("AddDevice onto a full segment", err)
	must("RemoveDevice", c.RemoveDevice(c.Devices[2].Name))
	c.AddNet("iso")
	must("RemoveNet", c.RemoveNet("iso"))
	must("RenameNet", c.RenameNet(c.Nets[5].Name, "renamed"))
	c.RemoveDevices(map[*graph.Device]bool{c.Devices[0]: true, c.Devices[9]: true, c.Devices[len(c.Devices)-3]: true})
	check("RemoveDevices rebuild")
	d = c.Devices[len(c.Devices)/3]
	must("RewirePin after the rebuild", c.RewirePin(d.Name, 1, pick()))
}

// TestCloneIndependent mutates a clone with every mutator and checks that
// the original never changes, then the reverse.  Each appended connection
// lands on a net whose slab segment is full.  The edited clone is then
// compared with the per-vertex copy under the same edits, which catches an
// append that spilled into a neighbouring segment.
func TestCloneIndependent(t *testing.T) {
	orig := editedCircuit(t)
	before := fingerprint(orig)

	cp, ref := orig.Clone(), cloneByAdd(orig)
	var picked []string
	mutate(t, cp, func() *graph.Net {
		n := fullSegment(t, cp)
		picked = append(picked, n.Name)
		return n
	}, func(step string) {
		if err := cp.Validate(); err != nil {
			t.Fatalf("%s: clone invalid: %v", step, err)
		}
		if err := orig.Validate(); err != nil {
			t.Fatalf("%s: original invalid: %v", step, err)
		}
		if fingerprint(orig) != before {
			t.Fatalf("%s on the clone changed the original", step)
		}
	})
	replay := picked
	mutate(t, ref, func() *graph.Net {
		n := ref.NetByName(replay[0])
		replay = replay[1:]
		return n
	}, func(string) {})
	if fingerprint(cp) != fingerprint(ref) {
		t.Error("edited clone differs from the edited per-vertex copy")
	}

	cp = orig.Clone()
	snap := fingerprint(cp)
	mutate(t, orig, func() *graph.Net { return orig.Nets[4] }, func(step string) {
		if err := cp.Validate(); err != nil {
			t.Fatalf("%s on the original: clone invalid: %v", step, err)
		}
		if fingerprint(cp) != snap {
			t.Fatalf("%s on the original changed the clone", step)
		}
	})
}

func rand4000() *graph.Circuit { return gen.RandomLogic(4000, 32, 1).C }

// TestCloneAllocs gates the arena copy: cloning rand4000 (27,244 devices,
// 13,656 nets) costs a bounded number of allocations, mostly the two
// pre-sized name maps, not one or more per vertex (the per-vertex copy
// made 162,784).
func TestCloneAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun counts race-detector instrumentation allocations")
	}
	c := rand4000()
	var sink *graph.Circuit
	allocs := testing.AllocsPerRun(5, func() { sink = c.Clone() })
	if sink.NumDevices() != c.NumDevices() {
		t.Fatal("clone lost devices")
	}
	if allocs > 256 {
		t.Errorf("Clone of %s: %v allocations, ceiling 256", c.Name, allocs)
	}
}

var cloneSink *graph.Circuit

func BenchmarkCircuitClone(b *testing.B) {
	c := rand4000()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cloneSink = c.Clone()
	}
}
