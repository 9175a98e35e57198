package csr

import (
	"fmt"
	"testing"

	"subgemini/internal/graph"
	"subgemini/internal/label"
)

var mosCls = []graph.TermClass{graph.ClassDS, graph.ClassGate, graph.ClassDS}

// chain builds a deterministic pseudo-random transistor mesh exercising
// varied degrees and terminal classes.  (The gen package cannot be used
// here: it depends on internal/core, which imports this package.)
func chain(n int) *graph.Circuit {
	c := graph.New("chain")
	nets := make([]*graph.Net, n+3)
	for i := range nets {
		nets[i] = c.AddNet(fmt.Sprintf("n%d", i))
	}
	rnd := uint64(12345)
	next := func(m int) int {
		rnd = rnd*6364136223846793005 + 1442695040888963407
		return int(rnd>>33) % m
	}
	for i := 0; i < n; i++ {
		typ := "nmos"
		if i%3 == 0 {
			typ = "pmos"
		}
		c.MustAddDevice(fmt.Sprintf("m%d", i), typ, mosCls,
			[]*graph.Net{nets[i], nets[next(len(nets))], nets[i+3]})
	}
	return c
}

// TestRelabelMatchesPointerWalk checks the CSR relabeling kernel against
// the definitional pointer-walking fold through label.Combine.
func TestRelabelMatchesPointerWalk(t *testing.T) {
	c := chain(120)
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	g := New(c)
	sp := label.NewSpace(c)
	if !g.Fits(c) {
		t.Fatalf("Fits = false for the graph's own circuit")
	}
	if g.Size() != sp.Size() {
		t.Fatalf("Size = %d, want %d", g.Size(), sp.Size())
	}
	if g.NumEdges() != 2*c.NumPins() {
		t.Fatalf("NumEdges = %d, want %d", g.NumEdges(), 2*c.NumPins())
	}

	// Arbitrary deterministic labels per vertex.
	lab := make([]label.Value, sp.Size())
	for v := range lab {
		lab[v] = label.DegreeLabel(v + 7)
	}

	for _, dev := range c.Devices {
		v := sp.DevVID(dev)
		want := lab[v]
		for _, pin := range dev.Pins {
			want = label.Combine(want, pin.Class, lab[sp.NetVID(pin.Net)])
		}
		if got := g.Relabel(int32(v), lab); got != want {
			t.Fatalf("device %s: Relabel = %#x, want %#x", dev.Name, got, want)
		}
	}
	for _, n := range c.Nets {
		v := sp.NetVID(n)
		want := lab[v]
		for _, conn := range n.Conns {
			want = label.Combine(want, conn.Dev.Pins[conn.Pin].Class, lab[sp.DevVID(conn.Dev)])
		}
		if got := g.Relabel(int32(v), lab); got != want {
			t.Fatalf("net %s: Relabel = %#x, want %#x", n.Name, got, want)
		}
	}
}

func TestFitsRejectsDifferentCircuit(t *testing.T) {
	a := graph.New("a")
	n := a.AddNet("x")
	a.MustAddDevice("r1", "res", []graph.TermClass{0, 0}, []*graph.Net{n, a.AddNet("y")})
	b := graph.New("b")
	b.AddNet("x")
	g := New(a)
	if g.Fits(b) {
		t.Fatalf("Fits accepted a circuit with different vertex counts")
	}
}

// TestFitsRejectsLaterGlobalMark: a view records the circuit's global
// marks, so a mark made after the build makes it stale; re-marking a net
// that is already global, or naming no net, changes nothing.
func TestFitsRejectsLaterGlobalMark(t *testing.T) {
	c := chain(10)
	c.MarkGlobal("n1")
	g := New(c)
	c.MarkGlobal("n1")
	c.MarkGlobal("nosuchnet")
	if !g.Fits(c) {
		t.Fatal("Fits rejected a circuit whose global marks did not change")
	}
	c.MarkGlobal("n2")
	if g.Fits(c) {
		t.Fatal("Fits accepted a view built before a later MarkGlobal")
	}
	if !New(c).Fits(c) {
		t.Fatal("Fits rejected a fresh view")
	}
}

func TestEmptyCircuit(t *testing.T) {
	g := New(graph.New("empty"))
	if g.Size() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty circuit: Size=%d NumEdges=%d", g.Size(), g.NumEdges())
	}
}

// TestCompiledFacts checks the query-independent per-vertex facts a view
// carries: type ids and labels, pin counts and net degrees as Start
// differences, and the base global nets.
func TestCompiledFacts(t *testing.T) {
	c := chain(30)
	c.MarkGlobal("n4")
	c.MarkGlobal("n0")
	g := New(c)
	for _, d := range c.Devices {
		id := g.DevType[d.Index]
		if g.Types[id] != d.Type || g.TypeLab[id] != label.TypeLabel(d.Type) || g.TypeID(d.Type) != id {
			t.Fatalf("device %s: type id %d (%q), want %q", d.Name, id, g.Types[id], d.Type)
		}
		if int(g.Degree(int32(d.Index))) != len(d.Pins) {
			t.Fatalf("device %s: Degree %d, want %d pins", d.Name, g.Degree(int32(d.Index)), len(d.Pins))
		}
	}
	for _, n := range c.Nets {
		if int(g.Degree(int32(g.NumDevs+n.Index))) != n.Degree() {
			t.Fatalf("net %s: Degree %d, want %d", n.Name, g.Degree(int32(g.NumDevs+n.Index)), n.Degree())
		}
	}
	if len(g.Types) != 2 || g.TypeID("res") != -1 {
		t.Errorf("type table %v, want nmos and pmos only", g.Types)
	}
	if want := []int32{0, 4}; len(g.Globals) != 2 || g.Globals[0] != want[0] || g.Globals[1] != want[1] {
		t.Errorf("Globals = %v, want %v", g.Globals, want)
	}
}
