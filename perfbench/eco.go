package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"time"

	"subgemini/internal/delta"
	"subgemini/internal/graph"
	"subgemini/internal/server"
)

// ecoCircuit is the circuit the eco workload edits.
const ecoCircuit = "rand4000"

// ecoEdits draws the eco workload's edit batches.  Cycle 2j applies a fresh
// batch B_j and cycle 2j+1 applies its exact inverse, so the circuit returns
// to its uploaded structure every second cycle and the per-cycle work stays
// the same for any run length.  Every op of a batch touches a different
// gate (device name prefix), and every net a removed transistor touches
// keeps another connection inside its gate, so a batch never leaves a net
// floating and its inverse always applies.
type ecoEdits struct {
	rng     *rand.Rand
	sizes   *deck           // batch sizes 1..8
	kinds   *deck           // op kinds: mostly rewires
	ckt     *graph.Circuit  // the uploaded circuit, unedited while batches are drawn
	devs    []*graph.Device // transistors of the uploaded circuit
	outputs []string        // gate output nets: rewire and add targets
	batches [][]delta.Op    // every batch applied so far, by cycle
}

func newEcoEdits(c *graph.Circuit, seed int64) *ecoEdits {
	rng := rand.New(rand.NewSource(seed ^ 0x5ec0))
	e := &ecoEdits{rng: rng, ckt: c, sizes: newDeck(rng, ranks(8)), kinds: newDeck(rng, ecoKinds)}
	for _, d := range c.Devices {
		if gatePin(d) >= 0 {
			e.devs = append(e.devs, d)
		}
	}
	for _, n := range c.Nets {
		if strings.HasPrefix(n.Name, "w") && !n.Global {
			e.outputs = append(e.outputs, n.Name)
		}
	}
	return e
}

// Op kinds of an eco batch.
const (
	kindRewire = iota
	kindAdd
	kindRemove
)

// ecoKinds is the deck the kinds are dealt from: 14 rewires, 3 adds and 3
// removes in every 20 ops.
var ecoKinds = func() []int {
	k := make([]int, 0, 20)
	for i := 0; i < 14; i++ {
		k = append(k, kindRewire)
	}
	return append(k, kindAdd, kindAdd, kindAdd, kindRemove, kindRemove, kindRemove)
}()

// gatePin is the index of a transistor's gate pin, or -1.
func gatePin(d *graph.Device) int {
	if d.Type != "nmos" && d.Type != "pmos" {
		return -1
	}
	for i, p := range d.Pins {
		if p.Class == graph.ClassGate {
			return i
		}
	}
	return -1
}

// next returns the batch for the given cycle (cycles are drawn in order).
func (e *ecoEdits) next(cycle int) []delta.Op {
	if cycle%2 == 1 {
		e.batches = append(e.batches, e.invert(e.batches[cycle-1]))
		return e.batches[cycle]
	}
	n := 1 + e.sizes.draw()
	used := map[string]bool{}
	var ops []delta.Op
	for len(ops) < n {
		d := e.devs[e.rng.Intn(len(e.devs))]
		gate, _, _ := strings.Cut(d.Name, ".")
		if used[gate] {
			continue
		}
		used[gate] = true
		switch e.kinds.draw() {
		case kindRewire:
			pin := gatePin(d)
			target := d.Pins[pin].Net.Name
			for target == d.Pins[pin].Net.Name {
				target = e.outputs[e.rng.Intn(len(e.outputs))]
			}
			ops = append(ops, delta.Op{Op: delta.OpRewirePin, Device: d.Name, Pin: pin, Net: target})
		case kindAdd:
			nets := make([]string, 0, len(d.Pins))
			for len(nets) < len(d.Pins) {
				n := e.outputs[e.rng.Intn(len(e.outputs))]
				if !slices.Contains(nets, n) {
					nets = append(nets, n)
				}
			}
			ops = append(ops, delta.Op{Op: delta.OpAddDevice,
				Name: fmt.Sprintf("eco%d_%d", cycle, len(ops)), Type: d.Type, Classes: classes(d), Nets: nets})
		case kindRemove:
			ops = append(ops, delta.Op{Op: delta.OpRemoveDevice, Name: d.Name})
		}
	}
	e.batches = append(e.batches, ops)
	return ops
}

func classes(d *graph.Device) []int {
	cs := make([]int, len(d.Pins))
	for i, p := range d.Pins {
		cs[i] = int(p.Class)
	}
	return cs
}

// invert returns the batch that undoes ops on the uploaded circuit: each
// op's inverse, in reverse order.
func (e *ecoEdits) invert(ops []delta.Op) []delta.Op {
	inv := make([]delta.Op, len(ops))
	for i, op := range ops {
		inv[len(ops)-1-i] = e.inverse(op)
	}
	return inv
}

// inverse undoes one op: a rewire points back at the original net, an
// added device is removed, a removed device comes back with its original
// type and nets.
func (e *ecoEdits) inverse(op delta.Op) delta.Op {
	switch op.Op {
	case delta.OpRewirePin:
		d := e.ckt.DeviceByName(op.Device)
		return delta.Op{Op: delta.OpRewirePin, Device: op.Device, Pin: op.Pin, Net: d.Pins[op.Pin].Net.Name}
	case delta.OpAddDevice:
		return delta.Op{Op: delta.OpRemoveDevice, Name: op.Name}
	default:
		d := e.ckt.DeviceByName(op.Name)
		nets := make([]string, len(d.Pins))
		for i, p := range d.Pins {
			nets[i] = p.Net.Name
		}
		return delta.Op{Op: delta.OpAddDevice, Name: d.Name, Type: d.Type, Classes: classes(d), Nets: nets}
	}
}

// ecoRecord is what one cycle's sweep answered, checked after the window.
type ecoRecord struct {
	cycle  int
	counts map[string]int
}

// eco drives the edit cycles of one daemon.
type eco struct {
	edits   *ecoEdits
	cycle   int
	version uint64
	sweep   []byte
	records []ecoRecord
}

func newEco(c *graph.Circuit, seed int64) *eco {
	body, err := json.Marshal(server.SweepRequest{Circuit: ecoCircuit, Library: "eco"})
	if err != nil {
		panic(err)
	}
	return &eco{edits: newEcoEdits(c, seed), version: 1, sweep: body}
}

// sweepAnswer is the part of server.SweepResponse the check reads.
type sweepAnswer struct {
	Version uint64 `json:"version"`
	Results []struct {
		Pattern string `json:"pattern"`
		Count   int    `json:"count"`
	} `json:"results"`
}

// doSweep sends the library sweep and returns its per-cell counts.
func (e *eco) doSweep(cl *client) (time.Duration, map[string]int, error) {
	d, err := cl.do("POST", "/v1/sweep", e.sweep)
	if err != nil {
		return d, nil, err
	}
	if err := cl.expect(200); err != nil {
		return d, nil, fmt.Errorf("sweep: %w", err)
	}
	var a sweepAnswer
	if err := json.Unmarshal(cl.w.body.Bytes(), &a); err != nil {
		return d, nil, fmt.Errorf("decoding sweep answer: %w", err)
	}
	if a.Version != e.version {
		return d, nil, fmt.Errorf("sweep ran on version %d, want %d", a.Version, e.version)
	}
	counts := map[string]int{}
	for _, r := range a.Results {
		counts[r.Pattern] = r.Count
	}
	if len(counts) != len(ecoLibrary) {
		return d, nil, fmt.Errorf("sweep answered %d cells, want %d", len(counts), len(ecoLibrary))
	}
	return d, counts, nil
}

// op runs one cycle: PATCH the next batch, then sweep the library.  The
// sweep counts are recorded for the check after the window.
func (e *eco) op(cl *client) (time.Duration, error) {
	ops := e.edits.next(e.cycle)
	cycle := e.cycle
	e.cycle++
	body, err := json.Marshal(server.PatchRequest{Ops: ops})
	if err != nil {
		return 0, err
	}
	d1, err := cl.do("PATCH", "/v1/circuits/"+ecoCircuit, body)
	if err != nil {
		return d1, err
	}
	if err := cl.expect(200); err != nil {
		return d1, fmt.Errorf("patch: %w", err)
	}
	var pr server.PatchResponse
	if err := json.Unmarshal(cl.w.body.Bytes(), &pr); err != nil {
		return d1, fmt.Errorf("decoding patch answer: %w", err)
	}
	e.version++
	if pr.Applied != len(ops) || pr.Circuit.Version != e.version {
		return d1, fmt.Errorf("patch applied %d ops at version %d, want %d at %d", pr.Applied, pr.Circuit.Version, len(ops), e.version)
	}
	d2, counts, err := e.doSweep(cl)
	if err == nil {
		e.records = append(e.records, ecoRecord{cycle: cycle, counts: counts})
	}
	return d1 + d2, err
}

// verify replays every applied batch on a clone of the benchmark's own copy
// of the circuit with delta.Apply and compares each recorded sweep with the
// baseline matcher: after a fresh batch the baseline runs on the edited
// copy; after its inverse the copy is the uploaded structure again, whose
// oracle counts are known.  It returns how many records failed and the
// first failure.
func (e *eco) verify(c *circuitIn) (int, error) {
	var first error
	failed := 0
	fail := func(err error) {
		failed++
		if first == nil {
			first = err
		}
	}
	mirror := c.ckt.Clone()
	rec := 0
	for cycle, ops := range e.edits.batches {
		if _, err := delta.Apply(mirror, uint64(cycle+2), ops); err != nil {
			return failed + len(e.records) - rec, fmt.Errorf("mirror cycle %d: %w", cycle, err)
		}
		if rec >= len(e.records) || e.records[rec].cycle != cycle {
			continue // the cycle failed before its sweep answered
		}
		r := e.records[rec]
		rec++
		for _, cell := range ecoLibrary {
			want := c.oracle[cell].count
			if cycle%2 == 0 {
				o, err := oracleFind(mirror, cell)
				if err != nil {
					return failed + 1, err
				}
				want = o.count
			}
			if r.counts[cell] != want {
				fail(fmt.Errorf("cycle %d: sweep counts %d %s, baseline on the edited copy %d", cycle, r.counts[cell], cell, want))
				break
			}
		}
	}
	return failed, first
}
