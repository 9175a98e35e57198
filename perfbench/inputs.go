package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"subgemini/internal/baseline"
	"subgemini/internal/gen"
	"subgemini/internal/graph"
	"subgemini/internal/netlist"
	"subgemini/internal/server"
	"subgemini/internal/stdcell"
)

// globals are the daemon-wide rails every workload configures
// (server.Config.Globals); requests never send their own.
var globals = []string{"VDD", "GND"}

// ecoLibrary is the 8-cell library the eco workload sweeps after each edit.
var ecoLibrary = []string{"NAND2", "NAND3", "NOR2", "INV", "AOI21", "OAI21", "MUX2", "XOR2"}

// workloadDef names a workload's circuits and client count.  The notes on
// why each workload exists are in README.md.
type workloadDef struct {
	name     string
	circuits []string
	clients  int
	// durable gives the daemon a fresh data dir, so the edit log,
	// manifest writes and snapshot compaction run.
	durable bool
	// procs, when set, is the run's GOMAXPROCS.  eco has one client and
	// runs on one processor, so the other core of a two-core host is
	// headroom: a neighbour that takes a core slows it little, where on
	// two processors its p90 latency moved by a third between runs.
	procs int
}

var workloads = map[string]*workloadDef{
	"lookup":  {name: "lookup", circuits: []string{"rand4000", "mult16", "sram32"}, clients: 2},
	"extract": {name: "extract", circuits: []string{"rand4000", "mult16"}, clients: 2},
	"eco":     {name: "eco", circuits: []string{"rand4000"}, clients: 1, durable: true, procs: 1},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// generate builds one of the benchmark circuits.  Only rand4000 depends on
// the seed; the multiplier and the SRAM array are fixed structures.
func generate(name string, seed int64) *graph.Circuit {
	switch name {
	case "rand4000":
		return gen.RandomLogic(4000, 32, seed).C
	case "mult16":
		return gen.ArrayMultiplier(16).C
	case "sram32":
		return gen.SRAMArray(32, 32).C
	}
	panic("perfbench: no generator for " + name)
}

// oracleSet is the independent matcher's answer for one (circuit, cell):
// every instance, identified by its sorted image device names.
type oracleSet struct {
	count int
	sigs  map[string]bool
}

// circuitIn is one circuit as the benchmark holds it: the netlist text it
// uploads and its own copy parsed from that text, whose device and net
// names are exactly the ones the daemon reports.
type circuitIn struct {
	name    string
	netlist []byte
	ckt     *graph.Circuit
	oracle  map[string]*oracleSet // by cell name
}

// key is one (circuit, pattern) request target of lookup or extract.
type key struct {
	circuit, pattern string
	body             []byte
	oracle           *oracleSet
}

// inputs is everything a run derives from its seed before the daemon boots.
type inputs struct {
	circuits map[string]*circuitIn
	keys     []key // lookup: Zipf rank order; extract: uniform
}

// buildInputs generates the workload's circuits, uploads' netlist text,
// request keys and baseline oracle answers.
func buildInputs(w *workloadDef, seed int64) (*inputs, error) {
	in := &inputs{circuits: map[string]*circuitIn{}}
	cells := stdcell.Names()
	if w.name == "eco" {
		cells = ecoLibrary
	}
	for _, name := range w.circuits {
		c, err := loadCircuit(name, seed, cells)
		if err != nil {
			return nil, err
		}
		in.circuits[name] = c
	}
	switch w.name {
	case "lookup":
		// The Zipf rank order follows the oracle instance count, most
		// instances first (ties by cell name, then circuit): the cells a
		// design uses most, whose answers are the largest, are the ones
		// asked for most.  It is not drawn from the seed, which would make
		// the hot keys, and so the per-op cost, differ between seeds.
		for _, cell := range cells {
			for _, cn := range w.circuits {
				in.keys = append(in.keys, newKey(in.circuits[cn], cell, false))
			}
		}
		sort.SliceStable(in.keys, func(i, j int) bool { return in.keys[i].oracle.count > in.keys[j].oracle.count })
	case "extract":
		for _, cn := range w.circuits {
			for _, cell := range cells {
				if in.circuits[cn].oracle[cell].count > 0 {
					in.keys = append(in.keys, newKey(in.circuits[cn], cell, true))
				}
			}
		}
	}
	return in, nil
}

func newKey(c *circuitIn, cell string, nonoverlap bool) key {
	body, err := json.Marshal(server.MatchRequest{Circuit: c.name, Pattern: cell, NonOverlap: nonoverlap})
	if err != nil {
		panic(err)
	}
	return key{circuit: c.name, pattern: cell, body: body, oracle: c.oracle[cell]}
}

// loadCircuit generates a circuit, renders its upload text, parses that
// text back into the benchmark's own copy, and runs the baseline matcher
// for every cell.
func loadCircuit(name string, seed int64, cells []string) (*circuitIn, error) {
	var buf bytes.Buffer
	if err := netlist.WriteCircuit(&buf, generate(name, seed)); err != nil {
		return nil, fmt.Errorf("writing %s: %w", name, err)
	}
	ckt, err := parseCircuit(buf.String(), name)
	if err != nil {
		return nil, err
	}
	c := &circuitIn{name: name, netlist: buf.Bytes(), ckt: ckt, oracle: map[string]*oracleSet{}}
	for _, cell := range cells {
		o, err := oracleFind(ckt, cell)
		if err != nil {
			return nil, fmt.Errorf("oracle %s/%s: %w", name, cell, err)
		}
		c.oracle[cell] = o
	}
	return c, nil
}

// parseCircuit flattens netlist text the way the daemon's PUT handler does.
func parseCircuit(src, name string) (*graph.Circuit, error) {
	f, err := netlist.ParseString(src, name)
	if err != nil {
		return nil, fmt.Errorf("parsing %s: %w", name, err)
	}
	return f.MainCircuit(name)
}

// oracleFind runs the independent depth-first matcher.
func oracleFind(c *graph.Circuit, cell string) (*oracleSet, error) {
	res, err := baseline.Find(c, stdcell.Get(cell).Pattern(), baseline.Options{Globals: globals})
	if err != nil {
		return nil, err
	}
	o := &oracleSet{count: len(res.Instances), sigs: make(map[string]bool, len(res.Instances))}
	for _, inst := range res.Instances {
		names := make([]string, 0, len(inst.DevMap))
		for _, d := range inst.DevMap {
			names = append(names, d.Name)
		}
		o.sigs[signature(names)] = true
	}
	return o, nil
}

// signature identifies an instance by its sorted image device names.
func signature(names []string) string {
	sort.Strings(names)
	return strings.Join(names, " ")
}
