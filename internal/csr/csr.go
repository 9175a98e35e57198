// Package csr provides a flat compressed-sparse-row view of a circuit for
// the data-oriented Phase I engine: integer vertex ids, one contiguous
// adjacency array, and the per-edge class multipliers precomputed, so the
// relabeling hot loop touches three flat arrays instead of chasing
// Device/Net/Pin/Conn pointers and rehashing terminal classes.
//
// Vertices use the same dense VID space as label.Space: devices occupy
// [0, NumDevs) and nets occupy [NumDevs, NumDevs+NumNets), each in circuit
// index order, so a label slice indexed by VID works unchanged against both
// representations.
//
// Besides connectivity and terminal classes the view carries the other
// query-independent facts the matcher needs about the circuit: an interned
// type id per device (with the type table and its Phase I labels) and the
// nets marked global when the view was built (a later graph.Circuit.MarkGlobal
// makes the view stale, which Fits reports).  Pin counts and net degrees
// are Start differences.  The view is immutable once built, so one view
// may be shared by any number of concurrent readers; a long-lived caller
// builds it once per circuit version and a matcher never rederives any of
// it per request.
package csr

import (
	"slices"

	"subgemini/internal/graph"
	"subgemini/internal/label"
)

// Graph is the CSR view of one circuit.  Edges are stored in both
// directions: a device row lists its pin nets in pin order, and a net row
// lists its connected devices in connection order.  Mul[e] is the
// label.ClassMul of the terminal class the edge passes through; the class
// belongs to the pin, so the multiplier is the same in both directions.
type Graph struct {
	NumDevs int
	NumNets int

	// Start[v]..Start[v+1] index the edge arrays for vertex v.
	Start []int32
	// Adj[e] is the neighbor VID of edge e.
	Adj []int32
	// Mul[e] is the precomputed label.ClassMul for edge e.
	Mul []uint64

	// DevType[d] is device d's type id, an index into Types and TypeLab.
	// Ids are dense per view, so two devices of one view have equal ids
	// exactly when their type strings are equal.
	DevType []int32
	// Types is the type table: the distinct device type names.
	Types []string
	// TypeLab[t] is label.TypeLabel(Types[t]), the Phase I initial label
	// of a device of type t before global-net folding.
	TypeLab []label.Value

	// Globals lists, ascending, the indices of the nets that were marked
	// global (graph.Net.Global) when the view was built: the circuit's
	// base special signals.  Per-request globals are never recorded here.
	Globals []int32
	// GlobalMarks is the circuit's graph.Circuit.GlobalMarks when the view
	// was built; Fits fails once later marks have changed it.
	GlobalMarks uint64
}

// New builds the CSR view of c.  Devices and nets must have their Index
// fields dense and in slice order (graph.Circuit.Validate checks this), as
// label.Space assumes the same.
func New(c *graph.Circuit) *Graph {
	nd, nn := c.NumDevices(), c.NumNets()
	size := nd + nn
	g := &Graph{NumDevs: nd, NumNets: nn, Start: make([]int32, size+1)}
	for _, d := range c.Devices {
		g.Start[d.Index+1] = int32(len(d.Pins))
	}
	for _, n := range c.Nets {
		g.Start[nd+n.Index+1] = int32(len(n.Conns))
	}
	for v := 0; v < size; v++ {
		g.Start[v+1] += g.Start[v]
	}
	total := g.Start[size]
	g.Adj = make([]int32, total)
	g.Mul = make([]uint64, total)

	// Terminal classes are tiny (uint8) and few; memoize their multipliers
	// during the build.  ClassMul is forced odd, so 0 can mark "unset".
	var muls [256]uint64
	mulOf := func(class graph.TermClass) uint64 {
		if muls[class] == 0 {
			muls[class] = label.ClassMul(class)
		}
		return muls[class]
	}

	e := int32(0)
	for _, d := range c.Devices {
		for _, pin := range d.Pins {
			g.Adj[e] = int32(nd + pin.Net.Index)
			g.Mul[e] = mulOf(pin.Class)
			e++
		}
	}
	for _, n := range c.Nets {
		for _, conn := range n.Conns {
			g.Adj[e] = int32(conn.Dev.Index)
			g.Mul[e] = mulOf(conn.Dev.Pins[conn.Pin].Class)
			e++
		}
	}
	g.DevType = make([]int32, nd)
	tt := newTypeTable(nil, nil)
	for i, d := range c.Devices {
		g.DevType[i] = tt.id(d.Type)
	}
	g.Types, g.TypeLab = tt.types, tt.labs
	g.Globals, g.GlobalMarks = globalNets(c), c.GlobalMarks()
	return g
}

// typeTable interns device type names into dense ids.  It starts empty
// or, in Patch, from a previous view's table, which it never writes: the
// first new type copies the slices.
type typeTable struct {
	types []string
	labs  []label.Value
	owned bool // types/labs belong to this table, not to a previous view
	index map[string]int32
}

func newTypeTable(types []string, labs []label.Value) *typeTable {
	t := &typeTable{types: types, labs: labs, index: make(map[string]int32, len(types))}
	for i, name := range types {
		t.index[name] = int32(i)
	}
	return t
}

func (t *typeTable) id(typ string) int32 {
	if id, ok := t.index[typ]; ok {
		return id
	}
	if !t.owned {
		t.types = slices.Clone(t.types)
		t.labs = slices.Clone(t.labs)
		t.owned = true
	}
	id := int32(len(t.types))
	t.types = append(t.types, typ)
	t.labs = append(t.labs, label.TypeLabel(typ))
	t.index[typ] = id
	return id
}

// globalNets returns the ascending indices of c's nets marked global.
func globalNets(c *graph.Circuit) []int32 {
	var gs []int32
	for _, n := range c.Nets {
		if n.Global {
			gs = append(gs, int32(n.Index))
		}
	}
	return gs
}

// Size returns the total number of vertices.
func (g *Graph) Size() int { return g.NumDevs + g.NumNets }

// NumEdges returns the number of stored (directed) edges: twice the number
// of device pins.
func (g *Graph) NumEdges() int { return len(g.Adj) }

// Degree returns the number of edges of vertex v: a device's pin count or
// a net's degree.
func (g *Graph) Degree(v int32) int32 { return g.Start[v+1] - g.Start[v] }

// TypeID returns the id of a device type name in the view's type table,
// or -1 when no device of the view has that type.
func (g *Graph) TypeID(typ string) int32 {
	return int32(slices.Index(g.Types, typ))
}

// Fits reports whether the view's vertex counts match c and no net of c
// has been marked global since the view was built: the cheap check that a
// caller-supplied or cached view is still current.
func (g *Graph) Fits(c *graph.Circuit) bool {
	return g.NumDevs == c.NumDevices() && g.NumNets == c.NumNets() && g.GlobalMarks == c.GlobalMarks()
}

// Relabel returns the Fig. 3 relabeling of vertex v over the label slice
// lab: old(v) + Σ classMul(e)·lab(neighbor(e)).  Addition and
// multiplication wrap mod 2^64 and addition is commutative, so the result
// is independent of edge order and bit-identical to folding the same
// neighbors through label.Combine.
func (g *Graph) Relabel(v int32, lab []label.Value) label.Value {
	acc := lab[v]
	for e := g.Start[v]; e < g.Start[v+1]; e++ {
		acc += label.Value(g.Mul[e] * uint64(lab[g.Adj[e]]))
	}
	return acc
}
