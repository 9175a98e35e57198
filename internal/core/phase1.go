package core

import (
	"fmt"
	"sort"

	"subgemini/internal/csr"
	"subgemini/internal/graph"
	"subgemini/internal/label"
	"subgemini/internal/stats"
	"subgemini/internal/trace"
)

// Vertex states used by Phase I.  Pattern vertices carry valid/corrupt bits
// (paper §III); main-graph vertices carry active/pruned bits implementing
// the "removed from consideration" consistency-check optimization (Fig. 4).
// Global nets on both sides hold fixed name-derived labels, are never
// relabeled, never corrupt, and never enter partitions or the candidate
// vector (paper §V.A).
type p1State uint8

const (
	p1Valid   p1State = iota // label provably equals the image's label
	p1Corrupt                // label may differ from the image's label
	p1Global                 // special signal: fixed label, outside the algorithm
)

type g1State uint8

const (
	g1Active g1State = iota // still a possible image of some valid pattern vertex
	g1Pruned                // label matched no valid pattern partition; keeps last label
	g1Global                // special signal
)

// phase1 carries the state of the candidate-vector generation phase.  Two
// interchangeable engines drive the relabeling passes: the default
// data-oriented engine walks a flat CSR view with compact active-vertex
// worklists (and can stripe the main-graph side across goroutines), while
// the legacy engine walks Device/Net pointers and re-scans every vertex
// each pass.  Both produce bit-identical labels, prune decisions, and
// candidate vectors; Options.LegacyPhase1 keeps the reference engine
// selectable for differential testing.
type phase1 struct {
	m   *Matcher
	pat *pattern
	rep *stats.Report

	sSpace, gSpace *label.Space
	sLab, gLab     []label.Value
	sNew, gNew     []label.Value // legacy double-buffers; nil in the CSR engine
	sState         []p1State
	gState         []g1State

	// legacy selects the pointer-walking reference engine.
	legacy bool
	// workers is the goroutine count for main-graph passes (>= 1).
	workers int

	// CSR engine state: flat views of both graphs plus the active-vertex
	// worklists.  The lists hold exactly the valid (pattern) or active
	// (main) non-global vertices of each kind, in ascending VID order, and
	// are compacted as vertices corrupt or prune, so a pruned vertex costs
	// nothing after the pass that pruned it.
	sCSR, gCSR       *csr.Graph
	sActDev, sActNet []int32
	gActDev, gActNet []int32

	// Reusable consistency-count maps of the legacy engine, cleared rather
	// than reallocated between passes.
	sCount, gCount map[label.Value]int

	// Consistency scratch of the CSR engine: the valid pattern labels of a
	// pass, sorted and run-length compressed into distinct keys with
	// pattern counts (sCnt) and main-graph counts (gCnt).  Flat arrays
	// instead of maps: the per-vertex prune test becomes a binary search.
	sKeys []label.Value
	sCnt  []int32
	gCnt  []int32

	// par holds the per-goroutine scratch for striped main-graph passes;
	// allocated lazily on the first striped consistency check.
	par *p1Par

	// cancelErr latches the first non-nil Options.Cancel result observed
	// inside a relabeling pass (the strided CSR path polls every
	// p1CancelBlock worklist vertices); run checks it after each pass.
	cancelErr error

	// relabelEvents counts relabeling passes executed (net and device passes
	// each count one); seqComplete records that run reached candidate
	// selection rather than aborting on a consistency verdict.  The
	// incremental engine (incremental.go) captures both: relabelEvents
	// bounds how far label influence can have traveled from an edit (one hop
	// per pass), and seqComplete tells a later replay whether the captured
	// final labels are the labels of the full pattern-driven pass sequence.
	relabelEvents int
	seqComplete   bool

	// tracer, when non-nil, records per-round state for the Fig. 2/4-style
	// rendering (Options.TraceTable).
	tracer *phase1Tracer

	// traceLabs is reusable scratch for the Options.Tracer pass events:
	// valid pattern labels are gathered and sorted here to count
	// partitions without allocating on the per-pass path (the no-op
	// tracer contract).  Allocated once, only when a Tracer is installed.
	traceLabs []label.Value
}

func newPhase1(m *Matcher, pat *pattern, rep *stats.Report) *phase1 {
	p := &phase1{
		m: m, pat: pat, rep: rep,
		sSpace: pat.space,
		gSpace: m.gSpace,
		legacy: m.opts.LegacyPhase1,
	}
	p.workers = m.opts.Workers
	if p.workers < 1 || p.legacy {
		p.workers = 1
	}
	p.sLab = make([]label.Value, p.sSpace.Size())
	p.sState = make([]p1State, p.sSpace.Size())
	p.gLab = make([]label.Value, p.gSpace.Size())
	p.gState = make([]g1State, p.gSpace.Size())
	if p.legacy {
		p.sNew = make([]label.Value, p.sSpace.Size())
		p.gNew = make([]label.Value, p.gSpace.Size())
	}

	for _, d := range pat.s.Devices {
		v := p.sSpace.DevVID(d)
		if d.Type == graph.WildcardType {
			// A wildcard's image may have any type, so its label carries no
			// usable information (paper Invariant 1 cannot hold for it).
			p.sState[v] = p1Corrupt
			continue
		}
		acc := label.TypeLabel(d.Type)
		if !m.opts.AblateGlobalFold {
			for _, pin := range d.Pins {
				if pin.Net.Global {
					acc = label.Combine(acc, pin.Class, label.GlobalLabel(pin.Net.Name))
				}
			}
		}
		p.sLab[v] = acc
	}
	for _, n := range pat.s.Nets {
		v := p.sSpace.NetVID(n)
		switch {
		case n.Global:
			p.sLab[v] = label.GlobalLabel(n.Name)
			p.sState[v] = p1Global
		case pat.bind[n] != "":
			// Bound ports are pre-matched like specials; the label keys on
			// the target net's name so both sides agree (paper §V.A:
			// user-supplied constraints on the subcircuit).
			p.sLab[v] = label.BindLabel(pat.bind[n])
			p.sState[v] = p1Global
		case n.Port:
			// External nets have a different degree in the main graph, so
			// their labels are corrupt from the start (paper Fig. 2).
			p.sLab[v] = label.DegreeLabel(n.Degree())
			p.sState[v] = p1Corrupt
		default:
			p.sLab[v] = label.DegreeLabel(n.Degree())
		}
	}
	p.initMainLabels()
	if p.legacy {
		p.sCount = make(map[label.Value]int)
		p.gCount = make(map[label.Value]int)
	} else {
		p.initCSR()
	}
	return p
}

// initMainLabels writes the main graph's initial labels and global states
// straight from the compiled view: every device its type label, every net
// its degree label, then every special signal of the run its name label,
// folded into the labels of the devices on its terminals.  Global nets
// match by name, so a device's rail connections are invariant across the
// pattern and the main graph; folding them in sharpens the initial
// partitioning (a transistor sourcing from VDD never shares a partition
// with one buried in a stack), which is what makes rail-anchored patterns
// cheap to locate.  The fold walks the global nets' rows, and the sum
// commutes, so the result equals folding each device's global pins in pin
// order.  No string hashing, map access or allocation happens per vertex.
func (p *phase1) initMainLabels() {
	m, view, lab := p.m, p.m.gCSR, p.gLab
	start, adj, mul := view.Start, view.Adj, view.Mul
	for d, t := range view.DevType {
		lab[d] = view.TypeLab[t]
	}
	for v := view.NumDevs; v < len(lab); v++ {
		lab[v] = label.DegreeLabel(int(start[v+1] - start[v]))
	}
	for _, n := range p.pat.globals {
		v := int32(view.NumDevs) + n
		gl := label.GlobalLabel(m.g.Nets[n].Name)
		lab[v] = gl
		p.gState[v] = g1Global
		if m.opts.AblateGlobalFold {
			continue
		}
		for e := start[v]; e < start[v+1]; e++ {
			lab[adj[e]] += label.Value(mul[e] * uint64(gl))
		}
	}
	// Bind targets get the same fixed labels as their pattern ports.
	for _, target := range p.pat.bind {
		if gn := m.g.NetByName(target); gn != nil {
			v := p.gSpace.NetVID(gn)
			lab[v] = label.BindLabel(target)
			p.gState[v] = g1Global
		}
	}
}

// run executes the optimized Phase I algorithm (paper §III) and returns the
// key vertex and candidate vector.  An empty candidate vector means Phase I
// proved no instance exists.  The error is non-nil only when Options.Cancel
// fired: cancellation is polled before every relabeling pass, and the CSR
// engine additionally polls inside each main-graph pass (every
// p1CancelBlock worklist vertices, with striped workers watching a shared
// stop flag), so a deadline holds even while one pass walks a huge circuit.
func (p *phase1) run() (key label.VID, cv []label.VID, err error) {
	p.rep.Phase1Workers = p.workers
	if p.m.opts.TraceTable != nil {
		p.tracer = newPhase1Tracer(p)
	}
	etr := p.m.opts.Tracer
	if etr != nil {
		p.traceLabs = make([]label.Value, 0, p.sSpace.Size())
	}
	if err := p.m.opts.cancelled(); err != nil {
		return 0, nil, err
	}
	// Consistency check on the initial labeling (paper Fig. 4 prunes after
	// the initial labeling).
	if !p.consistency(false) || !p.consistency(true) {
		p.rep.EarlyAbort = true
		return 0, nil, nil
	}
	if p.tracer != nil {
		p.tracer.snapshot("initial")
	}

	maxRounds := p.sSpace.Size() + 8
	prevSig := p.partitionSignature()
	for round := 0; round < maxRounds; round++ {
		if err := p.m.opts.cancelled(); err != nil {
			return 0, nil, err
		}
		p.rep.Phase1Passes++

		// Relabel all valid net vertices, then corrupt those with corrupt
		// device neighbors.  A cancellation latched inside the pass must be
		// reported before the consistency bool is interpreted, so a cut
		// pass is never misread as an early abort.
		p.relabelNets()
		if p.cancelErr != nil {
			return 0, nil, p.cancelErr
		}
		p.corruptNets()
		if !p.consistency(false) {
			p.rep.EarlyAbort = true
			return 0, nil, nil
		}
		if p.tracer != nil {
			p.tracer.snapshot(fmt.Sprintf("nets %d", round+1))
		}
		if etr != nil {
			p.emitPass(etr, round+1, trace.SideNets)
		}
		if p.allCorrupt(false) {
			break
		}

		// Relabel all valid device vertices, then corrupt those with
		// corrupt net neighbors.
		p.relabelDevices()
		if p.cancelErr != nil {
			return 0, nil, p.cancelErr
		}
		p.corruptDevices()
		if !p.consistency(true) {
			p.rep.EarlyAbort = true
			return 0, nil, nil
		}
		if p.tracer != nil {
			p.tracer.snapshot(fmt.Sprintf("devs %d", round+1))
		}
		if etr != nil {
			p.emitPass(etr, round+1, trace.SideDevices)
		}
		if p.allCorrupt(true) {
			break
		}

		// Stability guard: when the valid partition structure of the
		// pattern stops refining, further rounds cannot shrink the
		// candidate vector (needed for patterns with no external nets,
		// which never corrupt).
		sig := p.partitionSignature()
		if sig == prevSig {
			break
		}
		prevSig = sig
	}
	p.seqComplete = true
	key, cv = p.chooseCandidates()
	return key, cv, nil
}

// emitPass publishes one Phase I pass event: the pattern's valid/corrupt
// split and partition count for the relabeled vertex kind, and the main
// graph's active/pruned split after the consistency check.  The partition
// count reuses p.traceLabs, so the per-pass path performs no allocations
// whatever the installed sink does with the event.
func (p *phase1) emitPass(etr trace.Tracer, pass int, side trace.Side) {
	e := trace.Event{Kind: trace.KindPhase1Pass, Pass: pass, Side: side}
	p.traceLabs = p.traceLabs[:0]
	// Device and net vertices occupy contiguous VID ranges (devices first),
	// so one range scan per side replaces the per-vertex DevVID/NetVID
	// translation the pointer walk needed.
	var sLo, sHi, gLo, gHi int
	if side == trace.SideDevices {
		sHi, gHi = p.sSpace.NumDevices(), p.gSpace.NumDevices()
	} else {
		sLo, sHi = p.sSpace.NumDevices(), p.sSpace.Size()
		gLo, gHi = p.gSpace.NumDevices(), p.gSpace.Size()
	}
	for v := sLo; v < sHi; v++ {
		switch p.sState[v] {
		case p1Valid:
			e.PatternValid++
			p.traceLabs = append(p.traceLabs, p.sLab[v])
		case p1Corrupt:
			e.PatternCorrupt++
		}
	}
	for v := gLo; v < gHi; v++ {
		switch p.gState[v] {
		case g1Active:
			e.MainActive++
		case g1Pruned:
			e.MainPruned++
		}
	}
	e.PatternPartitions = countDistinct(p.traceLabs)
	etr.Event(e)
}

// countDistinct sorts labs in place (allocation-free shell sort; the slice
// is pattern-sized) and counts distinct values.
func countDistinct(labs []label.Value) int {
	for gap := len(labs) / 2; gap > 0; gap /= 2 {
		for i := gap; i < len(labs); i++ {
			v := labs[i]
			j := i
			for j >= gap && v < labs[j-gap] {
				labs[j] = labs[j-gap]
				j -= gap
			}
			labs[j] = v
		}
	}
	n := 0
	for i, v := range labs {
		if i == 0 || v != labs[i-1] {
			n++
		}
	}
	return n
}

// relabelNets applies the Fig. 3 relabeling function to every valid pattern
// net and every active main-graph net simultaneously.
func (p *phase1) relabelNets() {
	p.relabelEvents++
	if p.legacy {
		p.relabelNetsLegacy()
		return
	}
	p.relabelCSR(p.sActNet, p.gActNet)
}

// relabelDevices is the device-side counterpart of relabelNets.
func (p *phase1) relabelDevices() {
	p.relabelEvents++
	if p.legacy {
		p.relabelDevicesLegacy()
		return
	}
	p.relabelCSR(p.sActDev, p.gActDev)
}

func (p *phase1) relabelNetsLegacy() {
	for _, n := range p.pat.s.Nets {
		v := p.sSpace.NetVID(n)
		if p.sState[v] != p1Valid {
			continue
		}
		p.sNew[v] = p.relabelNetFrom(n, p.sSpace, p.sLab)
	}
	for _, n := range p.m.g.Nets {
		v := p.gSpace.NetVID(n)
		if p.gState[v] != g1Active {
			continue
		}
		p.gNew[v] = p.relabelNetFrom(n, p.gSpace, p.gLab)
	}
	p.commitNets()
}

func (p *phase1) relabelNetFrom(n *graph.Net, sp *label.Space, lab []label.Value) label.Value {
	acc := lab[sp.NetVID(n)]
	for _, conn := range n.Conns {
		class := conn.Dev.Pins[conn.Pin].Class
		acc = label.Combine(acc, class, lab[sp.DevVID(conn.Dev)])
	}
	return acc
}

func (p *phase1) relabelDevicesLegacy() {
	for _, d := range p.pat.s.Devices {
		v := p.sSpace.DevVID(d)
		if p.sState[v] != p1Valid {
			continue
		}
		p.sNew[v] = p.relabelDevFrom(d, p.sSpace, p.sLab)
	}
	for _, d := range p.m.g.Devices {
		v := p.gSpace.DevVID(d)
		if p.gState[v] != g1Active {
			continue
		}
		p.gNew[v] = p.relabelDevFrom(d, p.gSpace, p.gLab)
	}
	p.commitDevices()
}

func (p *phase1) relabelDevFrom(d *graph.Device, sp *label.Space, lab []label.Value) label.Value {
	acc := lab[sp.DevVID(d)]
	for _, pin := range d.Pins {
		acc = label.Combine(acc, pin.Class, lab[sp.NetVID(pin.Net)])
	}
	return acc
}

func (p *phase1) commitNets() {
	for _, n := range p.pat.s.Nets {
		v := p.sSpace.NetVID(n)
		if p.sState[v] == p1Valid {
			p.sLab[v] = p.sNew[v]
		}
	}
	for _, n := range p.m.g.Nets {
		v := p.gSpace.NetVID(n)
		if p.gState[v] == g1Active {
			p.gLab[v] = p.gNew[v]
		}
	}
}

func (p *phase1) commitDevices() {
	for _, d := range p.pat.s.Devices {
		v := p.sSpace.DevVID(d)
		if p.sState[v] == p1Valid {
			p.sLab[v] = p.sNew[v]
		}
	}
	for _, d := range p.m.g.Devices {
		v := p.gSpace.DevVID(d)
		if p.gState[v] == g1Active {
			p.gLab[v] = p.gNew[v]
		}
	}
}

// corruptNets marks valid pattern nets corrupt when any neighboring device
// is corrupt; its label may then differ from its image's label.
func (p *phase1) corruptNets() {
	if !p.legacy {
		p.sActNet = p.corruptCSR(p.sActNet)
		return
	}
	for _, n := range p.pat.s.Nets {
		v := p.sSpace.NetVID(n)
		if p.sState[v] != p1Valid {
			continue
		}
		for _, conn := range n.Conns {
			if p.sState[p.sSpace.DevVID(conn.Dev)] == p1Corrupt {
				p.sState[v] = p1Corrupt
				break
			}
		}
	}
}

// corruptDevices marks valid pattern devices corrupt when any neighboring
// net is corrupt.  Global nets never corrupt their neighbors.
func (p *phase1) corruptDevices() {
	if !p.legacy {
		p.sActDev = p.corruptCSR(p.sActDev)
		return
	}
	for _, d := range p.pat.s.Devices {
		v := p.sSpace.DevVID(d)
		if p.sState[v] != p1Valid {
			continue
		}
		for _, pin := range d.Pins {
			if p.sState[p.sSpace.NetVID(pin.Net)] == p1Corrupt {
				p.sState[v] = p1Corrupt
				break
			}
		}
	}
}

// allCorrupt reports whether every pattern vertex of the given kind (devices
// if devs, otherwise non-global nets) has been invalidated.
func (p *phase1) allCorrupt(devs bool) bool {
	if !p.legacy {
		// The worklists hold exactly the valid vertices of each kind.
		if devs {
			return len(p.sActDev) == 0
		}
		return len(p.sActNet) == 0
	}
	if devs {
		for _, d := range p.pat.s.Devices {
			if p.sState[p.sSpace.DevVID(d)] == p1Valid {
				return false
			}
		}
		return true
	}
	for _, n := range p.pat.s.Nets {
		if p.sState[p.sSpace.NetVID(n)] == p1Valid {
			return false
		}
	}
	return true
}

// consistency compares valid pattern partitions of one vertex kind against
// the active main-graph partitions with the same labels (paper §III).  It
// prunes main-graph vertices whose labels match no valid pattern partition
// and returns false when some main-graph partition is smaller than the
// same-label pattern partition, which proves that no instance exists.
func (p *phase1) consistency(devs bool) bool {
	if !p.legacy {
		return p.consistencyCSR(devs)
	}
	clear(p.sCount)
	if devs {
		for _, d := range p.pat.s.Devices {
			v := p.sSpace.DevVID(d)
			if p.sState[v] == p1Valid {
				p.sCount[p.sLab[v]]++
			}
		}
	} else {
		for _, n := range p.pat.s.Nets {
			v := p.sSpace.NetVID(n)
			if p.sState[v] == p1Valid {
				p.sCount[p.sLab[v]]++
			}
		}
	}
	if len(p.sCount) == 0 {
		// Nothing valid on this side: no constraints to apply, and the
		// main-graph side must be left untouched for contribution labels.
		return true
	}
	clear(p.gCount)
	prune := func(v label.VID) {
		if p.gState[v] != g1Active {
			return
		}
		if _, ok := p.sCount[p.gLab[v]]; !ok {
			p.gState[v] = g1Pruned
			p.rep.Phase1Pruned++
		} else {
			p.gCount[p.gLab[v]]++
		}
	}
	if devs {
		for _, d := range p.m.g.Devices {
			prune(p.gSpace.DevVID(d))
		}
	} else {
		for _, n := range p.m.g.Nets {
			prune(p.gSpace.NetVID(n))
		}
	}
	for lab, cs := range p.sCount {
		if p.gCount[lab] < cs {
			return false
		}
	}
	return true
}

// partitionSignature canonically encodes the valid partition structure of
// the pattern, used by the stability guard.  Two rounds with the same
// signature refine identically forever after.
func (p *phase1) partitionSignature() string {
	ids := make(map[label.Value]int)
	sig := make([]byte, 0, p.sSpace.Size()*2)
	for v := 0; v < p.sSpace.Size(); v++ {
		sig = append(sig, byte(p.sState[v]))
		if p.sState[v] != p1Valid {
			continue
		}
		id, ok := ids[p.sLab[v]]
		if !ok {
			id = len(ids)
			ids[p.sLab[v]] = id
		}
		sig = append(sig, byte(id), byte(id>>8))
	}
	return string(sig)
}

// chooseCandidates picks the smallest active main-graph partition whose
// label also labels valid pattern vertices; ties prefer smaller pattern
// partitions, then lower labels for determinism.  The first pattern vertex
// with the chosen label becomes the key vertex.
func (p *phase1) chooseCandidates() (label.VID, []label.VID) {
	type part struct {
		lab    label.Value
		dev    bool
		sFirst label.VID
		sCount int
	}
	sParts := make(map[label.Value]*part)
	order := make([]*part, 0)
	addS := func(v label.VID) {
		lab := p.sLab[v]
		pp, ok := sParts[lab]
		if !ok {
			pp = &part{lab: lab, dev: p.sSpace.IsDevice(v), sFirst: v}
			sParts[lab] = pp
			order = append(order, pp)
		}
		pp.sCount++
	}
	// The CSR worklists hold exactly the valid (resp. active) vertices in
	// ascending VID order, devices before nets — the same order as the
	// legacy full scan, so the sFirst tiebreak and the per-label candidate
	// order are identical between engines.
	if p.legacy {
		for v := 0; v < p.sSpace.Size(); v++ {
			if p.sState[v] == p1Valid {
				addS(label.VID(v))
			}
		}
	} else {
		for _, v := range p.sActDev {
			addS(label.VID(v))
		}
		for _, v := range p.sActNet {
			addS(label.VID(v))
		}
	}
	if len(order) == 0 {
		return p.fallbackCandidates()
	}
	// Group active main-graph vertices by label, split by vertex kind so a
	// cross-kind label collision cannot mix devices and nets.
	gDev := make(map[label.Value][]label.VID)
	gNet := make(map[label.Value][]label.VID)
	addG := func(v label.VID) {
		if _, ok := sParts[p.gLab[v]]; !ok {
			return
		}
		if p.gSpace.IsDevice(v) {
			gDev[p.gLab[v]] = append(gDev[p.gLab[v]], v)
		} else {
			gNet[p.gLab[v]] = append(gNet[p.gLab[v]], v)
		}
	}
	if p.legacy {
		for v := 0; v < p.gSpace.Size(); v++ {
			if p.gState[v] == g1Active {
				addG(label.VID(v))
			}
		}
	} else {
		for _, v := range p.gActDev {
			addG(label.VID(v))
		}
		for _, v := range p.gActNet {
			addG(label.VID(v))
		}
	}
	var best *part
	var bestCV []label.VID
	for _, pp := range order {
		var cands []label.VID
		if pp.dev {
			cands = gDev[pp.lab]
		} else {
			cands = gNet[pp.lab]
		}
		if len(cands) < pp.sCount {
			// A main-graph partition smaller than its pattern partition
			// proves no instance exists.
			p.rep.EarlyAbort = true
			return 0, nil
		}
		if best == nil ||
			len(cands) < len(bestCV) ||
			(len(cands) == len(bestCV) && pp.sCount < best.sCount) ||
			(len(cands) == len(bestCV) && pp.sCount == best.sCount && pp.lab < best.lab) {
			best = pp
			bestCV = cands
		}
	}
	if best == nil {
		return 0, nil
	}
	sort.Slice(bestCV, func(i, j int) bool { return bestCV[i] < bestCV[j] })
	return best.sFirst, bestCV
}

// fallbackCandidates handles patterns with no valid vertices at all (every
// device a wildcard and every net external): the key is the first pattern
// device and the candidate vector is every arity-compatible main-graph
// device.  Complete, but with no Phase I filtering.
func (p *phase1) fallbackCandidates() (label.VID, []label.VID) {
	key := p.pat.s.Devices[0]
	var cv []label.VID
	for _, d := range p.m.g.Devices {
		if len(d.Pins) != len(key.Pins) {
			continue
		}
		if key.Type != graph.WildcardType && d.Type != key.Type {
			continue
		}
		cv = append(cv, p.gSpace.DevVID(d))
	}
	return p.sSpace.DevVID(key), cv
}
