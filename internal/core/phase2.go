package core

import (
	"fmt"
	"time"

	"subgemini/internal/graph"
	"subgemini/internal/label"
	"subgemini/internal/stats"
	"subgemini/internal/trace"
)

const unmatched label.VID = -1

// phase2 carries the state of candidate verification (paper §IV).  The
// pattern-side arrays are dense and reset wholesale between candidates; the
// main-graph arrays are dense but sparsely populated, with a touched list so
// only the region a candidate actually explored is reset.
type phase2 struct {
	m   *Matcher
	pat *pattern
	rep *stats.Report

	sSpace, gSpace *label.Space
	uniq           *label.UniqueSource

	// Per-candidate templates: label/safety/match state with only the
	// pre-matched global nets filled in.
	sInitLab   []label.Value
	sInitSafe  []bool
	sInitMatch []label.VID

	// Live pattern-side state.
	sLab   []label.Value
	sSafe  []bool
	sMatch []label.VID

	// Live main-graph state.  Entries for global nets are set once at
	// construction and are never in the touched list, so candidate resets
	// and backtracking leave them intact.
	gLab   []label.Value
	gSafe  []bool
	gMatch []label.VID

	touched   []label.VID // main-graph vertices with candidate-local state
	inTouched []bool

	// gSafeList holds safe, non-fixed main-graph vertices: the spreading
	// frontier whose neighbors are relabeled each pass.
	gSafeList []label.VID

	// fixedS and fixedG mark pre-matched vertices (global nets and bound
	// ports / their targets): they contribute labels but never trigger
	// relabeling, are never reset, and never enter partitions.  fixedGList
	// records the main-graph entries so close can undo them in O(fixed).
	fixedS     []bool
	fixedG     []bool
	fixedGList []label.VID

	// pool/scr are set when the main-graph arrays above came from an
	// Options.Scratch pool; close returns them.
	pool *ScratchPool
	scr  *gscratch

	matched int // pattern vertices matched so far (globals excluded)

	// Scratch for simultaneous relabeling.
	sPendV []label.VID
	sPendL []label.Value
	gPendV []label.VID
	gPendL []label.Value
	mark   []uint32 // round marker per main-graph vertex
	markID uint32

	// Scratch for partitioning: (label, vid) pairs, sorted by label then
	// vid, walked as runs.  Reused across passes to avoid the allocation
	// churn of per-pass maps, and sorted so runs are deterministic.
	sPairs []labVID
	gPairs []labVID

	// tracer, when non-nil, records per-pass state for the Table-1-style
	// rendering (Options.TraceTable).
	tracer *tableTracer

	// snapPool recycles backtracking snapshots: guesses save and restore
	// strictly LIFO, so the pool is a stack of reusable buffers indexed by
	// snapDepth.
	snapPool  []*snapshot
	snapDepth int

	// cancelErr latches the first non-nil Options.Cancel result observed
	// inside the solve recursion; once set, solve and guess unwind without
	// doing further work and the caller must abandon the run.
	cancelErr error
}

// p2CancelStride is how many solve passes run between Options.Cancel polls.
// A pass does at least O(pattern) work, so the stride bounds the work
// between polls without putting the callback on the per-pass hot path.
const p2CancelStride = 32

type labVID struct {
	lab label.Value
	vid label.VID
}

func newPhase2(m *Matcher, pat *pattern, rep *stats.Report) (*phase2, error) {
	p := &phase2{
		m: m, pat: pat, rep: rep,
		sSpace: pat.space,
		gSpace: m.gSpace,
		uniq:   label.NewUniqueSource(m.opts.Seed),
	}
	sn, gn := p.sSpace.Size(), p.gSpace.Size()
	p.sInitLab = make([]label.Value, sn)
	p.sInitSafe = make([]bool, sn)
	p.sInitMatch = make([]label.VID, sn)
	p.sLab = make([]label.Value, sn)
	p.sSafe = make([]bool, sn)
	p.sMatch = make([]label.VID, sn)
	p.fixedS = make([]bool, sn)
	for i := range p.sInitMatch {
		p.sInitMatch[i] = unmatched
	}
	if sp := m.opts.Scratch; sp != nil {
		// Adopt recycled main-graph arrays; the pool's clean-state
		// invariant stands in for the zeroing below.
		p.pool = sp
		p.scr = sp.get(gn)
		p.gLab = p.scr.gLab
		p.gSafe = p.scr.gSafe
		p.gMatch = p.scr.gMatch
		p.inTouched = p.scr.inTouched
		p.mark = p.scr.mark
		p.fixedG = p.scr.fixedG
		p.markID = p.scr.markID
		p.touched = p.scr.touched[:0]
		p.gSafeList = p.scr.gSafeList[:0]
		p.gPendV = p.scr.gPendV[:0]
		p.gPendL = p.scr.gPendL[:0]
		p.gPairs = p.scr.gPairs[:0]
	} else {
		p.gLab = make([]label.Value, gn)
		p.gSafe = make([]bool, gn)
		p.gMatch = make([]label.VID, gn)
		p.inTouched = make([]bool, gn)
		p.mark = make([]uint32, gn)
		p.fixedG = make([]bool, gn)
		for i := range p.gMatch {
			p.gMatch[i] = unmatched
		}
	}
	if err := p.initPrematch(); err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

// initPrematch pre-matches global nets by name (paper §V.A) and bound
// ports to their targets.  A pattern global or bind target with no
// counterpart in the main graph means no instance can exist.
func (p *phase2) initPrematch() error {
	m, pat := p.m, p.pat
	prematch := func(n *graph.Net, gn *graph.Net, lab label.Value) error {
		sv, gv := p.sSpace.NetVID(n), p.gSpace.NetVID(gn)
		if p.gMatch[gv] != unmatched {
			// Two pre-matched pattern nets demand the same image (e.g. a
			// port bound to a net that is also the pattern's global).  Net
			// maps are injective, so no instance can satisfy this.
			return fmt.Errorf("core: net %q would be the image of two pattern nets (%s and %s)",
				gn.Name, p.sSpace.Name(p.gMatch[gv]), n.Name)
		}
		p.sInitLab[sv] = lab
		p.sInitSafe[sv] = true
		p.sInitMatch[sv] = gv
		p.fixedS[sv] = true
		p.gLab[gv] = lab
		p.gSafe[gv] = true
		p.gMatch[gv] = sv
		p.fixedG[gv] = true
		p.fixedGList = append(p.fixedGList, gv)
		return nil
	}
	for _, n := range pat.s.Nets {
		switch {
		case n.Global:
			// Matcher.prepare put every pattern global G has into the run's
			// overlay, so a net of that name is a global of this run.
			gn := m.g.NetByName(n.Name)
			if gn == nil {
				return fmt.Errorf("core: pattern global net %q absent from circuit %s", n.Name, m.g.Name)
			}
			if err := prematch(n, gn, label.GlobalLabel(n.Name)); err != nil {
				return err
			}
		case pat.bind[n] != "":
			target := pat.bind[n]
			gn := m.g.NetByName(target)
			if gn == nil {
				return fmt.Errorf("core: bind target net %q absent from circuit %s", target, m.g.Name)
			}
			if gn.Degree() < n.Degree() {
				return fmt.Errorf("core: bind target %q has degree %d, pattern port %q needs at least %d",
					target, gn.Degree(), n.Name, n.Degree())
			}
			if err := prematch(n, gn, label.BindLabel(target)); err != nil {
				return err
			}
		}
	}
	return nil
}

// close releases pooled scratch, restoring the pool's clean-state
// invariant in O(touched + fixed) time.  It is a no-op when the state was
// freshly allocated, and must be called once a pooled phase2 is done (Find
// and FindParallel defer it).
func (p *phase2) close() {
	if p.pool == nil {
		return
	}
	for _, v := range p.touched {
		p.gLab[v] = 0
		p.gSafe[v] = false
		p.gMatch[v] = unmatched
		p.inTouched[v] = false
	}
	for _, v := range p.fixedGList {
		p.gLab[v] = 0
		p.gSafe[v] = false
		p.gMatch[v] = unmatched
		p.fixedG[v] = false
	}
	p.scr.markID = p.markID
	p.scr.touched = p.touched[:0]
	p.scr.gSafeList = p.gSafeList[:0]
	p.scr.gPendV = p.gPendV[:0]
	p.scr.gPendL = p.gPendL[:0]
	p.scr.gPairs = p.gPairs[:0]
	p.pool.put(p.scr)
	p.pool, p.scr = nil, nil
}

// reset prepares the per-candidate state.
func (p *phase2) reset() {
	copy(p.sLab, p.sInitLab)
	copy(p.sSafe, p.sInitSafe)
	copy(p.sMatch, p.sInitMatch)
	for _, v := range p.touched {
		p.gLab[v] = 0
		p.gSafe[v] = false
		p.gMatch[v] = unmatched
		p.inTouched[v] = false
	}
	p.touched = p.touched[:0]
	p.gSafeList = p.gSafeList[:0]
	p.matched = 0
}

// touch registers candidate-local state on a main-graph vertex.
func (p *phase2) touch(v label.VID) {
	if !p.inTouched[v] {
		p.inTouched[v] = true
		p.touched = append(p.touched, v)
	}
}

// match records s ↔ g as matched: both receive the same fresh unique label
// (the paper's "random, unique label"), become safe, and are frozen.
func (p *phase2) match(sv, gv label.VID) {
	lab := p.uniq.Next()
	p.sLab[sv] = lab
	p.sSafe[sv] = true
	p.sMatch[sv] = gv
	p.touch(gv)
	p.gLab[gv] = lab
	p.gSafe[gv] = true
	p.gMatch[gv] = sv
	if !p.fixedG[gv] {
		p.gSafeList = append(p.gSafeList, gv)
	}
	p.matched++
}

// verifyCandidate postulates c = image(key) and runs the Phase II search.
// It returns a verified instance, or nil when c is a false candidate.
// With a Tracer installed, every examined candidate emits one
// KindPhase2Candidate event carrying its outcome and cost; the untraced
// path pays nothing.
func (p *phase2) verifyCandidate(key, c label.VID) *Instance {
	etr := p.m.opts.Tracer
	if etr == nil {
		return p.verify(key, c)
	}
	start := time.Now()
	passes0, guesses0, backtracks0 := p.rep.Phase2Passes, p.rep.Guesses, p.rep.Backtracks
	inst := p.verify(key, c)
	etr.Event(trace.Event{
		Kind:       trace.KindPhase2Candidate,
		Candidate:  p.gSpace.Name(c),
		Matched:    inst != nil,
		Passes:     p.rep.Phase2Passes - passes0,
		Guesses:    p.rep.Guesses - guesses0,
		Backtracks: p.rep.Backtracks - backtracks0,
		DurationNS: time.Since(start).Nanoseconds(),
	})
	return inst
}

// cancelled exposes the solve-internal cancellation latch (phase2Engine).
func (p *phase2) cancelled() error { return p.cancelErr }

// verify is the untraced body of verifyCandidate.
func (p *phase2) verify(key, c label.VID) *Instance {
	if p.m.consumedDev(c) {
		return nil
	}
	if p.fixedG[c] {
		// A fixed vertex is pre-matched by name and can never be the image
		// of the (never-fixed) key; matching it here would corrupt its fixed
		// state on reset.  Phase I keeps fixed vertices out of the candidate
		// vector, so this guard is defensive.
		return nil
	}
	if p.sSpace.IsDevice(key) != p.gSpace.IsDevice(c) {
		return nil
	}
	if p.sSpace.IsDevice(key) && !p.compatible(key, c) {
		return nil
	}
	p.reset()
	if w := p.m.opts.TraceTable; w != nil {
		p.tracer = newTableTracer(p, p.gSpace.Name(c))
		defer func() {
			verdict := "no match"
			if p.matched == p.pat.required {
				verdict = "MATCH"
			}
			p.tracer.render(w, verdict)
			p.tracer = nil
		}()
	}
	p.match(key, c)
	if p.tracer != nil {
		p.tracer.snapshot()
	}
	if !p.solve(0) {
		return nil
	}
	return p.buildInstance()
}

// solve runs the relabel / check / mark-safe / match loop until every
// pattern vertex is matched, guessing on stalls (paper §IV algorithm
// VerifyImage).  Options.Cancel is polled every p2CancelStride passes, at
// any recursion depth, so even a single pathological candidate (deep
// symmetric guessing, the exponential-tail case) honors its deadline; a
// cancelled solve returns false with p.cancelErr set.
func (p *phase2) solve(depth int) bool {
	for {
		if p.cancelErr != nil {
			return false
		}
		p.rep.Phase2Passes++
		if p.rep.Phase2Passes%p2CancelStride == 0 && p.m.opts.Cancel != nil {
			if err := p.m.opts.Cancel(); err != nil {
				p.cancelErr = err
				return false
			}
		}
		p.relabelRound()
		progress, ok := p.partitionRound()
		if p.tracer != nil {
			p.tracer.snapshot()
		}
		if !ok {
			return false
		}
		if p.matched == p.pat.required {
			p.rep.VerifyCalls++
			return p.verifyMapping()
		}
		if !progress {
			return p.guess(depth)
		}
	}
}

// relabelRound simultaneously relabels, on both sides, every unmatched
// vertex adjacent to at least one safe non-global vertex, accumulating
// contributions from safe neighbors only (Label Invariant 2).  A device's
// first label folds in its type; image devices share types, so the fold is
// consistent across the two graphs.
func (p *phase2) relabelRound() {
	// Pattern side: the graph is small, iterate everything.
	p.sPendV = p.sPendV[:0]
	p.sPendL = p.sPendL[:0]
	for v := 0; v < p.sSpace.Size(); v++ {
		vid := label.VID(v)
		if p.sMatch[vid] != unmatched || p.fixedS[vid] {
			continue
		}
		newLab, triggered := p.relabelS(vid)
		if triggered {
			p.sPendV = append(p.sPendV, vid)
			p.sPendL = append(p.sPendL, newLab)
		}
	}
	// Main-graph side: visit only the neighbors of the safe frontier.  The
	// neighbor iteration is inlined (rather than using a callback) because
	// this is the hottest loop of Phase II.
	p.markID++
	p.gPendV = p.gPendV[:0]
	p.gPendL = p.gPendL[:0]
	visit := func(nv label.VID) {
		if p.mark[nv] == p.markID {
			return
		}
		p.mark[nv] = p.markID
		if p.gMatch[nv] != unmatched || p.fixedG[nv] || p.m.consumedDev(nv) {
			return
		}
		newLab, triggered := p.relabelG(nv)
		if triggered {
			p.gPendV = append(p.gPendV, nv)
			p.gPendL = append(p.gPendL, newLab)
		}
	}
	for _, sv := range p.gSafeList {
		if p.gSpace.IsDevice(sv) {
			for _, pin := range p.gSpace.Device(sv).Pins {
				visit(p.gSpace.NetVID(pin.Net))
			}
		} else {
			for _, conn := range p.gSpace.Net(sv).Conns {
				visit(p.gSpace.DevVID(conn.Dev))
			}
		}
	}
	for i, v := range p.sPendV {
		p.sLab[v] = p.sPendL[i]
	}
	for i, v := range p.gPendV {
		p.touch(v)
		p.gLab[v] = p.gPendL[i]
	}
}

// relabelS computes the would-be new label of pattern vertex v and whether
// it has a safe non-global neighbor (the trigger condition).
func (p *phase2) relabelS(v label.VID) (label.Value, bool) {
	acc := p.sLab[v]
	triggered := false
	if p.sSpace.IsDevice(v) {
		d := p.sSpace.Device(v)
		if acc == 0 && !p.pat.wildcards {
			acc = label.TypeLabel(d.Type)
		}
		for _, pin := range d.Pins {
			nv := p.sSpace.NetVID(pin.Net)
			if !p.sSafe[nv] {
				continue
			}
			acc = label.Combine(acc, pin.Class, p.sLab[nv])
			if !p.fixedS[nv] {
				triggered = true
			}
		}
	} else {
		n := p.sSpace.Net(v)
		for _, conn := range n.Conns {
			dv := p.sSpace.DevVID(conn.Dev)
			if !p.sSafe[dv] {
				continue
			}
			acc = label.Combine(acc, conn.Dev.Pins[conn.Pin].Class, p.sLab[dv])
			triggered = true
		}
	}
	return acc, triggered
}

// relabelG is relabelS on the main-graph side; the two must apply the exact
// same rule for Invariant 2 to hold.
func (p *phase2) relabelG(v label.VID) (label.Value, bool) {
	acc := p.gLab[v]
	triggered := false
	if p.gSpace.IsDevice(v) {
		d := p.gSpace.Device(v)
		if acc == 0 && !p.pat.wildcards {
			view := p.m.gCSR
			acc = view.TypeLab[view.DevType[v]]
		}
		for _, pin := range d.Pins {
			nv := p.gSpace.NetVID(pin.Net)
			if !p.gSafe[nv] {
				continue
			}
			acc = label.Combine(acc, pin.Class, p.gLab[nv])
			if !p.fixedG[nv] {
				triggered = true
			}
		}
	} else {
		n := p.gSpace.Net(v)
		for _, conn := range n.Conns {
			dv := p.gSpace.DevVID(conn.Dev)
			if !p.gSafe[dv] {
				continue
			}
			acc = label.Combine(acc, conn.Dev.Pins[conn.Pin].Class, p.gLab[dv])
			triggered = true
		}
	}
	return acc, triggered
}

// partitionRound groups unmatched labeled vertices by label on both sides,
// fails the candidate when a main-graph partition is smaller than the
// same-label pattern partition, marks equal-sized partitions safe, and
// matches singleton pairs.  It reports whether anything progressed.
//
// Partitions are materialized as label-sorted (label, vid) pair lists
// walked in lockstep, which is allocation-free across passes and makes the
// iteration order (and therefore the whole run) deterministic.
func (p *phase2) partitionRound() (progress, ok bool) {
	p.collectPairs()
	si, gi := 0, 0
	for si < len(p.sPairs) {
		lab := p.sPairs[si].lab
		sEnd := si + 1
		for sEnd < len(p.sPairs) && p.sPairs[sEnd].lab == lab {
			sEnd++
		}
		// Advance the main-graph list to this label.
		for gi < len(p.gPairs) && p.gPairs[gi].lab < lab {
			gi++
		}
		gStart := gi
		for gi < len(p.gPairs) && p.gPairs[gi].lab == lab {
			gi++
		}
		cs, cg := sEnd-si, gi-gStart
		if cg < cs {
			return false, false
		}
		if cg == cs {
			// Equal-sized partitions are safe (paper §IV): assuming an
			// instance exists at this candidate, the main-graph partition
			// contains only images.  A wrong assumption at a false
			// candidate is caught later by a consistency failure or by
			// verifyMapping.
			for k := si; k < sEnd; k++ {
				if v := p.sPairs[k].vid; !p.sSafe[v] {
					p.sSafe[v] = true
					progress = true
				}
			}
			for k := gStart; k < gi; k++ {
				if v := p.gPairs[k].vid; !p.gSafe[v] {
					p.gSafe[v] = true
					p.gSafeList = append(p.gSafeList, v)
					progress = true
				}
			}
			if cs == 1 {
				sv, gv := p.sPairs[si].vid, p.gPairs[gStart].vid
				if !p.compatible(sv, gv) {
					// A structural impossibility surfaced by a label
					// collision: treat as a failed candidate.
					return false, false
				}
				p.match(sv, gv)
				progress = true
			}
		}
		si = sEnd
	}
	return progress, true
}

// collectPairs rebuilds the sorted (label, vid) pair lists for both sides.
func (p *phase2) collectPairs() {
	p.sPairs = p.sPairs[:0]
	for v := 0; v < p.sSpace.Size(); v++ {
		vid := label.VID(v)
		if p.sMatch[vid] == unmatched && p.sLab[vid] != 0 {
			p.sPairs = append(p.sPairs, labVID{p.sLab[vid], vid})
		}
	}
	p.gPairs = p.gPairs[:0]
	for _, vid := range p.touched {
		if p.gMatch[vid] == unmatched && p.gLab[vid] != 0 && !p.m.consumedDev(vid) {
			p.gPairs = append(p.gPairs, labVID{p.gLab[vid], vid})
		}
	}
	sortPairs(p.sPairs)
	sortPairs(p.gPairs)
}

// sortPairs orders by label, then vid.  Pair lists are small (on the order
// of the pattern size plus its boundary), so a binary-insertion-friendly
// shell sort beats the allocation cost of sort.Slice here.
func sortPairs(a []labVID) {
	for gap := len(a) / 2; gap > 0; gap /= 2 {
		for i := gap; i < len(a); i++ {
			v := a[i]
			j := i
			for j >= gap && less(v, a[j-gap]) {
				a[j] = a[j-gap]
				j -= gap
			}
			a[j] = v
		}
	}
}

// gRun returns the slice of gPairs carrying the given label, using binary
// search over the sorted list.  Valid until the next collectPairs.
func (p *phase2) gRun(lab label.Value) []labVID {
	lo, hi := 0, len(p.gPairs)
	for lo < hi {
		mid := (lo + hi) / 2
		if p.gPairs[mid].lab < lab {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	start := lo
	for lo < len(p.gPairs) && p.gPairs[lo].lab == lab {
		lo++
	}
	return p.gPairs[start:lo]
}

func less(x, y labVID) bool {
	if x.lab != y.lab {
		return x.lab < y.lab
	}
	return x.vid < y.vid
}

// compatible reports whether matching sv to gv is structurally plausible:
// device types and arities must agree, and net degrees must satisfy the
// image conditions (equal for internal pattern nets — the induced-subgraph
// requirement — and at least as large for ports).  Phase II labels carry no
// degree information, so checking here prunes false paths that would
// otherwise be discovered only by the final verification; the check is
// sound because every true image satisfies it by definition.
func (p *phase2) compatible(sv, gv label.VID) bool {
	if p.sSpace.IsDevice(sv) != p.gSpace.IsDevice(gv) {
		return false
	}
	if p.sSpace.IsDevice(sv) {
		sd, gd := p.sSpace.Device(sv), p.gSpace.Device(gv)
		if len(sd.Pins) != len(gd.Pins) {
			return false
		}
		return sd.Type == gd.Type || sd.Type == graph.WildcardType
	}
	if p.m.opts.AblateDegreeCheck {
		return true
	}
	sn, gn := p.sSpace.Net(sv), p.gSpace.Net(gv)
	if sn.Port {
		return gn.Degree() >= sn.Degree()
	}
	return gn.Degree() == sn.Degree()
}

// guess resolves a stall (paper Fig. 5): pick the unmatched pattern vertex
// whose label has the smallest main-graph partition and try each member in
// turn, backtracking on failure.
func (p *phase2) guess(depth int) bool {
	if depth >= p.m.opts.guessDepth() {
		p.m.opts.tracef("phase2: guess depth limit %d reached", depth)
		return false
	}
	// The sorted pair lists from the stalled partitionRound are current;
	// pick the unmatched pattern vertex whose label has the smallest
	// main-graph run.
	var bestS label.VID = -1
	bestSize := 0
	for v := 0; v < p.sSpace.Size(); v++ {
		vid := label.VID(v)
		if p.sMatch[vid] != unmatched || p.sLab[vid] == 0 {
			continue
		}
		size := len(p.gRun(p.sLab[vid]))
		if size == 0 {
			return false // an unmatched pattern vertex with no possible image
		}
		if bestS < 0 || size < bestSize {
			bestS, bestSize = vid, size
		}
	}
	if bestS < 0 {
		// Nothing left to guess but not everything matched: the pattern has
		// unlabeled vertices, which cannot happen for connected patterns.
		return false
	}
	cands := append([]labVID(nil), p.gRun(p.sLab[bestS])...)
	for _, cand := range cands {
		gv := cand.vid
		if !p.compatible(bestS, gv) {
			continue
		}
		snap := p.save()
		p.rep.Guesses++
		p.match(bestS, gv)
		if p.solve(depth + 1) {
			p.release()
			return true
		}
		p.rep.Backtracks++
		p.restore(snap)
		p.release()
		if p.cancelErr != nil {
			// The failed solve was a cancellation, not a refutation: stop
			// trying alternatives and unwind the whole recursion.
			return false
		}
	}
	return false
}

// snapshot captures the candidate-local state for backtracking.
type snapshot struct {
	sLab    []label.Value
	sSafe   []bool
	sMatch  []label.VID
	touched []label.VID
	gLab    []label.Value
	gSafe   []bool
	gMatch  []label.VID
	safeLen int
	matched int
}

func (p *phase2) save() *snapshot {
	var sn *snapshot
	if p.snapDepth < len(p.snapPool) {
		sn = p.snapPool[p.snapDepth]
	} else {
		sn = &snapshot{}
		p.snapPool = append(p.snapPool, sn)
	}
	p.snapDepth++
	sn.sLab = append(sn.sLab[:0], p.sLab...)
	sn.sSafe = append(sn.sSafe[:0], p.sSafe...)
	sn.sMatch = append(sn.sMatch[:0], p.sMatch...)
	sn.touched = append(sn.touched[:0], p.touched...)
	sn.safeLen = len(p.gSafeList)
	sn.matched = p.matched
	sn.gLab = sn.gLab[:0]
	sn.gSafe = sn.gSafe[:0]
	sn.gMatch = sn.gMatch[:0]
	for _, v := range sn.touched {
		sn.gLab = append(sn.gLab, p.gLab[v])
		sn.gSafe = append(sn.gSafe, p.gSafe[v])
		sn.gMatch = append(sn.gMatch, p.gMatch[v])
	}
	return sn
}

// release returns the most recent snapshot to the pool; it must pair with
// save in LIFO order (which the guess recursion guarantees).
func (p *phase2) release() {
	p.snapDepth--
}

func (p *phase2) restore(sn *snapshot) {
	copy(p.sLab, sn.sLab)
	copy(p.sSafe, sn.sSafe)
	copy(p.sMatch, sn.sMatch)
	// Clear everything touched since the snapshot, then replay the
	// snapshot's values.
	for _, v := range p.touched {
		p.gLab[v] = 0
		p.gSafe[v] = false
		p.gMatch[v] = unmatched
		p.inTouched[v] = false
	}
	p.touched = p.touched[:0]
	for i, v := range sn.touched {
		p.inTouched[v] = true
		p.touched = append(p.touched, v)
		p.gLab[v] = sn.gLab[i]
		p.gSafe[v] = sn.gSafe[i]
		p.gMatch[v] = sn.gMatch[i]
	}
	p.gSafeList = p.gSafeList[:sn.safeLen]
	p.matched = sn.matched
}

// buildInstance converts the match arrays into an Instance.
func (p *phase2) buildInstance() *Instance {
	inst := &Instance{
		DevMap: make(map[*graph.Device]*graph.Device, p.pat.s.NumDevices()),
		NetMap: make(map[*graph.Net]*graph.Net, p.pat.s.NumNets()),
	}
	for _, d := range p.pat.s.Devices {
		gv := p.sMatch[p.sSpace.DevVID(d)]
		inst.DevMap[d] = p.gSpace.Device(gv)
	}
	for _, n := range p.pat.s.Nets {
		gv := p.sMatch[p.sSpace.NetVID(n)]
		inst.NetMap[n] = p.gSpace.Net(gv)
	}
	return inst
}
