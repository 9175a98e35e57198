package main

// The traced run (--trace 1).  It measures each layer without adding a
// single span inside the program, in three windows of half the run length:
//
//  1. an untraced handler window, as in --trace 0, for the overhead table;
//  2. a handler window on a daemon with FlightSampleN 1, after which the
//     benchmark reads the daemon's own timelines from /debug/requests/{id}
//     (queue wait, time no span covers) and differences /metrics (cache
//     hit ratios, spans per request) and the Go runtime counters;
//  3. a replay of the workload's op sequence straight through each layer's
//     public functions, in the order the handler's executeMatch and the
//     store's ApplyEdits call them, with the benchmark's own spans around
//     every call.  Like the handler windows, it starts warm: one request
//     per key (for eco, one sweep) runs before it and is left out.  The phase split and matcher counters come from the
//     stats.Report each run returns.  Spans stay in memory and are written
//     out as JSON lines when the run ends.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"subgemini/internal/core"
	"subgemini/internal/csr"
	"subgemini/internal/delta"
	"subgemini/internal/graph"
	"subgemini/internal/obs"
	"subgemini/internal/server"
	"subgemini/internal/stats"
	"subgemini/internal/stdcell"
	"subgemini/internal/store"
	"subgemini/internal/sweep"
)

// span is one timed call the replay made into a layer.  Spans of one op
// share Op; Parent is the ID of the enclosing span, -1 for an op's root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory.  Sweep workers call into the replay's
// result-cache hook concurrently, hence the lock.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	op    int
	spans []span
}

func (t *tracer) begin(name string, parent int) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: t.op, Name: name, Start: now})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// phase records a span known only by its duration, as a stats.Report gives
// the Phase I / Phase II split of a matcher run; it starts with its parent.
func (t *tracer) phase(name string, parent int, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	start := t.spans[parent].Start
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: t.op, Name: name, Start: start, End: start + d.Nanoseconds()})
}

// layerTime is the aggregate of one span name.
type layerTime struct {
	self []float64 // per call, ms: duration minus the child spans' durations
	wall []float64 // per call, ms
}

func (lt *layerTime) calls() int { return len(lt.self) }

func (lt *layerTime) selfPerCall() float64 { return sum(lt.self) / float64(max(1, len(lt.self))) }

func (lt *layerTime) wallPerCall() float64 { return sum(lt.wall) / float64(max(1, len(lt.wall))) }

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func (t *tracer) aggregate() map[string]*layerTime {
	children := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*layerTime{}
	for i, s := range t.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		lt.wall = append(lt.wall, float64(s.End-s.Start)/1e6)
		lt.self = append(lt.self, float64(s.End-s.Start-children[i])/1e6)
	}
	return out
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replay holds the layers the replay drives directly: its own store and
// result cache, the built-in pattern templates, and for eco its own mirror
// of the edited circuit and CSR view.
type replay struct {
	b   *bench
	tr  *tracer
	st  *store.Store
	dir string
	rc  *delta.ResultCache
	tpl map[string]*graph.Circuit
	buf bytes.Buffer

	reports  []stats.Report
	warmed   int // checked warm-up requests, outside every figure
	ops      int
	requests int
	failed   int
	errs     []error

	// eco
	eco           *eco
	expect        map[int]map[string]int // sweep counts the handler answered, by cycle
	mckt          *graph.Circuit
	mview         *core.CSR
	mver          uint64
	patches       int
	rebuilds      int
	logBytes      int64
	logEdits      int
	sweeps, dedup int
}

func (r *replay) fail(err error) {
	r.failed++
	if len(r.errs) < 3 {
		r.errs = append(r.errs, err)
	}
}

// newReplay uploads the workload's circuits into a fresh store, tracing
// the parse, the store insert and a CSR build.
func newReplay(b *bench, tr *tracer) (*replay, error) {
	r := &replay{b: b, tr: tr, rc: delta.NewResultCache(0), tpl: map[string]*graph.Circuit{}}
	if b.w.durable {
		dir, err := os.MkdirTemp(b.tmp, "replay-")
		if err != nil {
			return nil, err
		}
		r.dir = dir
	}
	st, err := store.Open(store.Config{Dir: r.dir, Globals: globals})
	if err != nil {
		return nil, err
	}
	r.st = st
	for _, cell := range stdcell.Names() {
		r.tpl[cell] = stdcell.Get(cell).Pattern()
	}
	for _, name := range b.w.circuits {
		root := tr.begin("setup", -1)
		sp := tr.begin("netlist.parse", root)
		ckt, err := parseCircuit(string(b.in.circuits[name].netlist), name)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		sp = tr.begin("store.put", root)
		_, err = st.Put(name, ckt)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		// The store builds its own view inside Put; this one, built after
		// Put marked the rails, is the mirror eco patches.
		sp = tr.begin("csr.build", root)
		view := core.NewCSR(ckt)
		tr.end(sp)
		tr.end(root)
		if name == ecoCircuit {
			r.mckt, r.mview, r.mver = ckt, view, 1
		}
	}
	if b.w.name == "eco" {
		r.eco = newEco(b.in.circuits[ecoCircuit].ckt, b.opts.seed)
	}
	return r, nil
}

// decode and encode are the handler's codec: encoding/json on the server's
// request and response types, indented as writeJSON writes them.
func (r *replay) decode(body []byte, v any, parent int) error {
	sp := r.tr.begin("json.decode", parent)
	defer r.tr.end(sp)
	r.requests++
	return json.NewDecoder(bytes.NewReader(body)).Decode(v)
}

// encode builds the response value (for a match, converting instances to
// name maps) and encodes it, all inside the codec span.
func (r *replay) encode(build func() any, parent int) error {
	sp := r.tr.begin("json.encode", parent)
	defer r.tr.end(sp)
	r.buf.Reset()
	enc := json.NewEncoder(&r.buf)
	enc.SetIndent("", "  ")
	return enc.Encode(build())
}

// lookup mirrors the handler's result-cache lookup: a capture at the
// current version replays with an identity dirty set, an older one through
// the composed steps since, anything else runs in full.
func (r *replay) lookup(h *store.Handle, pkey string, parent int) (*core.IncrementalState, *core.DirtySet) {
	ver, prev, ok := r.rc.Lookup(h.Name(), pkey)
	if !ok {
		return nil, nil
	}
	steps, cur, ok := r.st.StepsSince(h.Name(), ver)
	if !ok || cur != h.Version() {
		return nil, nil
	}
	if len(steps) == 0 {
		view := h.CSR()
		ds := &core.DirtySet{DevOld2New: make([]int32, view.NumDevs), NetOld2New: make([]int32, view.NumNets)}
		for i := range ds.DevOld2New {
			ds.DevOld2New[i] = int32(i)
		}
		for i := range ds.NetOld2New {
			ds.NetOld2New[i] = int32(i)
		}
		return prev, ds
	}
	sp := r.tr.begin("delta.compose", parent)
	ds, err := delta.Compose(steps)
	r.tr.end(sp)
	if err != nil {
		return nil, nil
	}
	return prev, ds
}

func patternGlobals(pats ...*graph.Circuit) []string {
	var names []string
	for _, p := range pats {
		for _, n := range p.Globals() {
			names = append(names, n.Name)
		}
	}
	return names
}

// matchOp replays one POST /v1/match as executeMatch runs it, and checks
// the answer it encodes against the key's checked warm-up answer.
func (r *replay) matchOp(i int) error {
	k := &r.b.in.keys[i]
	tr := r.tr
	root := tr.begin("op", -1)
	defer tr.end(root)
	var req server.MatchRequest
	if err := r.decode(k.body, &req, root); err != nil {
		return err
	}
	sp := tr.begin("pattern.clone", root)
	pat := r.tpl[req.Pattern].Clone()
	tr.end(sp)
	sp = tr.begin("store.acquire", root)
	h, err := r.st.Acquire(req.Circuit)
	tr.end(sp)
	if err != nil {
		return err
	}
	defer h.Release()
	opts := core.Options{Cancel: context.Background().Err, Scratch: h.Scratch(), CSR: h.CSR()}
	if req.NonOverlap {
		opts.Policy = core.NonOverlapping
	}
	h.RLockWithGlobals(patternGlobals(pat))
	sp = tr.begin("delta.pattern_key", root)
	pkey := delta.PatternKey(pat, opts)
	tr.end(sp)
	prev, ds := r.lookup(h, pkey, root)
	sp = tr.begin("core.new_matcher", root)
	m, err := core.NewMatcher(h.Circuit(), opts)
	tr.end(sp)
	if err != nil {
		h.RUnlock()
		return err
	}
	fsp := tr.begin("core.find", root)
	res, next, err := m.FindIncremental(pat, prev, ds)
	tr.end(fsp)
	if err == nil {
		r.rc.Store(h.Name(), pkey, h.Version(), next)
	}
	h.RUnlock()
	if err != nil {
		return err
	}
	tr.phase("core.phase1", fsp, res.Report.Phase1Duration)
	tr.phase("core.phase2", fsp, res.Report.Phase2Duration)
	r.reports = append(r.reports, res.Report)
	err = r.encode(func() any {
		return server.MatchResponse{
			Circuit: h.Name(), Pattern: pat.Name, Count: len(res.Instances),
			Instances: instancesJSON(res.Instances), Stats: statsJSON(&res.Report), Version: h.Version(),
			Incremental: &server.IncrementalJSON{Mode: res.Report.IncrementalMode, Replayed: res.Report.Replayed, Recomputed: res.Report.Recomputed},
		}
	}, root)
	if err != nil {
		return err
	}
	count, sum, err := matchDigest(r.buf.Bytes())
	if err != nil {
		return err
	}
	if ref := r.b.ref[i]; count != ref.count || sum != ref.sum {
		return fmt.Errorf("replay %s/%s: answer differs from the checked warm-up answer (count %d vs %d)", k.circuit, k.pattern, count, ref.count)
	}
	return nil
}

// ecoOp replays one edit cycle: the PATCH as ApplyEdits runs it, then the
// library sweep as executeSweep runs it, whose counts must equal the
// handler's checked sweep of the same cycle.
func (r *replay) ecoOp() error {
	cycle := r.eco.cycle
	ops := r.eco.edits.next(cycle)
	r.eco.cycle++
	root := r.tr.begin("op", -1)
	defer r.tr.end(root)
	if err := r.patchOp(ops, root); err != nil {
		return err
	}
	counts, err := r.sweepOp(root)
	if err != nil {
		return err
	}
	if want, ok := r.expect[cycle]; ok {
		for _, cell := range ecoLibrary {
			if counts[cell] != want[cell] {
				return fmt.Errorf("replay cycle %d: %s count %d, the checked handler answer %d", cycle, cell, counts[cell], want[cell])
			}
		}
	}
	return nil
}

// patchOp replays one PATCH as ApplyEdits runs it: clone, delta.Apply,
// csr.Patch on the replay's own mirror, then the store's ApplyEdits itself,
// whose write-ahead log growth is measured on disk.
func (r *replay) patchOp(ops []delta.Op, root int) error {
	tr := r.tr
	patch, err := json.Marshal(server.PatchRequest{Ops: ops})
	if err != nil {
		return err
	}
	var preq server.PatchRequest
	if err := r.decode(patch, &preq, root); err != nil {
		return err
	}
	sp := tr.begin("graph.clone", root)
	clone := r.mckt.Clone()
	tr.end(sp)
	sp = tr.begin("delta.apply", root)
	step, err := delta.Apply(clone, r.mver+1, preq.Ops)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("csr.patch", root)
	view, rebuilt := csr.Patch(r.mview, clone, csr.Remap{Dev: step.DevOld2New, Net: step.NetOld2New}, step.DirtyDevs, step.DirtyNets)
	tr.end(sp)
	r.mckt, r.mview, r.mver = clone, view, r.mver+1
	r.patches++
	if rebuilt {
		r.rebuilds++
	}
	logPath := filepath.Join(r.dir, "circuits", ecoCircuit+".log")
	before := fileSize(logPath)
	sp = tr.begin("store.apply_edits", root)
	info, err := r.st.ApplyEdits(ecoCircuit, preq.Ops)
	tr.end(sp)
	if err != nil {
		return err
	}
	if after := fileSize(logPath); after > before {
		r.logBytes += after - before
		r.logEdits++
	}
	return r.encode(func() any {
		return server.PatchResponse{Circuit: server.CircuitInfo{Key: info.Name, Name: info.Display, Devices: info.Devices,
			Nets: info.Nets, Globals: info.Globals, Version: info.Version, Resident: info.Resident, Snapshot: info.Snapshot}, Applied: len(preq.Ops)}
	}, root)
}

// sweepOp replays one library sweep as executeSweep runs it and returns
// its counts.
func (r *replay) sweepOp(root int) (map[string]int, error) {
	tr := r.tr
	var sreq server.SweepRequest
	if err := r.decode(r.eco.sweep, &sreq, root); err != nil {
		return nil, err
	}
	sp := tr.begin("pattern.clone", root)
	lib := make([]sweep.Pattern, len(ecoLibrary))
	pats := make([]*graph.Circuit, len(ecoLibrary))
	for i, name := range ecoLibrary {
		pats[i] = r.tpl[name].Clone()
		lib[i] = sweep.Pattern{Name: name, Template: pats[i]}
	}
	tr.end(sp)
	sp = tr.begin("store.acquire", root)
	h, err := r.st.Acquire(sreq.Circuit)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	defer h.Release()
	names := patternGlobals(pats...)
	h.RLockWithGlobals(names)
	ssp := tr.begin("sweep.run", root)
	rep, err := sweep.Run(h.Circuit(), lib, sweep.Options{
		Globals: names, Cancel: context.Background().Err, CSR: h.CSR(), Scratch: h.Scratch(),
		Incremental: &replayHook{r: r, h: h, parent: ssp},
	})
	tr.end(ssp)
	h.RUnlock()
	if err != nil {
		return nil, err
	}
	r.sweeps++
	r.dedup += rep.Deduped
	counts := map[string]int{}
	for i := range rep.Results {
		pr := &rep.Results[i]
		counts[pr.Name] = len(pr.Instances)
		if pr.Alias == "" {
			tr.phase("core.phase1", ssp, pr.Report.Phase1Duration)
			tr.phase("core.phase2", ssp, pr.Report.Phase2Duration)
			r.reports = append(r.reports, pr.Report)
		}
	}
	err = r.encode(func() any {
		resp := server.SweepResponse{Circuit: h.Name(), Library: sreq.Library, Patterns: len(rep.Results), Runs: rep.Runs,
			Deduped: rep.Deduped, Count: rep.Instances(), DurationMicros: rep.Duration.Microseconds(),
			Version: h.Version(), Replayed: rep.Replayed, Recomputed: rep.Recomputed}
		for i := range rep.Results {
			pr := &rep.Results[i]
			resp.Results = append(resp.Results, server.SweepPatternJSON{Pattern: pr.Name, Alias: pr.Alias, Count: len(pr.Instances), Stats: statsJSON(&pr.Report)})
		}
		return resp
	}, root)
	return counts, err
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// replayHook is the replay's sweep.Incremental, shaped like the handler's:
// pattern keys and composed steps against the replay's own result cache.
type replayHook struct {
	r      *replay
	h      *store.Handle
	parent int
}

func (hk *replayHook) key(pat *graph.Circuit, opts core.Options) string {
	sp := hk.r.tr.begin("delta.pattern_key", hk.parent)
	defer hk.r.tr.end(sp)
	return delta.PatternKey(pat, opts)
}

func (hk *replayHook) Lookup(pat *graph.Circuit, opts core.Options) (*core.IncrementalState, *core.DirtySet, bool) {
	prev, ds := hk.r.lookup(hk.h, hk.key(pat, opts), hk.parent)
	return prev, ds, prev != nil
}

func (hk *replayHook) Store(pat *graph.Circuit, opts core.Options, st *core.IncrementalState) {
	hk.r.rc.Store(hk.h.Name(), hk.key(pat, opts), hk.h.Version(), st)
}

// statsJSON and instancesJSON build the handler's wire forms.  The
// handler's own converters are unexported, so these repeat them field for
// field; the replay's answers must encode to the handler's exact bytes,
// which matchOp checks against the handler's checked warm-up answers.
func statsJSON(r *stats.Report) server.StatsJSON {
	return server.StatsJSON{
		Instances: r.Instances, MatchedDevices: r.MatchedDevices, CVSize: r.CVSize, KeyVertex: r.KeyVertex,
		Candidates: r.Candidates, Phase1Passes: r.Phase1Passes, Phase2Passes: r.Phase2Passes,
		Guesses: r.Guesses, Backtracks: r.Backtracks,
		Phase1Micros: r.Phase1Duration.Microseconds(), Phase2Micros: r.Phase2Duration.Microseconds(),
		RegionRadius: r.RegionRadius, RegionMaxSize: r.RegionMaxSize, RegionVertices: r.RegionBallSum,
		IncrementalMode: r.IncrementalMode, Replayed: r.Replayed, Recomputed: r.Recomputed,
	}
}

func instancesJSON(insts []*core.Instance) []server.InstanceJSON {
	out := make([]server.InstanceJSON, 0, len(insts))
	for _, inst := range insts {
		ji := server.InstanceJSON{Devices: make(map[string]string), Nets: make(map[string]string)}
		for sd, gd := range inst.DevMap {
			ji.Devices[sd.Name] = gd.Name
		}
		for sn, gn := range inst.NetMap {
			ji.Nets[sn.Name] = gn.Name
		}
		out = append(out, ji)
	}
	return out
}

// warm sends one request per key (for eco, one library sweep on the
// uploaded circuit) before the measured replay, as boot warms the handler,
// so every key's capture sits in the replay's result cache and no cold
// full match lands in the per-layer figures.  Its answers are checked; its
// spans, reports and counters are dropped.
func (r *replay) warm() {
	mark := len(r.tr.spans)
	if r.eco != nil {
		root := r.tr.begin("op", -1)
		counts, err := r.sweepOp(root)
		r.tr.end(root)
		if err == nil {
			err = r.b.checkLibrary(counts)
		}
		r.warmed++
		if err != nil {
			r.fail(fmt.Errorf("replay warm-up sweep: %w", err))
		}
	} else {
		for i := range r.b.in.keys {
			r.warmed++
			if err := r.matchOp(i); err != nil {
				r.fail(fmt.Errorf("replay warm-up: %w", err))
			}
		}
	}
	r.tr.spans = r.tr.spans[:mark]
	r.reports, r.requests, r.sweeps, r.dedup = nil, 0, 0, 0
}

// run replays the workload's op sequence for the given time: lookup and
// extract alternate between the two clients' seeded key sequences.
func (r *replay) run(seconds float64) time.Duration {
	var draw []func() int
	for id := 0; id < r.b.w.clients && r.eco == nil; id++ {
		d := newDrawer(r.b, id)
		draw = append(draw, d)
	}
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for time.Now().Before(deadline) {
		r.tr.op = r.ops
		var err error
		if r.eco != nil {
			err = r.ecoOp()
		} else {
			err = r.matchOp(draw[r.ops%len(draw)]())
		}
		r.ops++
		if err != nil {
			r.fail(err)
		}
	}
	return time.Since(start)
}

// handlerTrace is what the FlightSampleN 1 window leaves behind.
type handlerTrace struct {
	win          *window
	requests     int
	bytes        int64
	timelines    int
	unattributed float64 // share of request time inside no span
	queueWaitMS  float64 // per request
	metrics      map[string]float64
}

// scrapeMetrics reads /metrics, summing every label variant of a series.
func scrapeMetrics(cl *client) (map[string]float64, error) {
	if _, err := cl.do("GET", "/metrics", nil); err != nil {
		return nil, err
	}
	if err := cl.expect(200); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(cl.w.body.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		name := line[:i]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			name = name[:j]
		}
		out[name] += v
	}
	return out, nil
}

// timelineSample is how many of the last request IDs the benchmark reads
// back; it stays below the flight recorder's default ring of 256 so the
// recorder's own answers to /metrics and /debug do not evict them first.
const timelineSample = 200

// traceHandler runs the workload's window on a daemon with FlightSampleN
// 1 and reads back the daemon's timelines and counters.
func (b *bench) traceHandler(d *daemon) (*handlerTrace, error) {
	ht := &handlerTrace{}
	var mu sync.Mutex
	var ids []string
	answered := func(id string, size int) {
		mu.Lock()
		ht.requests++
		ht.bytes += int64(size)
		ids = append(ids, id)
		if len(ids) > 2*timelineSample {
			ids = append(ids[:0], ids[len(ids)-timelineSample:]...)
		}
		mu.Unlock()
	}
	cl := newClient(d.srv)
	m0, err := scrapeMetrics(cl)
	if err != nil {
		return nil, err
	}
	ht.win = closedLoop(b.w.clients, b.opts.seconds/2, b.ops(d, answered))
	m1, err := scrapeMetrics(cl)
	if err != nil {
		return nil, err
	}
	ht.metrics = map[string]float64{}
	for k, v := range m1 {
		ht.metrics[k] = v - m0[k]
	}
	if len(ids) > timelineSample {
		ids = ids[len(ids)-timelineSample:]
	}
	var total, uncovered, queue float64
	for _, id := range ids {
		if _, err := cl.do("GET", "/debug/requests/"+id, nil); err != nil {
			return nil, err
		}
		if cl.w.status == 404 {
			continue // evicted from the ring
		}
		var detail struct {
			Timelines []obs.TimelineJSON `json:"timelines"`
		}
		if err := json.Unmarshal(cl.w.body.Bytes(), &detail); err != nil {
			return nil, fmt.Errorf("decoding timeline %s: %w", id, err)
		}
		for _, tl := range detail.Timelines {
			ht.timelines++
			total += float64(tl.DurationUS)
			uncovered += float64(tl.DurationUS) - covered(tl.Spans, tl.DurationUS)
			for _, s := range tl.Spans {
				if s.Kind == obs.KindQueueWait {
					queue += float64(s.DurUS) / 1000
				}
			}
		}
	}
	if ht.timelines == 0 {
		return nil, fmt.Errorf("no timeline of the last %d requests was kept", len(ids))
	}
	ht.unattributed = uncovered / total
	ht.queueWaitMS = queue / float64(ht.timelines)
	return ht, nil
}

// covered is the length of the union of the spans' intervals, clipped to
// the request, in microseconds.
func covered(spans []obs.SpanJSON, durUS int64) float64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		ivs = append(ivs, iv{s.StartUS, min(s.StartUS+s.DurUS, durUS)})
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var cov, end int64 = 0, -1
	for _, v := range ivs {
		if v.a > end {
			cov += max(0, v.b-v.a)
			end = v.b
		} else if v.b > end {
			cov += v.b - end
			end = v.b
		}
	}
	return float64(cov)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// traced runs the three passes and prints the per-layer metrics, the
// tracing overhead, and the span file's path.
func (b *bench) traced() (*result, error) {
	// 1. Untraced window.
	d, err := b.boot(0)
	if err != nil {
		return nil, err
	}
	plain := closedLoop(b.w.clients, b.opts.seconds/2, b.ops(d, nil))
	b.verifyAfter(d, plain)
	d.close()

	// 2. Handler window with every timeline kept.
	d, err = b.boot(1)
	if err != nil {
		return nil, err
	}
	ht, err := b.traceHandler(d)
	if err != nil {
		d.close()
		return nil, err
	}
	b.verifyAfter(d, ht.win)
	d.close()

	// 3. Layer replay.
	tr := &tracer{t0: time.Now()}
	r, err := newReplay(b, tr)
	if err != nil {
		return nil, err
	}
	if d.eco != nil {
		r.expect = map[int]map[string]int{}
		for _, rec := range d.eco.records {
			r.expect[rec.cycle] = rec.counts
		}
	}
	r.warm()
	elapsed := r.run(b.opts.seconds / 2)
	if err := r.st.Close(); err != nil {
		return nil, err
	}

	res := b.result(&window{
		ops:    plain.ops + ht.win.ops + r.warmed + r.ops,
		failed: plain.failed + ht.win.failed + r.failed,
		errs:   append(append(plain.errs, ht.win.errs...), r.errs...),
	})
	res.Metrics = b.layerMetrics(r, ht)
	printOverhead(plain, ht.win, tr.aggregate()["op"].wall, r.ops, elapsed)
	printLayers(tr, res.Metrics)
	path := filepath.Join(b.opts.workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", b.w.name, b.opts.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Printf("spans: %d written to %s\n", len(tr.spans), path)
	return res, nil
}

// layerMetrics turns the replay's spans and reports and the handler
// window's timelines and counters into the per-layer metrics.  A layer the
// workload does not reach reads 0.
func (b *bench) layerMetrics(r *replay, ht *handlerTrace) map[string]metric {
	agg := r.tr.aggregate()
	get := func(name string) *layerTime {
		if lt := agg[name]; lt != nil {
			return lt
		}
		return &layerTime{}
	}
	var rep stats.Report
	var p1, p2 time.Duration
	for i := range r.reports {
		x := &r.reports[i]
		p1 += x.Phase1Duration
		p2 += x.Phase2Duration
		rep.CVSize += x.CVSize
		rep.Instances += x.Instances
		rep.RegionBallSum += x.RegionBallSum
		rep.Candidates += x.Candidates
		rep.MatchedDevices += x.MatchedDevices
		rep.Guesses += x.Guesses
		rep.Backtracks += x.Backtracks
		rep.Replayed += x.Replayed
		rep.Recomputed += x.Recomputed
	}
	runs := float64(max(1, len(r.reports)))
	ops := float64(max(1, r.ops))
	m := ht.metrics
	win := ht.win
	codec := sum(get("json.decode").self) + sum(get("json.encode").self)
	ms := map[string]metric{
		"server.unattributed_share":      {ht.unattributed, "ratio"},
		"server.codec_ms":                {ratio(codec, float64(r.requests)), "ms"},
		"server.response_kb":             {float64(ht.bytes) / 1024 / float64(max(1, ht.requests)), "KB"},
		"server.queue_wait_ms":           {ht.queueWaitMS, "ms"},
		"server.pattern_cache_hit_ratio": {ratio(m["subgeminid_pattern_cache_hits_total"], m["subgeminid_pattern_cache_hits_total"]+m["subgeminid_pattern_cache_misses_total"]), "ratio"},
		"store.put_ms":                   {get("store.put").selfPerCall(), "ms"},
		"store.acquire_us":               {get("store.acquire").selfPerCall() * 1000, "us"},
		"store.apply_edits_ms":           {get("store.apply_edits").selfPerCall(), "ms"},
		"store.log_bytes_per_edit":       {ratio(float64(r.logBytes), float64(r.logEdits)), "bytes"},
		"netlist.parse_ms":               {get("netlist.parse").selfPerCall(), "ms"},
		"graph.clone_ms":                 {get("graph.clone").selfPerCall(), "ms"},
		"csr.build_ms":                   {get("csr.build").selfPerCall(), "ms"},
		"csr.patch_ms":                   {get("csr.patch").selfPerCall(), "ms"},
		"csr.rebuild_ratio":              {ratio(float64(r.rebuilds), float64(r.patches)), "ratio"},
		"core.setup_ms":                  {get("core.new_matcher").selfPerCall(), "ms"},
		"core.phase1_ms":                 {float64(p1) / 1e6 / runs, "ms"},
		"core.phase2_ms":                 {float64(p2) / 1e6 / runs, "ms"},
		"core.candidates_per_instance":   {ratio(float64(rep.CVSize), float64(rep.Instances)), "ratio"},
		"core.region_avg_vertices":       {ratio(float64(rep.RegionBallSum), float64(rep.Candidates)), "count"},
		"core.us_per_matched_device":     {ratio(float64(p1+p2)/1e3, float64(rep.MatchedDevices)), "us"},
		"core.guesses_per_op":            {float64(rep.Guesses) / ops, "count"},
		"core.backtracks_per_op":         {float64(rep.Backtracks) / ops, "count"},
		"core.replayed_share":            {ratio(float64(rep.Replayed), float64(rep.Replayed+rep.Recomputed)), "ratio"},
		"delta.apply_ms":                 {get("delta.apply").selfPerCall(), "ms"},
		"delta.compose_ms":               {get("delta.compose").selfPerCall(), "ms"},
		"delta.pattern_key_us":           {get("delta.pattern_key").selfPerCall() * 1000, "us"},
		"delta.result_cache_hit_ratio":   {ratio(m["subgeminid_result_cache_hits_total"], m["subgeminid_result_cache_hits_total"]+m["subgeminid_result_cache_misses_total"]), "ratio"},
		"sweep.run_ms":                   {get("sweep.run").wallPerCall(), "ms"},
		"sweep.deduped":                  {ratio(float64(r.dedup), float64(r.sweeps)), "count"},
		"obs.spans_per_request":          {ratio(m["subgeminid_request_spans_total"], m["subgeminid_requests_total"]), "count"},
		"runtime.gc_cpu_share":           {ratio(win.after.gcCPU-win.before.gcCPU, win.after.totalCPU-win.before.totalCPU), "ratio"},
		"runtime.gc_cycles_per_op":       {float64(win.after.gcCycles-win.before.gcCycles) / float64(max(1, win.ops)), "count"},
	}
	return ms
}

// printOverhead sets the traced figures beside the untraced ones.
func printOverhead(plain, traced *window, replayLat []float64, replayOps int, replayWall time.Duration) {
	p0, p1 := quantile(plain.lat, 0.5), quantile(traced.lat, 0.5)
	t0, t1 := plain.throughput(), traced.throughput()
	fmt.Println("tracing overhead (handler windows; the replay runs one op at a time):")
	fmt.Printf("  %-16s %12s %12s %9s %12s\n", "metric", "untraced", "traced", "diff", "replay")
	fmt.Printf("  %-16s %12.4f %12.4f %+8.1f%% %12.4f\n", "latency_p50_ms", p0, p1, 100*(p1-p0)/p0, quantile(replayLat, 0.5))
	fmt.Printf("  %-16s %12.4f %12.4f %+8.1f%% %12.4f\n", "throughput_ops", t0, t1, 100*(t1-t0)/t0, float64(replayOps)/replayWall.Seconds())
}

// printLayers prints every per-layer metric with the calls behind it.
func printLayers(tr *tracer, ms map[string]metric) {
	printMetrics("per-layer metrics:", ms)
	agg := tr.aggregate()
	names := make([]string, 0, len(agg))
	for n := range agg {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println("replay spans, ms per call (self = wall minus child spans):")
	fmt.Printf("  %-20s %8s %10s %10s %10s %12s\n", "span", "calls", "self mean", "self p50", "wall mean", "self total")
	for _, n := range names {
		lt := agg[n]
		self := append([]float64(nil), lt.self...)
		fmt.Printf("  %-20s %8d %10.4f %10.4f %10.4f %12.2f\n", n, lt.calls(), lt.selfPerCall(), median(self), lt.wallPerCall(), sum(lt.self))
	}
	if agg["sweep.run"] != nil && runtime.GOMAXPROCS(0) > 1 {
		fmt.Println("  (sweep.run matches its patterns on GOMAXPROCS workers, so its phase children overlap and its self time can read below 0; sweep.run_ms is its wall time)")
	}
}
