package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"subgemini/internal/server"
)

// An untraced run boots and loads a daemon at least minSetups times and
// until setupBudget has passed (at most maxSetups).  setup_s is the
// median, and the last daemon is the one measured.  Set-up writes and
// fsyncs snapshots, so a single boot's time is noisy.
const (
	minSetups   = 5
	maxSetups   = 15
	setupBudget = 3 * time.Second
)

// zipfS is the skew of the lookup workload's key popularity, and zipfDeck
// the number of draws over which its Zipf shares hold exactly.
const (
	zipfS    = 1.1
	zipfDeck = 1000
)

// bench is one run: the workload, its seeded inputs, and the answers every
// key gave at warm-up, which later answers must repeat.
type bench struct {
	opts options
	w    *workloadDef
	in   *inputs
	tmp  string // removed when the run ends

	ref      []keyRef
	attempts int // checked warm-up requests
	failures int // warm-up requests answered wrongly
	errs     []error
}

// keyRef is a key's checked warm-up answer.
type keyRef struct {
	count int
	sum   uint32
	set   bool
}

func (b *bench) fail(err error) {
	b.failures++
	if len(b.errs) < 5 {
		b.errs = append(b.errs, err)
	}
}

// daemon is one booted and loaded handler.
type daemon struct {
	srv   *server.Server
	dir   string        // data dir, removed on close ("" for memory-only)
	setup time.Duration // server.New, PUTs and warm-ups, handler time only
	eco   *eco
}

// close shuts the daemon down and removes its data dir, so every boot of a
// run starts from the same disk state.
func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d.srv.Close(ctx)
	if d.dir != "" {
		os.RemoveAll(d.dir)
	}
}

// boot builds a daemon with the default configuration plus the rails,
// uploads the workload's circuits (and, for eco, the library), and sends
// one warm-up request per key.  Only time inside server.New and ServeHTTP
// counts as set-up; checking the warm-up answers does not.
func (b *bench) boot(flightSampleN int) (*daemon, error) {
	cfg := server.Config{Globals: globals, FlightSampleN: flightSampleN}
	if b.w.durable {
		dir, err := os.MkdirTemp(b.tmp, "data-")
		if err != nil {
			return nil, err
		}
		cfg.DataDir = dir
	}
	t0 := time.Now()
	srv, err := server.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("server.New: %w", err)
	}
	d := &daemon{srv: srv, dir: cfg.DataDir, setup: time.Since(t0)}
	cl := newClient(srv)
	send := func(method, path string, body []byte) error {
		dur, err := cl.do(method, path, body)
		d.setup += dur
		if err != nil {
			return err
		}
		return cl.expect(200)
	}
	for _, name := range b.w.circuits {
		if err := send("PUT", "/v1/circuits/"+name, b.in.circuits[name].netlist); err != nil {
			d.close()
			return nil, fmt.Errorf("uploading %s: %w", name, err)
		}
	}
	if b.w.name == "eco" {
		lib, _ := json.Marshal(server.LibraryRequest{Patterns: ecoLibrary})
		if err := send("PUT", "/v1/libraries/eco", lib); err != nil {
			d.close()
			return nil, fmt.Errorf("uploading library: %w", err)
		}
		d.eco = newEco(b.in.circuits[ecoCircuit].ckt, b.opts.seed)
		dur, counts, err := d.eco.doSweep(cl)
		d.setup += dur
		b.attempts++
		if err == nil {
			err = b.checkLibrary(counts)
		}
		if err != nil {
			b.fail(fmt.Errorf("warm-up sweep: %w", err))
		}
		return d, nil
	}
	for i := range b.in.keys {
		k := &b.in.keys[i]
		err := send("POST", "/v1/match", k.body)
		b.attempts++
		if err == nil {
			err = b.checkWarm(i, cl.w.body.Bytes())
		}
		if err != nil {
			b.fail(fmt.Errorf("warm-up %s/%s: %w", k.circuit, k.pattern, err))
		}
	}
	return d, nil
}

// checkWarm fully checks a key's warm-up answer against the oracle and
// records its digest; the first daemon's digest is the reference for every
// later answer to the key, on every daemon of the run.
func (b *bench) checkWarm(i int, body []byte) error {
	if err := checkMatch(body, b.in.keys[i].oracle, b.w.name == "extract"); err != nil {
		return err
	}
	count, sum, err := matchDigest(body)
	if err != nil {
		return err
	}
	if b.ref == nil {
		b.ref = make([]keyRef, len(b.in.keys))
	}
	if r := b.ref[i]; r.set && (r.count != count || r.sum != sum) {
		return fmt.Errorf("answer differs from the first daemon's (count %d vs %d)", count, r.count)
	}
	b.ref[i] = keyRef{count: count, sum: sum, set: true}
	return nil
}

// checkLibrary compares sweep counts on the uploaded circuit with the oracle.
func (b *bench) checkLibrary(counts map[string]int) error {
	c := b.in.circuits[ecoCircuit]
	for _, cell := range ecoLibrary {
		if counts[cell] != c.oracle[cell].count {
			return fmt.Errorf("%s: sweep %d, baseline %d", cell, counts[cell], c.oracle[cell].count)
		}
	}
	return nil
}

// ops returns the workload's closed-loop op for daemon d.  lookup and
// extract clients draw keys from their own seeded generators; in-window
// answers are checked by count and instance checksum against the key's
// checked warm-up answer.  answered, when set, sees every answer (see
// client.answered).
func (b *bench) ops(d *daemon, answered func(id string, size int)) opFunc {
	n := b.w.clients
	clients := make([]*client, n)
	draw := make([]func() int, n)
	for id := 0; id < n; id++ {
		clients[id] = newClient(d.srv)
		clients[id].answered = answered
	}
	if b.w.name == "eco" {
		return func(int) (time.Duration, error) { return d.eco.op(clients[0]) }
	}
	for id := 0; id < n; id++ {
		draw[id] = newDrawer(b, id)
	}
	return func(id int) (time.Duration, error) {
		cl := clients[id]
		i := draw[id]()
		k := &b.in.keys[i]
		dur, err := cl.do("POST", "/v1/match", k.body)
		if err != nil {
			return dur, err
		}
		if err := cl.expect(200); err != nil {
			return dur, fmt.Errorf("%s/%s: %w", k.circuit, k.pattern, err)
		}
		count, sum, err := matchDigest(cl.w.body.Bytes())
		if err != nil {
			return dur, err
		}
		if r := b.ref[i]; count != r.count || sum != r.sum {
			return dur, fmt.Errorf("%s/%s: answer differs from its checked warm-up answer (count %d vs %d)", k.circuit, k.pattern, count, r.count)
		}
		return dur, nil
	}
}

// newDrawer returns client id's key sequence, a pure function of the seed:
// Zipf-skewed over the fixed rank order for lookup, uniform for extract,
// both dealt from decks (see deck).
func newDrawer(b *bench, id int) func() int {
	rng := rand.New(rand.NewSource(b.opts.seed*7919 + int64(id)))
	cards := ranks(len(b.in.keys))
	if b.w.name == "lookup" {
		cards = zipfCards(len(b.in.keys), zipfS, zipfDeck)
	}
	return newDeck(rng, cards).draw
}

// verifyAfter runs the checks deferred past the window (eco's baseline
// runs on the edited copy) and returns the failed op count they add.
func (b *bench) verifyAfter(d *daemon, win *window) {
	if d.eco == nil {
		return
	}
	failed, err := d.eco.verify(b.in.circuits[ecoCircuit])
	if err != nil {
		win.errs = append(win.errs, err)
	}
	win.failed += failed
	if win.failed > win.ops {
		win.failed = win.ops
	}
}

// untraced is the end-to-end run: set up several times, measure the last
// daemon, check every answer.
func (b *bench) untraced() (*result, error) {
	base := liveHeapAfterGC()
	var setups []float64
	var d *daemon
	start := time.Now()
	for len(setups) < minSetups || (len(setups) < maxSetups && time.Since(start) < setupBudget) {
		if d != nil {
			d.close()
			d = nil
			runtime.GC()
		}
		var err error
		if d, err = b.boot(0); err != nil {
			return nil, err
		}
		setups = append(setups, d.setup.Seconds())
	}
	win := closedLoop(b.w.clients, b.opts.seconds, b.ops(d, nil))
	live := liveHeapAfterGC()
	runtime.KeepAlive(d)
	b.verifyAfter(d, win)
	d.close()

	res := b.result(win)
	res.Metrics = map[string]metric{
		"throughput_ops":  {win.throughput(), "ops/s"},
		"latency_p50_ms":  {quantile(win.lat, 0.5), "ms"},
		"latency_p90_ms":  {quantile(win.lat, 0.9), "ms"},
		"ok_ratio":        {1 - float64(res.Failed)/float64(res.Attempted), "ratio"},
		"setup_s":         {median(setups), "s"},
		"cpu_ms_per_op":   {win.cpuMSPerOp(), "ms"},
		"alloc_kb_per_op": {win.allocKBPerOp(), "KB"},
		"heap_live_mb":    {(float64(live) - float64(base)) / (1 << 20), "MB"},
	}
	fmt.Printf("window: %d ops by %d client(s) in %.2fs; %d set-ups\n", win.ops, b.w.clients, win.wall.Seconds(), len(setups))
	printMetrics("end-to-end metrics:", res.Metrics)
	return res, nil
}

// result folds the warm-up checks and a window into the result line, and
// prints the first failures.
func (b *bench) result(win *window) *result {
	res := &result{
		Attempted: b.attempts + win.ops,
		Failed:    b.failures + win.failed,
	}
	res.Correct = res.Failed == 0
	for _, err := range append(b.errs, win.errs...) {
		fmt.Println("FAILED:", err)
	}
	fmt.Printf("checked: %d attempted, %d failed (failed_ratio %.4f)\n", res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
	return res
}
