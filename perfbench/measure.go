package main

import (
	"math"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// runtimeSample is a snapshot of the process counters a window differences.
type runtimeSample struct {
	at       time.Time
	cpu      time.Duration // user + system CPU of the process
	allocs   uint64        // cumulative heap bytes allocated
	gcCycles uint64
	gcCPU    float64 // seconds of GC CPU (runtime estimate)
	totalCPU float64 // seconds of CPU (runtime estimate)
	heapLive uint64  // live heap marked by the last GC
}

var sampleNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/live:bytes",
}

func sampleRuntime() runtimeSample {
	ms := make([]metrics.Sample, len(sampleNames))
	for i, n := range sampleNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return runtimeSample{
		at:       time.Now(),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs:   ms[0].Value.Uint64(),
		gcCycles: ms[1].Value.Uint64(),
		gcCPU:    ms[2].Value.Float64(),
		totalCPU: ms[3].Value.Float64(),
		heapLive: ms[4].Value.Uint64(),
	}
}

// liveHeapAfterGC forces two collections and returns the live heap the
// second one marked.  The first empties every sync.Pool into its victim
// cache and the second frees that cache, so pooled scratch that happens
// to be parked when the run ends does not count.
func liveHeapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	return sampleRuntime().heapLive
}

// window is the outcome of one closed-loop measurement.
type window struct {
	ops, failed int
	lat         []float64 // per-op latency, ms
	wall        time.Duration
	before      runtimeSample
	after       runtimeSample
	errs        []error // the first few failures
}

// opFunc runs one op for client id and returns its timed duration.
type opFunc func(id int) (time.Duration, error)

// closedLoop runs n clients, each sending its next op only after the last
// one answered, until the deadline passes.
func closedLoop(n int, seconds float64, op opFunc) *window {
	w := &window{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	w.before = sampleRuntime()
	deadline := w.before.at.Add(time.Duration(seconds * float64(time.Second)))
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			var lat []float64
			var errs []error
			failed := 0
			for time.Now().Before(deadline) {
				d, err := op(id)
				lat = append(lat, float64(d)/1e6)
				if err != nil {
					failed++
					if len(errs) < 3 {
						errs = append(errs, err)
					}
				}
			}
			mu.Lock()
			w.lat = append(w.lat, lat...)
			w.ops += len(lat)
			w.failed += failed
			w.errs = append(w.errs, errs...)
			mu.Unlock()
		}(id)
	}
	wg.Wait()
	w.after = sampleRuntime()
	w.wall = w.after.at.Sub(w.before.at)
	return w
}

func (w *window) throughput() float64 { return float64(w.ops) / w.wall.Seconds() }

func (w *window) cpuMSPerOp() float64 {
	return float64(w.after.cpu-w.before.cpu) / 1e6 / float64(w.ops)
}

func (w *window) allocKBPerOp() float64 {
	return float64(w.after.allocs-w.before.allocs) / 1024 / float64(w.ops)
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// commitID names the checked-out commit, or "unknown" outside a git
// checkout.
func commitID() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
