// Command perfbench is the repository benchmark.  It boots the subgeminid
// HTTP handler (internal/server) in process, loads seeded generated circuits
// over PUT, drives one closed-loop workload through ServeHTTP, checks every
// answer against the independent internal/baseline matcher, and prints its
// metrics by name with units.  The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload lookup --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload eco --seed 1 --seconds 30 --trace 1
//	bash perfbench/run.sh envelope --workload extract --runs 10 --sets 2 --seed 1 --seconds 30
//	bash perfbench/run.sh heldout --seed 1 --seed2 1001
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics of a separate traced run (see trace.go).  The envelope and heldout
// subcommands are described in envelope.go.  README.md holds the notes on
// every workload.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the flags of a single run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	workdir  string
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "envelope":
			exitOn(envelopeMain(os.Args[2:]))
			return
		case "heldout":
			exitOn(heldoutMain(os.Args[2:]))
			return
		}
	}
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload: lookup, extract or eco")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs and request sequences")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the measured window in seconds")
	fs.IntVar(&o.trace, "trace", 0, "0 prints end-to-end metrics, 1 runs the traced per-layer pass")
	fs.StringVar(&o.workdir, "workdir", ".bench_build", "directory for temporary data dirs and span files")
	fs.Parse(os.Args[1:])
	res, err := runOnce(o)
	if err != nil {
		exitOn(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		exitOn(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
}

// runOnce builds the seeded inputs and runs one workload, traced or not.
func runOnce(o options) (*result, error) {
	w, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown --workload %q (want one of %v)", o.workload, workloadNames())
	}
	if o.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	if o.trace != 0 && o.trace != 1 {
		return nil, fmt.Errorf("--trace must be 0 or 1, got %d", o.trace)
	}
	workdir, err := filepath.Abs(o.workdir)
	if err != nil {
		return nil, err
	}
	o.workdir = workdir
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(o.workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	if w.procs > 0 {
		runtime.GOMAXPROCS(w.procs)
	}
	in, err := buildInputs(w, o.seed)
	if err != nil {
		return nil, err
	}
	printEnvelopeLine(o)
	b := &bench{opts: o, w: w, in: in, tmp: tmp}
	if o.trace == 1 {
		return b.traced()
	}
	return b.untraced()
}

// printEnvelopeLine records the conditions of the run beside its result.
func printEnvelopeLine(o options) {
	env := map[string]any{
		"commit":     commitID(),
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
	}
	line, _ := json.Marshal(env)
	fmt.Printf("envelope %s\n", line)
}

// printMetrics writes one aligned line per metric, sorted by name.
func printMetrics(title string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println(title)
	for _, n := range names {
		fmt.Printf("  %-34s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
