package main

// Two subcommands built from single runs, each run a separate process:
//
// envelope runs one workload on consecutive seeds and prints a JSON
// envelope: commit, Go version, GOMAXPROCS, nproc, the seeds and each run's
// op count, and every metric's median and quartiles across the runs, with
// the quartile spread as a share of the median.  Quartiles are those of
// Python's statistics.quantiles(values, n=4), the "exclusive" method.
// With --sets n it records n sets of the same code interleaved: each seed
// runs once per set before the next seed starts, so a drift in the host's
// speed lands on every set alike.  It then also prints each metric's
// median shift from the first set to the last.
//
//	bash perfbench/run.sh envelope --workload lookup --runs 10 --sets 2 --seed 1 --seconds 30 > lookup.json
//
// heldout checks a second seed against the first: every workload's key
// count and oracle instance total on both seeds, then one short run of
// every workload on the second seed, whose answer checks must all pass.
//
//	bash perfbench/run.sh heldout --seed 1 --seed2 1001 --seconds 3

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
)

// child runs this binary once, untraced, and returns its result line.
func child(workload string, seed int64, seconds float64, workdir string) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0", "--workdir", workdir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if jerr := json.Unmarshal(lines[len(lines)-1], &res); jerr != nil {
		if err == nil {
			err = jerr
		}
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	return &res, nil
}

// quartiles are statistics.quantiles(xs, n=4) with the default method.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld, n := len(d), 4
	if ld < 2 {
		return d[0], d[0], d[0]
	}
	m := ld + 1
	q := make([]float64, 0, 3)
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		q = append(q, (d[j-1]*float64(n-delta)+d[j]*float64(delta))/float64(n))
	}
	return q[0], q[1], q[2]
}

type summary struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Spread float64 `json:"spread"` // (q3 - q1) / median, 0 for a median of 0
}

type runRecord struct {
	Seed      int64             `json:"seed"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runSet is one set of runs, a run per seed, and its per-metric summary.
type runSet struct {
	Runs    []runRecord        `json:"runs"`
	Summary map[string]summary `json:"summary"`
}

type envelope struct {
	Commit     string   `json:"commit"`
	Go         string   `json:"go"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	NProc      int      `json:"nproc"`
	Workload   string   `json:"workload"`
	Seconds    float64  `json:"seconds"`
	Correct    bool     `json:"correct"`
	Sets       []runSet `json:"sets"`
	// Shift is each metric's median in the last set relative to the
	// first, (last - first) / first; absent with a single set.
	Shift map[string]float64 `json:"shift,omitempty"`
}

func envelopeMain(args []string) error {
	fs := flag.NewFlagSet("envelope", flag.ExitOnError)
	workload := fs.String("workload", "", "workload to run")
	runs := fs.Int("runs", 10, "number of runs per set, on seeds seed, seed+1, ...")
	sets := fs.Int("sets", 1, "number of interleaved sets of runs")
	seed := fs.Int64("seed", 1, "first seed")
	seconds := fs.Float64("seconds", 10, "measured window of each run")
	workdir := fs.String("workdir", ".bench_build", "as for a single run")
	fs.Parse(args)
	if *runs < 1 || *sets < 1 {
		return fmt.Errorf("--runs and --sets must be at least 1")
	}
	procs := runtime.GOMAXPROCS(0)
	if w, ok := workloads[*workload]; ok && w.procs > 0 {
		procs = w.procs
	}
	env := envelope{
		Commit: commitID(), Go: runtime.Version(), GOMAXPROCS: procs, NProc: runtime.NumCPU(),
		Workload: *workload, Seconds: *seconds, Correct: true, Sets: make([]runSet, *sets),
	}
	for i := 0; i < *runs; i++ {
		s := *seed + int64(i)
		for k := range env.Sets {
			res, err := child(*workload, s, *seconds, *workdir)
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "envelope: %s set %d seed %d: correct=%v attempted=%d\n", *workload, k+1, s, res.Correct, res.Attempted)
			env.Correct = env.Correct && res.Correct
			env.Sets[k].Runs = append(env.Sets[k].Runs, runRecord{Seed: s, Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.Metrics})
		}
	}
	for k := range env.Sets {
		env.Sets[k].Summary = summarize(env.Sets[k].Runs)
	}
	if *sets > 1 {
		env.Shift = map[string]float64{}
		first, last := env.Sets[0].Summary, env.Sets[*sets-1].Summary
		for name, a := range first {
			env.Shift[name] = ratio(last[name].Median-a.Median, a.Median)
		}
	}
	out, err := json.MarshalIndent(env, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !env.Correct {
		return fmt.Errorf("a run of %s answered wrongly", *workload)
	}
	return nil
}

// summarize gives every metric's median, quartiles and spread over runs.
func summarize(runs []runRecord) map[string]summary {
	values := map[string][]float64{}
	units := map[string]string{}
	for _, r := range runs {
		for name, m := range r.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	out := map[string]summary{}
	for name, xs := range values {
		q1, q2, q3 := quartiles(xs)
		out[name] = summary{Unit: units[name], Median: q2, Q1: q1, Q3: q3, Spread: ratio(q3-q1, q2)}
	}
	return out
}

// shape is what a seed makes of a workload: how many keys, and how many
// oracle instances they hold in total.
type shape struct {
	Keys      int `json:"keys"`
	Instances int `json:"instances"`
}

func workloadShape(w *workloadDef, seed int64) (shape, error) {
	in, err := buildInputs(w, seed)
	if err != nil {
		return shape{}, err
	}
	var s shape
	if w.name == "eco" {
		for _, cell := range ecoLibrary {
			s.Keys++
			s.Instances += in.circuits[ecoCircuit].oracle[cell].count
		}
		return s, nil
	}
	for _, k := range in.keys {
		s.Keys++
		s.Instances += k.oracle.count
	}
	return s, nil
}

// heldoutTolerance is how far a held-out seed's instance totals may stray
// from the first seed's: rand4000 draws its gates at random, so the totals
// move a little with the seed while the key sets stay the same.
const heldoutTolerance = 0.10

func heldoutMain(args []string) error {
	fs := flag.NewFlagSet("heldout", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "the seed the benchmark was tuned on")
	seed2 := fs.Int64("seed2", 1001, "the held-out seed")
	seconds := fs.Float64("seconds", 3, "measured window of each held-out run")
	workdir := fs.String("workdir", ".bench_build", "as for a single run")
	fs.Parse(args)
	ok := true
	bw := bufio.NewWriter(os.Stdout)
	defer bw.Flush()
	for _, name := range workloadNames() {
		w := workloads[name]
		a, err := workloadShape(w, *seed)
		if err != nil {
			return err
		}
		b, err := workloadShape(w, *seed2)
		if err != nil {
			return err
		}
		res, err := child(name, *seed2, *seconds, *workdir)
		if err != nil {
			return err
		}
		drift := math.Abs(float64(b.Instances-a.Instances)) / float64(a.Instances)
		pass := a.Keys == b.Keys && drift <= heldoutTolerance && res.Correct
		ok = ok && pass
		fmt.Fprintf(bw, "%-8s seed %d: %d keys, %d instances | seed %d: %d keys, %d instances (drift %.1f%%), run correct=%v attempted=%d failed=%d -> %s\n",
			name, *seed, a.Keys, a.Instances, *seed2, b.Keys, b.Instances, 100*drift, res.Correct, res.Attempted, res.Failed,
			map[bool]string{true: "ok", false: "FAIL"}[pass])
	}
	if !ok {
		return fmt.Errorf("held-out seed %d does not match seed %d's workload shape or failed a check", *seed2, *seed)
	}
	return nil
}
