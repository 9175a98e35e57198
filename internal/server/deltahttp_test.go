package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"subgemini/internal/core"
	"subgemini/internal/delta"
	"subgemini/internal/gen"
	"subgemini/internal/store"
)

// rewireOps is a benign single-op PATCH body: move a device's pin 0 onto
// the named net (created if absent).
func rewireOps(dev, net string) PatchRequest {
	return PatchRequest{Ops: []delta.Op{{Op: delta.OpRewirePin, Device: dev, Pin: 0, Net: net}}}
}

func TestPatchAndVersionsEndpoints(t *testing.T) {
	s := mustNew(t, Config{Globals: rails})
	if rec := do(t, s, "PUT", "/v1/circuits/chip", nandNetlist); rec.Code != http.StatusOK {
		t.Fatalf("put: status %d: %s", rec.Code, rec.Body.String())
	}

	rec := do(t, s, "PATCH", "/v1/circuits/chip", rewireOps("MN3", "spare"))
	if rec.Code != http.StatusOK {
		t.Fatalf("patch: status %d: %s", rec.Code, rec.Body.String())
	}
	var pr PatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Circuit.Version != 2 || pr.Applied != 1 {
		t.Errorf("patch response: version=%d applied=%d", pr.Circuit.Version, pr.Applied)
	}

	rec = do(t, s, "GET", "/v1/circuits/chip/versions", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("versions: status %d: %s", rec.Code, rec.Body.String())
	}
	var vl store.VersionLog
	if err := json.Unmarshal(rec.Body.Bytes(), &vl); err != nil {
		t.Fatal(err)
	}
	if vl.Version != 2 || len(vl.Steps) != 1 || vl.Steps[0].Version != 2 {
		t.Errorf("version log: %+v", vl)
	}

	// Failure modes: invalid op (unknown device), empty batch, unknown
	// circuit.  None may move the version.
	if rec := do(t, s, "PATCH", "/v1/circuits/chip", rewireOps("nope", "x")); rec.Code != http.StatusBadRequest {
		t.Errorf("invalid op: status %d, want 400", rec.Code)
	}
	if rec := do(t, s, "PATCH", "/v1/circuits/chip", PatchRequest{}); rec.Code != http.StatusBadRequest {
		t.Errorf("empty ops: status %d, want 400", rec.Code)
	}
	if rec := do(t, s, "PATCH", "/v1/circuits/ghost", rewireOps("MN3", "x")); rec.Code != http.StatusNotFound {
		t.Errorf("unknown circuit: status %d, want 404", rec.Code)
	}
	if rec := do(t, s, "GET", "/v1/circuits/ghost/versions", nil); rec.Code != http.StatusNotFound {
		t.Errorf("unknown versions: status %d, want 404", rec.Code)
	}
	var info CircuitInfo
	rec = do(t, s, "GET", "/v1/circuits/chip", nil)
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Version != 2 {
		t.Errorf("version after failed patches = %d, want 2", info.Version)
	}
}

// TestMatchIncrementalReplay drives the whole match-side cache cycle over
// HTTP: cold run captures, warm run replays, an edit narrows the replay to
// the blast radius, and a since_version floor past the capture forces a
// full run whose instances the replayed run must equal exactly.
func TestMatchIncrementalReplay(t *testing.T) {
	d := gen.RippleAdder(6)
	s := mustNew(t, Config{Circuit: d.C, Globals: rails})

	cold := decodeMatch(t, do(t, s, "POST", "/v1/match", MatchRequest{Pattern: "FA"}))
	if cold.Incremental == nil || cold.Incremental.Mode != "full" {
		t.Fatalf("cold run incremental = %+v, want mode full", cold.Incremental)
	}
	if cold.Version != 1 {
		t.Errorf("cold version = %d, want 1", cold.Version)
	}

	warm := decodeMatch(t, do(t, s, "POST", "/v1/match", MatchRequest{Pattern: "FA"}))
	if warm.Incremental == nil || warm.Incremental.Mode != "replay" {
		t.Fatalf("warm run incremental = %+v, want mode replay", warm.Incremental)
	}
	if warm.Incremental.Replayed == 0 || warm.Incremental.Recomputed != 0 {
		t.Errorf("unchanged-circuit replay: %+v, want all candidates replayed", warm.Incremental)
	}
	if warm.Incremental.BaseVersion != 1 {
		t.Errorf("warm base version = %d, want 1", warm.Incremental.BaseVersion)
	}
	if warm.Count != cold.Count {
		t.Errorf("replay count %d != cold count %d", warm.Count, cold.Count)
	}

	// Edit one device, then match both ways: replaying across the edit and
	// fully (since_version past every capture) — bit-identical instances.
	dev := d.C.Devices[0].Name
	if rec := do(t, s, "PATCH", "/v1/circuits/default", rewireOps(dev, "eco1")); rec.Code != http.StatusOK {
		t.Fatalf("patch: status %d: %s", rec.Code, rec.Body.String())
	}
	replayed := decodeMatch(t, do(t, s, "POST", "/v1/match", MatchRequest{Pattern: "FA"}))
	if replayed.Incremental == nil || replayed.Incremental.Mode != "replay" {
		t.Fatalf("post-edit incremental = %+v, want mode replay", replayed.Incremental)
	}
	if replayed.Incremental.Replayed == 0 {
		t.Error("post-edit run replayed nothing; blast radius machinery inert")
	}
	if replayed.Version != 2 {
		t.Errorf("post-edit version = %d, want 2", replayed.Version)
	}
	full := decodeMatch(t, do(t, s, "POST", "/v1/match?since_version=99", MatchRequest{Pattern: "FA"}))
	if full.Incremental == nil || full.Incremental.Mode != "full" {
		t.Fatalf("floored incremental = %+v, want mode full", full.Incremental)
	}
	a, _ := json.Marshal(replayed.Instances)
	b, _ := json.Marshal(full.Instances)
	if string(a) != string(b) {
		t.Errorf("replayed instances differ from full run\nreplay: %s\nfull:   %s", a, b)
	}

	// The cache cycle shows up in the metrics dump.
	met := parseMetrics(t, do(t, s, "GET", "/metrics", nil).Body.String())
	if met["subgeminid_delta_edits_total"] != 1 {
		t.Errorf("delta edits metric = %v, want 1", met["subgeminid_delta_edits_total"])
	}
	if met["subgeminid_result_cache_hits_total"] == 0 {
		t.Error("result cache hits metric is zero")
	}
}

// TestMatchIncrementalDisabled pins the -noincremental escape hatch: no
// incremental section in responses and the incremental-sweep job kind is
// refused at submit time.
func TestMatchIncrementalDisabled(t *testing.T) {
	s, want := newAdderServer(t, func(c *Config) { c.DisableIncremental = true })
	resp := decodeMatch(t, do(t, s, "POST", "/v1/match", MatchRequest{Pattern: "FA"}))
	if resp.Incremental != nil {
		t.Errorf("disabled daemon reported incremental: %+v", resp.Incremental)
	}
	if resp.Count != want {
		t.Errorf("count = %d, want %d", resp.Count, want)
	}
	rec := do(t, s, "POST", "/v1/jobs", JobRequest{
		Kind:  "incremental-sweep",
		Sweep: &SweepRequest{Patterns: []string{"FA"}},
	})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("incremental-sweep on disabled daemon: status %d, want 400", rec.Code)
	}
}

// TestSweepIncrementalHTTP exercises the sweep-side cache: a warm sweep
// replays, a PATCH narrows it, and the incremental-sweep job kind replays
// while the plain sweep job kind never consults the cache.
func TestSweepIncrementalHTTP(t *testing.T) {
	d := gen.RippleAdder(6)
	s := mustNew(t, Config{Circuit: d.C, Globals: rails})
	sweepReq := SweepRequest{Patterns: []string{"FA", "INV", "NAND2"}}

	var cold, warm SweepResponse
	rec := do(t, s, "POST", "/v1/sweep", sweepReq)
	if rec.Code != http.StatusOK {
		t.Fatalf("cold sweep: status %d: %s", rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &cold); err != nil {
		t.Fatal(err)
	}
	if cold.Replayed != 0 || cold.Version != 1 {
		t.Errorf("cold sweep: replayed=%d version=%d", cold.Replayed, cold.Version)
	}

	if rec := do(t, s, "PATCH", "/v1/circuits/default", rewireOps(d.C.Devices[0].Name, "eco1")); rec.Code != http.StatusOK {
		t.Fatalf("patch: status %d: %s", rec.Code, rec.Body.String())
	}
	rec = do(t, s, "POST", "/v1/sweep", sweepReq)
	if rec.Code != http.StatusOK {
		t.Fatalf("warm sweep: status %d: %s", rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &warm); err != nil {
		t.Fatal(err)
	}
	if warm.Replayed == 0 {
		t.Error("warm sweep replayed nothing")
	}
	if warm.Version != 2 {
		t.Errorf("warm sweep version = %d, want 2", warm.Version)
	}
	// The edit may legitimately change per-pattern counts vs the cold
	// sweep; what must agree is warm vs a full sweep of the same version.
	var full SweepResponse
	rec = do(t, s, "POST", "/v1/sweep?since_version=99", sweepReq)
	if err := json.Unmarshal(rec.Body.Bytes(), &full); err != nil {
		t.Fatal(err)
	}
	for i := range warm.Results {
		if warm.Results[i].Count != full.Results[i].Count {
			t.Errorf("%s: warm count %d != full count %d",
				warm.Results[i].Pattern, warm.Results[i].Count, full.Results[i].Count)
		}
	}

	// Job kinds: "incremental-sweep" replays from the now-warm cache, plain
	// "sweep" never consults it.
	view := waitJob(t, s, submitJob(t, s, JobRequest{Kind: "incremental-sweep", Sweep: &sweepReq}).ID)
	if view.State != "done" {
		t.Fatalf("incremental-sweep job: %s (%s)", view.State, view.Error)
	}
	var jobResp SweepResponse
	if err := json.Unmarshal(view.Result, &jobResp); err != nil {
		t.Fatal(err)
	}
	if jobResp.Replayed == 0 {
		t.Error("incremental-sweep job replayed nothing")
	}
	view = waitJob(t, s, submitJob(t, s, JobRequest{Kind: "sweep", Sweep: &sweepReq}).ID)
	if view.State != "done" {
		t.Fatalf("sweep job: %s (%s)", view.State, view.Error)
	}
	var plainResp SweepResponse
	if err := json.Unmarshal(view.Result, &plainResp); err != nil {
		t.Fatal(err)
	}
	if plainResp.Replayed != 0 {
		t.Errorf("plain sweep job replayed %d candidates; must not consult the cache", plainResp.Replayed)
	}
}

// TestSweepIncrementalWorkersShareDirtySet runs an incremental sweep of
// several patterns on two workers after a PATCH: the workers share one
// composed dirty set per base version, and the counts must equal a forced
// full re-sweep's.  Under -race it also pins the memo's locking.
func TestSweepIncrementalWorkersShareDirtySet(t *testing.T) {
	d := gen.RippleAdder(6)
	s := mustNew(t, Config{Circuit: d.C, Globals: rails, MaxWorkers: 2})
	sweepReq := SweepRequest{Patterns: []string{"FA", "INV", "NAND2", "NOR2", "XOR2"}, Workers: 2}
	if rec := do(t, s, "POST", "/v1/sweep", sweepReq); rec.Code != http.StatusOK {
		t.Fatalf("cold sweep: status %d: %s", rec.Code, rec.Body.String())
	}
	if rec := do(t, s, "PATCH", "/v1/circuits/default", rewireOps(d.C.Devices[3].Name, "eco1")); rec.Code != http.StatusOK {
		t.Fatalf("patch: status %d: %s", rec.Code, rec.Body.String())
	}

	var warm, full SweepResponse
	rec := do(t, s, "POST", "/v1/sweep", sweepReq)
	if err := json.Unmarshal(rec.Body.Bytes(), &warm); err != nil {
		t.Fatalf("warm sweep: %v (%s)", err, rec.Body.String())
	}
	rec = do(t, s, "POST", "/v1/sweep?since_version=99", sweepReq)
	if err := json.Unmarshal(rec.Body.Bytes(), &full); err != nil {
		t.Fatalf("full sweep: %v (%s)", err, rec.Body.String())
	}
	if warm.Replayed == 0 {
		t.Error("warm sweep replayed nothing")
	}
	if full.Replayed != 0 {
		t.Errorf("forced full sweep replayed %d candidates", full.Replayed)
	}
	if len(warm.Results) != len(sweepReq.Patterns) || len(full.Results) != len(warm.Results) {
		t.Fatalf("results: warm %d, full %d, want %d", len(warm.Results), len(full.Results), len(sweepReq.Patterns))
	}
	for i := range warm.Results {
		if warm.Results[i].Count != full.Results[i].Count {
			t.Errorf("%s: incremental count %d != full count %d",
				warm.Results[i].Pattern, warm.Results[i].Count, full.Results[i].Count)
		}
	}

	// The memo hands every concurrent caller the same set for a version.
	h, err := s.store.Acquire("default")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	hk := &sweepIncHook{s: s, h: h}
	got := make([]*core.DirtySet, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = hk.dirtySince(h, 1)
		}(i)
	}
	wg.Wait()
	for i, ds := range got {
		if ds == nil || ds != got[0] {
			t.Fatalf("caller %d got dirty set %p, want the shared non-nil %p", i, ds, got[0])
		}
	}
	if len(got[0].DirtyDevs) == 0 {
		t.Error("dirty set from version 1 lists no dirty devices after a rewire")
	}
}

// TestConcurrentPatchVsMatch hammers POST /v1/match while PATCHes land.
// Under -race this pins HTTP-level snapshot isolation: every match sees one
// consistent circuit version and never errors.
func TestConcurrentPatchVsMatch(t *testing.T) {
	d := gen.NandMesh(5, 6)
	s := mustNew(t, Config{Circuit: d.C, Globals: rails})
	dev := d.C.Devices[0].Name

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := do(t, s, "POST", "/v1/match", MatchRequest{Pattern: "NAND2"})
				if rec.Code != http.StatusOK {
					t.Errorf("match: status %d: %s", rec.Code, rec.Body.String())
					return
				}
				if resp := decodeMatch(t, rec); resp.Count == 0 {
					t.Error("match found nothing mid-edit")
					return
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		rec := do(t, s, "PATCH", "/v1/circuits/default", rewireOps(dev, fmt.Sprintf("cc%d", i)))
		if rec.Code != http.StatusOK {
			t.Fatalf("patch %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
	}
	close(stop)
	wg.Wait()

	var info CircuitInfo
	if err := json.Unmarshal(do(t, s, "GET", "/v1/circuits/default", nil).Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Version != 21 {
		t.Errorf("final version = %d, want 21", info.Version)
	}
}
