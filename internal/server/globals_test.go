package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
)

// globalsSequence interleaves matches and sweeps with and without request
// globals on the nandNetlist fixture (y = NAND(a,b); z = NOT(y)), covering
// the sequential, candidate-parallel, non-overlapping and sweep paths.
var globalsSequence = []struct {
	path string
	body any
}{
	{"/v1/match", MatchRequest{Circuit: "chip", Pattern: "MYINV"}},
	{"/v1/match", MatchRequest{Circuit: "chip", Pattern: "MYINV", Globals: []string{"y"}}},
	{"/v1/match", MatchRequest{Circuit: "chip", Pattern: "MYINV"}},
	{"/v1/sweep", SweepRequest{Circuit: "chip", Patterns: []string{"MYINV", "NAND2", "INV"}, Globals: []string{"y"}, IncludeInstances: true}},
	{"/v1/match", MatchRequest{Circuit: "chip", Pattern: "NAND2", Globals: []string{"n1"}}},
	{"/v1/sweep", SweepRequest{Circuit: "chip", Patterns: []string{"MYINV", "NAND2", "INV"}, IncludeInstances: true}},
	{"/v1/match", MatchRequest{Circuit: "chip", Pattern: "NAND2"}},
	{"/v1/match", MatchRequest{Circuit: "chip", Pattern: "MYINV", Globals: []string{"y"}, Workers: 2}},
	{"/v1/match", MatchRequest{Circuit: "chip", Pattern: "MYINV", Workers: 2}},
	{"/v1/match", MatchRequest{Circuit: "chip", Pattern: "MYINV", Globals: []string{"z"}, NonOverlap: true}},
	{"/v1/match", MatchRequest{Circuit: "chip", Pattern: "MYINV", NonOverlap: true}},
	{"/v1/sweep", SweepRequest{Circuit: "chip", Patterns: []string{"MYINV"}, Globals: []string{"z"}, IncludeInstances: true}},
	{"/v1/match", MatchRequest{Circuit: "chip", Pattern: "MYINV"}},
}

// bootGlobalsDaemon returns a fresh daemon holding the fixture circuit
// and the inline MYINV pattern, uploaded by one plain match.
func bootGlobalsDaemon(t *testing.T) *Server {
	t.Helper()
	s := mustNew(t, Config{})
	if rec := do(t, s, "PUT", "/v1/circuits/chip", nandNetlist); rec.Code != http.StatusOK {
		t.Fatalf("PUT chip: status %d: %s", rec.Code, rec.Body.String())
	}
	if rec := do(t, s, "POST", "/v1/match", MatchRequest{Circuit: "chip", Netlist: invPattern}); rec.Code != http.StatusOK {
		t.Fatalf("upload MYINV: status %d: %s", rec.Code, rec.Body.String())
	}
	return s
}

// globalsAnswer is the result part of a match or sweep reply: counts and
// instances, without stats, timings, cache or replay counters.
func globalsAnswer(t *testing.T, s *Server, i int) string {
	t.Helper()
	step := globalsSequence[i]
	rec := do(t, s, "POST", step.path, step.body)
	if rec.Code != http.StatusOK {
		t.Fatalf("request %d (%s %+v): status %d: %s", i, step.path, step.body, rec.Code, rec.Body.String())
	}
	var v any
	if step.path == "/v1/sweep" {
		var resp SweepResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		type result struct {
			Pattern   string
			Count     int
			Instances []InstanceJSON
		}
		var rs []result
		for _, r := range resp.Results {
			rs = append(rs, result{r.Pattern, r.Count, r.Instances})
		}
		v = rs
	} else {
		resp := decodeMatch(t, rec)
		v = struct {
			Count     int
			Instances []InstanceJSON
		}{resp.Count, resp.Instances}
	}
	js, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(js)
}

// TestRequestGlobalsNeverPersist pins that request "globals" apply to that
// request only.  Every answer of an interleaved sequence — served in
// order, again (result-cache hits), and then by concurrent clients — must
// equal what a fresh daemon answers to the same request alone.  Before
// globals became a per-request overlay, one {"globals":["y"]} request
// marked y global on the shared circuit for good, and the plain MYINV
// match after it answered 0 instead of 1.
func TestRequestGlobalsNeverPersist(t *testing.T) {
	fresh := make([]string, len(globalsSequence))
	for i := range globalsSequence {
		fresh[i] = globalsAnswer(t, bootGlobalsDaemon(t), i)
	}
	counts := func(i int) int {
		var r struct{ Count int }
		if err := json.Unmarshal([]byte(fresh[i]), &r); err != nil {
			t.Fatal(err)
		}
		return r.Count
	}
	if counts(0) != 1 || counts(1) != 0 || counts(2) != 1 {
		t.Fatalf("fresh MYINV answers %s / %s / %s, want 1, 0 (y global), 1", fresh[0], fresh[1], fresh[2])
	}

	s := bootGlobalsDaemon(t)
	for round := 0; round < 2; round++ {
		for i := range globalsSequence {
			if got := globalsAnswer(t, s, i); got != fresh[i] {
				t.Errorf("round %d, request %d %+v:\n got  %s\n want %s (fresh daemon)", round, i, globalsSequence[i].body, got, fresh[i])
			}
		}
	}

	// Concurrent clients, each walking the sequence from a different
	// offset, so requests with and without globals overlap in time.
	const clients = 4
	var wg sync.WaitGroup
	errs := make(chan string, clients*len(globalsSequence))
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := range globalsSequence {
				i := (k + c*3) % len(globalsSequence)
				if got := globalsAnswer(t, s, i); got != fresh[i] {
					errs <- fmt.Sprintf("client %d, request %d: got %s, want %s", c, i, got, fresh[i])
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
