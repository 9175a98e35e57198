package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"subgemini/internal/core"
	"subgemini/internal/gen"
	"subgemini/internal/graph"
	"subgemini/internal/jobs"
	"subgemini/internal/stdcell"
)

// oldInstancesJSON is the map-building converter the server used before it
// wrote instances directly.  It is the oracle: encoding/json over its
// []InstanceJSON is the wire form the direct writer must reproduce.
func oldInstancesJSON(insts []*core.Instance) []InstanceJSON {
	out := make([]InstanceJSON, 0, len(insts))
	for _, inst := range insts {
		ji := InstanceJSON{Devices: make(map[string]string), Nets: make(map[string]string)}
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

// oldMatchResponse is the MatchResponse the server built before.
func oldMatchResponse(m *matchReply) MatchResponse {
	r := m.MatchResponse
	r.Instances = oldInstancesJSON(m.insts)
	return r
}

// indentJSON encodes v as writeJSON does.
func indentJSON(t testing.TB, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func marshalJSON(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// sameBytes fails the test at the first byte where got and want differ.
func sameBytes(t testing.TB, what string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(0, i-60)
	t.Fatalf("%s: bytes differ at offset %d of %d/%d\n got: %q\nwant: %q",
		what, i, len(got), len(want), got[lo:min(len(got), i+60)], want[lo:min(len(want), i+60)])
}

// fuzzReply builds a reply of n synthetic instances over a pattern whose
// device and net names are the comma-separated lists (duplicates dropped:
// names are unique within a circuit).  Image names are image plus a
// number; without nonoverlap, neighbouring instances share images.  Bit
// i%8 of drop removes one key from instance i's maps, so instances whose
// key sets differ from the first one's are covered too.
func fuzzReply(circuit, pattern, devNames, netNames, image string, n int, nonoverlap bool, drop uint8) *matchReply {
	split := func(list string) []string {
		seen := map[string]bool{}
		var out []string
		for _, s := range strings.Split(list, ",") {
			if !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
		}
		return out
	}
	var pdevs []*graph.Device
	for _, name := range split(devNames) {
		pdevs = append(pdevs, &graph.Device{Name: name})
	}
	var pnets []*graph.Net
	for _, name := range split(netNames) {
		pnets = append(pnets, &graph.Net{Name: name})
	}
	insts := make([]*core.Instance, n)
	for i := range insts {
		k := i
		if !nonoverlap {
			k = i / 2
		}
		inst := &core.Instance{DevMap: map[*graph.Device]*graph.Device{}, NetMap: map[*graph.Net]*graph.Net{}}
		for j, d := range pdevs {
			inst.DevMap[d] = &graph.Device{Name: fmt.Sprintf("%s%d.%d", image, k, j)}
		}
		for j, nt := range pnets {
			inst.NetMap[nt] = &graph.Net{Name: fmt.Sprintf("%s%d", image+nt.Name, k+j)}
		}
		if drop&(1<<(i%8)) != 0 {
			delete(inst.DevMap, pdevs[i%len(pdevs)])
			delete(inst.NetMap, pnets[i%len(pnets)])
		}
		insts[i] = inst
	}
	return &matchReply{
		MatchResponse: MatchResponse{Circuit: circuit, Pattern: pattern, Count: n},
		insts:         insts,
	}
}

// FuzzMatchResponseBytes holds the direct writer to encoding/json over
// the old []InstanceJSON form: the indented /v1/match reply, the compact
// form batch items and job results use, and a sweep's instance list.
func FuzzMatchResponseBytes(f *testing.F) {
	type seed struct {
		circuit, pattern, devs, nets, image string
		n                                   uint8
		version                             uint64
		incMode                             string
		nonoverlap, cacheHit                bool
		drop                                uint8
	}
	for _, s := range []seed{
		{"sram32", "INV", "MP1,MN1", "A,Y,VDD,GND", "xinv_", 5, 3, "replay", false, true, 0},
		{"c", "EMPTY", "MP1", "A", "x", 0, 0, "", false, false, 0},
		{"c", "NAND2", "MN2,MN1,MP2,MP1", "Y,B,A,VDD,GND,n1", "u", 7, 0, "full", true, false, 0},
		{`q"uo\te`, `p"a\th`, `D"1,D\2,D/3`, `N"a,N\b`, `img"\`, 3, 1, "", true, true, 0x05},
		{"ctl\x00\x01\x1f", "tab\tnl\n", "d\r,d\x7f", "n\x00", "\b\f", 2, 9, "legacy", false, false, 0},
		{"<html>", "a&b", "<d>,&d", ">n,<n", "<&>", 4, 2, "<mode>", true, false, 0xff},
		{" ", " ", "d ,d ", "n ", "i ", 2, 0, "", false, true, 0},
		{"bad\xff", "\xc3\x28", "\xff,\xfe", "\xed\xa0\x80,\xf0\x28\x8c\x28", "\x80", 3, 7, "replay", false, false, 0x02},
		{"", "", ",x", ",", "", 2, 0, "", true, false, 0},
		{"ünï", "ÅND", "Ω1,ω2", "ß,ss", "ñ", 3, 1 << 40, "full", false, true, 0x10},
	} {
		f.Add(s.circuit, s.pattern, s.devs, s.nets, s.image, s.n, s.version, s.incMode, s.nonoverlap, s.cacheHit, s.drop)
	}
	f.Fuzz(func(t *testing.T, circuit, pattern, devs, nets, image string, n uint8, version uint64, incMode string, nonoverlap, cacheHit bool, drop uint8) {
		m := fuzzReply(circuit, pattern, devs, nets, image, int(n%48), nonoverlap, drop)
		m.CacheHit = cacheHit
		m.Version = version
		m.Stats = StatsJSON{
			Instances: m.Count, MatchedDevices: 2 * m.Count, KeyVertex: pattern,
			Candidates: int(version % 97), Phase1Micros: int64(version % 1000), Phase2Micros: -1,
			RegionRadius: int(n % 3), IncrementalMode: incMode, Replayed: int(drop),
		}
		if incMode != "" {
			m.Incremental = &IncrementalJSON{Mode: incMode, BaseVersion: version / 2, Replayed: int(n), Recomputed: int(drop)}
		}
		old := oldMatchResponse(m)

		rec := httptest.NewRecorder()
		writeMatchReply(rec, m)
		sameBytes(t, "indented match reply", rec.Body.Bytes(), indentJSON(t, old))
		sameBytes(t, "compact match reply", marshalJSON(t, m), marshalJSON(t, old))
		sameBytes(t, "instance list", marshalJSON(t, instanceList(m.insts)), marshalJSON(t, old.Instances))
	})
}

// TestReplyTwinsMatch: the server-side twins carry the exported wire
// types' fields with the same names, tags and order, and MatchResponse
// keeps the fields matchReply.write hand-writes.
func TestReplyTwinsMatch(t *testing.T) {
	if reflect.TypeOf(MatchResponse{}).NumField() != 8 {
		t.Errorf("MatchResponse gained or lost a field; update matchReply.write and this test")
	}
	for _, pair := range [][2]any{
		{batchReply{}, BatchResponse{}},
		{batchItem{}, BatchItem{}},
		{sweepReply{}, SweepResponse{}},
		{sweepPatternReply{}, SweepPatternJSON{}},
	} {
		twin, wire := reflect.TypeOf(pair[0]), reflect.TypeOf(pair[1])
		if twin.NumField() != wire.NumField() {
			t.Errorf("%s has %d fields, %s has %d", twin, twin.NumField(), wire, wire.NumField())
			continue
		}
		for i := 0; i < twin.NumField(); i++ {
			a, b := twin.Field(i), wire.Field(i)
			if a.Name != b.Name || a.Tag != b.Tag {
				t.Errorf("%s field %d = %s %q, %s has %s %q", twin, i, a.Name, a.Tag, wire, b.Name, b.Tag)
			}
		}
	}
}

// TestMatchRepliesByteIdentical: /v1/match answers carry the bytes the old
// encoder wrote for the same request — encoding/json, two-space indent,
// over the instances the same request yields.  Stats and timings come from
// the answer itself; instance content comes from re-running the request.
func TestMatchRepliesByteIdentical(t *testing.T) {
	for _, noInc := range []bool{false, true} {
		s, _ := newAdderServer(t, func(c *Config) { c.DisableIncremental = noInc })
		for _, req := range []MatchRequest{
			{Pattern: "INV"},
			{Pattern: "FA"},
			{Pattern: "NAND2", NonOverlap: true},
			{Pattern: "XOR2", Max: 2},
			{Pattern: "NOR3"},
			{Netlist: invPattern},
		} {
			rec := do(t, s, "POST", "/v1/match", req)
			if rec.Code != http.StatusOK {
				t.Fatalf("%+v: status %d: %s", req, rec.Code, rec.Body.String())
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type = %q", ct)
			}
			want := *decodeMatch(t, rec)
			want.Instances = oldInstancesJSON(instancesOf(t, s, req))
			sameBytes(t, fmt.Sprintf("match %+v (noincremental=%v)", req, noInc), rec.Body.Bytes(), indentJSON(t, want))
		}
	}
}

// instancesOf re-runs a match request and returns its core instances.
func instancesOf(t *testing.T, s *Server, req MatchRequest) []*core.Instance {
	t.Helper()
	m, e := s.runMatch(context.Background(), &req)
	if e != nil {
		t.Fatalf("runMatch %+v: %s", req, e.msg)
	}
	return m.insts
}

func TestBatchReplyByteIdentical(t *testing.T) {
	s, _ := newAdderServer(t, nil)
	req := BatchRequest{Requests: []MatchRequest{
		{Pattern: "FA"},
		{Pattern: "NOPE"},
		{Pattern: "NAND2", NonOverlap: true},
		{Pattern: "INV", Workers: 2},
	}}
	rec := do(t, s, "POST", "/v1/match/batch", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var want BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &want); err != nil {
		t.Fatal(err)
	}
	for i := range want.Results {
		if m := want.Results[i].Match; m != nil {
			m.Instances = oldInstancesJSON(instancesOf(t, s, req.Requests[i]))
		}
	}
	sameBytes(t, "batch reply", rec.Body.Bytes(), indentJSON(t, want))
}

func TestMatchJobResultByteIdentical(t *testing.T) {
	s, _ := newAdderServer(t, nil)
	req := MatchRequest{Pattern: "INV"}
	view := submitJob(t, s, JobRequest{Kind: jobKindMatch, Match: &req})
	if v := waitJob(t, s, view.ID); v.State != jobs.Done {
		t.Fatalf("job ended %s: %s", v.State, v.Error)
	}
	stored, err := s.jobs.Get(view.ID)
	if err != nil {
		t.Fatal(err)
	}
	var want MatchResponse
	if err := json.Unmarshal(stored.Result, &want); err != nil {
		t.Fatal(err)
	}
	want.Instances = oldInstancesJSON(instancesOf(t, s, req))
	sameBytes(t, "match job result", stored.Result, marshalJSON(t, want))
}

func TestSweepReplyByteIdentical(t *testing.T) {
	s, _ := newAdderServer(t, nil)
	for _, include := range []bool{true, false} {
		req := SweepRequest{Patterns: []string{"FA", "NAND2", "NAND2", "INV", "NOR3"}, IncludeInstances: include}
		rec := do(t, s, "POST", "/v1/sweep", req)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		want := *decodeSweep(t, rec.Body.Bytes())
		again, e := s.runSweep(context.Background(), &req)
		if e != nil {
			t.Fatal(e.msg)
		}
		for i := range want.Results {
			if include {
				want.Results[i].Instances = oldInstancesJSON(again.Results[i].Instances)
			}
		}
		sameBytes(t, fmt.Sprintf("sweep reply (include_instances=%v)", include), rec.Body.Bytes(), indentJSON(t, want))
	}
}

// sramINVReply is a reply the size of sram32/INV: the INV instances of a
// 32×32 SRAM array.
func sramINVReply(tb testing.TB) *matchReply {
	tb.Helper()
	c := gen.SRAMArray(32, 32).C
	for _, g := range rails {
		c.MarkGlobal(g)
	}
	m, err := core.NewMatcher(c, core.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	res, err := m.Find(stdcell.Get("INV").Pattern())
	if err != nil {
		tb.Fatal(err)
	}
	if len(res.Instances) == 0 {
		tb.Fatal("no INV instances in the SRAM array")
	}
	return &matchReply{
		MatchResponse: MatchResponse{Circuit: "sram32", Pattern: "INV", Count: len(res.Instances), Stats: statsJSON(&res.Report)},
		insts:         res.Instances,
	}
}

// discardWriter is an http.ResponseWriter that drops the body.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardWriter) WriteHeader(int)             {}

// BenchmarkMatchResponseEncode encodes an sram32/INV-sized /v1/match
// reply: "direct" is the server's writer, "encoding-json" the old path
// (per-instance maps, then writeJSON) kept as the reference.
func BenchmarkMatchResponseEncode(b *testing.B) {
	m := sramINVReply(b)
	w := &discardWriter{h: http.Header{}}
	rec := httptest.NewRecorder()
	writeMatchReply(rec, m)
	size := int64(rec.Body.Len())
	b.Run("direct", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(size)
		for i := 0; i < b.N; i++ {
			writeMatchReply(w, m)
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(size)
		for i := 0; i < b.N; i++ {
			writeJSON(w, http.StatusOK, oldMatchResponse(m))
		}
	})
}

// TestInstanceWriterAllocsFlat: the writer's allocations per reply do not
// grow with the instance count (only the per-response key sort allocates;
// the buffer is reused).
func TestInstanceWriterAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun counts race-detector instrumentation allocations")
	}
	allocs := func(n int) float64 {
		m := fuzzReply("c", "INV", "MP1,MN1", "A,Y,VDD,GND", "x", n, true, 0)
		w := jsonWriter{indent: true}
		return testing.AllocsPerRun(20, func() {
			w.buf = w.buf[:0]
			m.write(&w)
		})
	}
	if a64, a1024 := allocs(64), allocs(1024); a64 != a1024 {
		t.Errorf("writer allocations: %v per reply at 64 instances, %v at 1024", a64, a1024)
	}
}

// TestHandlerAllocCeilings pins allocations per request through the whole
// handler (decode, result-cache replay, telemetry, encode) on the 8-bit
// ripple adder.  Each ceiling is the measured count plus about 10%
// (measured: match FA 321, sweep 1002 with the arena pattern clone; 524
// and 1518 with the per-vertex clone, 528 and 1512 before setup read the
// compiled view, and 1407 and 2635 before the direct writer).
func TestHandlerAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun counts race-detector instrumentation allocations")
	}
	s, _ := newAdderServer(t, nil)
	for _, tc := range []struct {
		path    string
		body    any
		ceiling float64
	}{
		{"/v1/match", MatchRequest{Pattern: "FA"}, 353},
		{"/v1/sweep", SweepRequest{Patterns: []string{"FA", "NAND2", "INV"}, Workers: 1, IncludeInstances: true}, 1102},
	} {
		body := string(marshalJSON(t, tc.body))
		allocs := testing.AllocsPerRun(50, func() {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest("POST", tc.path, strings.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", tc.path, rec.Code, rec.Body.String())
			}
		})
		if allocs > tc.ceiling {
			t.Errorf("%s %s: %v allocs per request, ceiling %v", tc.path, body, allocs, tc.ceiling)
		}
	}
}
