package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"
	"strconv"
	"time"

	"subgemini/internal/server"
)

// respWriter is a reusable in-memory http.ResponseWriter: the "network"
// between the benchmark and the handler.  Reusing its buffer keeps the
// client's own allocations out of the per-op allocation figure.
type respWriter struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
}

func (w *respWriter) Header() http.Header { return w.hdr }

func (w *respWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *respWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.body.Write(p)
}

// client sends requests to the handler in process, one at a time.
type client struct {
	h  http.Handler
	w  respWriter
	rd bytes.Reader
	// answered, when set, sees every answer's X-Request-Id and size.
	answered func(id string, size int)
}

func newClient(h http.Handler) *client {
	return &client{h: h, w: respWriter{hdr: http.Header{}}}
}

// do sends one request and returns how long ServeHTTP took.  Building the
// request happens before the clock starts; reading the answer after it
// stops.
func (c *client) do(method, path string, body []byte) (time.Duration, error) {
	clear(c.w.hdr)
	c.w.status = 0
	c.w.body.Reset()
	c.rd.Reset(body)
	req, err := http.NewRequest(method, "http://perfbench"+path, &c.rd)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	c.h.ServeHTTP(&c.w, req)
	d := time.Since(t0)
	if c.answered != nil {
		c.answered(c.w.hdr.Get("X-Request-Id"), c.w.body.Len())
	}
	return d, nil
}

// expect fails unless the last answer had the given status.
func (c *client) expect(status int) error {
	if c.w.status != status {
		return fmt.Errorf("status %d, want %d: %.200s", c.w.status, status, c.w.body.Bytes())
	}
	return nil
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// matchDigest reads a /v1/match answer without decoding it: the count, and
// a checksum of the instances array.  The handler writes the fields of
// server.MatchResponse in declaration order with two-space indentation, so
// the top-level "count" and the span from "instances" to "stats" are found
// by their indented keys.  The stats, which hold timings, are left out.
func matchDigest(body []byte) (count int, sum uint32, err error) {
	ci := bytes.Index(body, []byte("\n  \"count\": "))
	ii := bytes.Index(body, []byte("\n  \"instances\": "))
	si := bytes.Index(body, []byte("\n  \"stats\": "))
	if ci < 0 || ii < ci || si < ii {
		return 0, 0, fmt.Errorf("unexpected match answer: %.200s", body)
	}
	num := body[ci+len("\n  \"count\": "):]
	end := bytes.IndexByte(num, ',')
	if end < 0 {
		return 0, 0, fmt.Errorf("unexpected count field: %.100s", num)
	}
	count, err = strconv.Atoi(string(num[:end]))
	if err != nil {
		return 0, 0, fmt.Errorf("count field: %w", err)
	}
	return count, crc32.Checksum(body[ii:si], castagnoli), nil
}

// matchAnswer is the part of server.MatchResponse the full check reads.
type matchAnswer struct {
	Count     int                   `json:"count"`
	Instances []server.InstanceJSON `json:"instances"`
}

// checkMatch fully checks one /v1/match answer against the oracle.  With
// nonoverlap the instances must be device-disjoint oracle instances, at
// least one and at most the oracle count; without it they must be exactly
// the oracle's instances.
func checkMatch(body []byte, o *oracleSet, nonoverlap bool) error {
	var a matchAnswer
	if err := json.Unmarshal(body, &a); err != nil {
		return fmt.Errorf("decoding match answer: %w", err)
	}
	if a.Count != len(a.Instances) {
		return fmt.Errorf("count %d but %d instances", a.Count, len(a.Instances))
	}
	used := map[string]bool{}
	seen := map[string]bool{}
	for _, inst := range a.Instances {
		names := make([]string, 0, len(inst.Devices))
		for _, d := range inst.Devices {
			names = append(names, d)
		}
		sig := signature(names)
		if !o.sigs[sig] {
			return fmt.Errorf("instance {%s} is not an oracle instance", sig)
		}
		if seen[sig] {
			return fmt.Errorf("instance {%s} reported twice", sig)
		}
		seen[sig] = true
		if nonoverlap {
			for _, d := range names {
				if used[d] {
					return fmt.Errorf("non-overlapping instances share device %s", d)
				}
				used[d] = true
			}
		}
	}
	switch {
	case !nonoverlap && a.Count != o.count:
		return fmt.Errorf("count %d, oracle %d", a.Count, o.count)
	case nonoverlap && (a.Count < 1 || a.Count > o.count):
		return fmt.Errorf("non-overlapping count %d outside [1, %d]", a.Count, o.count)
	}
	return nil
}
