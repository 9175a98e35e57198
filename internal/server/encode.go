package server

// Response encoding for the instance-bearing replies.  A match reply
// grows with its instance count (sram32/INV: 2112 instances, ~470 KB), so
// instance lists are written straight from []*core.Instance in
// encoding/json's exact layout: no per-instance maps, no reflection, and
// no per-instance key sort; the fixed-size stats members go through
// encoding/json.  /v1/match writes its whole reply this way
// into a pooled buffer; batch items, job results and sweep results reach
// the same writer through MarshalJSON.  The bytes equal what
// encoding/json writes for the exported wire types (MatchResponse with
// []InstanceJSON, etc.); FuzzMatchResponseBytes and the byte-identity
// httptest cases pin that.

import (
	"encoding/json"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"subgemini/internal/core"
	"subgemini/internal/graph"
)

// jsonWriter appends JSON in encoding/json's layout: compact (json.Marshal)
// or indented two spaces per level (json.Encoder with SetIndent("", "  ")).
type jsonWriter struct {
	buf    []byte
	indent bool
	depth  int
	empty  bool // the innermost open container has no member yet
}

func (w *jsonWriter) newline() {
	if !w.indent {
		return
	}
	w.buf = append(w.buf, '\n')
	for i := 0; i < w.depth; i++ {
		w.buf = append(w.buf, ' ', ' ')
	}
}

func (w *jsonWriter) open(c byte) {
	w.buf = append(w.buf, c)
	w.depth++
	w.empty = true
}

// close ends the innermost container; an empty one stays "{}" or "[]".
func (w *jsonWriter) close(c byte) {
	w.depth--
	if !w.empty {
		w.newline()
	}
	w.buf = append(w.buf, c)
	w.empty = false
}

// elem starts the next array element or object member.
func (w *jsonWriter) elem() {
	if !w.empty {
		w.buf = append(w.buf, ',')
	}
	w.empty = false
	w.newline()
}

func (w *jsonWriter) key(k string) {
	w.elem()
	w.buf = appendString(w.buf, k)
	w.buf = append(w.buf, ':')
	if w.indent {
		w.buf = append(w.buf, ' ')
	}
}

func (w *jsonWriter) str(k, v string) {
	w.key(k)
	w.buf = appendString(w.buf, v)
}

func (w *jsonWriter) int(k string, v int64) {
	w.key(k)
	w.buf = strconv.AppendInt(w.buf, v, 10)
}

func (w *jsonWriter) bool(k string, v bool) {
	w.key(k)
	w.buf = strconv.AppendBool(w.buf, v)
}

// value writes v under key k as encoding/json writes it at this depth.
// It serves the fixed-size members (StatsJSON, IncrementalJSON), whose
// field lists and omitempty rules stay with their struct tags.
func (w *jsonWriter) value(k string, v any) {
	w.key(k)
	var b []byte
	if w.indent {
		b, _ = json.MarshalIndent(v, strings.Repeat("  ", w.depth), "  ")
	} else {
		b, _ = json.Marshal(v)
	}
	w.buf = append(w.buf, b...) // the wire types always marshal
}

// plainASCII marks the bytes encoding/json copies into a string unescaped
// with HTML escaping on: printable ASCII except '"', '\\', '<', '>', '&'.
var plainASCII = func() (t [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = !strings.ContainsRune(`"\<>&`, rune(c))
	}
	return t
}()

// appendString appends s as encoding/json writes a string.  Plain ASCII
// is copied; anything else (quotes, backslashes, control bytes, <>&,
// non-ASCII, invalid UTF-8) takes encoding/json's own string encoding.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c >= utf8.RuneSelf || !plainASCII[c] {
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// instances writes insts as encoding/json writes the []InstanceJSON they
// convert to: an array of {"devices": {...}, "nets": {...}} objects keyed
// by pattern name in sorted order.  Every instance of one pattern maps the
// same pattern devices and nets, so the first instance's keys are sorted
// and encoded once and reused; an instance holding other keys gets its
// own order.
func (w *jsonWriter) instances(insts []*core.Instance) {
	w.open('[')
	if len(insts) > 0 {
		devs := newKeyOrder(w, insts[0].DevMap, deviceName)
		nets := newKeyOrder(w, insts[0].NetMap, netName)
		for _, inst := range insts {
			w.elem()
			w.open('{')
			w.key("devices")
			nameMap(w, inst.DevMap, &devs, deviceName)
			w.key("nets")
			nameMap(w, inst.NetMap, &nets, netName)
			w.close('}')
		}
	}
	w.close(']')
}

func deviceName(d *graph.Device) string { return d.Name }
func netName(n *graph.Net) string       { return n.Name }

// keyOrder is an instance map's keys sorted by name, the order
// encoding/json gives the map[string]string they convert to (names are
// unique within a circuit, so no two compare equal), with each key
// pre-encoded as it is written: enc[ends[i-1]:ends[i]] is `"name":`, plus
// a space when indenting.
type keyOrder[K comparable] struct {
	keys []K
	enc  []byte
	ends []int
}

func newKeyOrder[K comparable](w *jsonWriter, m map[K]K, name func(K) string) keyOrder[K] {
	o := keyOrder[K]{keys: make([]K, 0, len(m)), ends: make([]int, len(m))}
	for k := range m {
		o.keys = append(o.keys, k)
	}
	slices.SortFunc(o.keys, func(a, b K) int { return strings.Compare(name(a), name(b)) })
	for i, k := range o.keys {
		o.enc = appendString(o.enc, name(k))
		o.enc = append(o.enc, ':')
		if w.indent {
			o.enc = append(o.enc, ' ')
		}
		o.ends[i] = len(o.enc)
	}
	return o
}

// nameMap writes m as a name → name object in o's key order.  o fits
// when it has m's size and every key is in m (its keys are distinct);
// otherwise the partial write is dropped and m gets its own order.
func nameMap[K comparable](w *jsonWriter, m map[K]K, o *keyOrder[K], name func(K) string) {
	if len(m) != len(o.keys) {
		own := newKeyOrder(w, m, name)
		o = &own
	}
	mark, depth, empty := len(w.buf), w.depth, w.empty
	w.open('{')
	start := 0
	for i, k := range o.keys {
		v, ok := m[k]
		if !ok {
			w.buf, w.depth, w.empty = w.buf[:mark], depth, empty
			own := newKeyOrder(w, m, name)
			nameMap(w, m, &own, name)
			return
		}
		w.elem()
		w.buf = append(w.buf, o.enc[start:o.ends[i]]...)
		w.buf = appendString(w.buf, name(v))
		start = o.ends[i]
	}
	w.close('}')
}

// matchReply is a match result on its way to the wire: MatchResponse's
// fields, with the core instances in place of its Instances maps (which
// stay nil).  It encodes to the bytes encoding/json writes for the
// equivalent MatchResponse.
type matchReply struct {
	MatchResponse
	insts []*core.Instance
}

func (m *matchReply) write(w *jsonWriter) {
	w.open('{')
	w.str("circuit", m.Circuit)
	w.str("pattern", m.Pattern)
	w.int("count", int64(m.Count))
	w.key("instances")
	w.instances(m.insts)
	w.value("stats", &m.Stats)
	w.bool("cache_hit", m.CacheHit)
	if m.Version != 0 {
		w.key("version")
		w.buf = strconv.AppendUint(w.buf, m.Version, 10)
	}
	if m.Incremental != nil {
		w.value("incremental", m.Incremental)
	}
	w.close('}')
}

// MarshalJSON encodes the reply compactly, for batch items and job results.
func (m *matchReply) MarshalJSON() ([]byte, error) {
	w := jsonWriter{}
	m.write(&w)
	return w.buf, nil
}

// instanceList is a sweep result's instances on their way to the wire.
type instanceList []*core.Instance

// MarshalJSON encodes the list compactly, as json.Marshal encodes the
// []InstanceJSON it stands for.
func (l instanceList) MarshalJSON() ([]byte, error) {
	w := jsonWriter{}
	w.instances(l)
	return w.buf, nil
}

// replyBufs pools /v1/match reply buffers.  A buffer that grew past
// maxPooledReply is left to the collector, so one outsized reply does not
// stay pinned in the pool.
var replyBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledReply = 4 << 20

// writeMatchReply writes a 200 /v1/match reply: the bytes writeJSON would
// write for the equivalent MatchResponse.
func writeMatchReply(rw http.ResponseWriter, m *matchReply) {
	bp := replyBufs.Get().(*[]byte)
	w := jsonWriter{buf: (*bp)[:0], indent: true}
	m.write(&w)
	w.buf = append(w.buf, '\n')
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(http.StatusOK)
	rw.Write(w.buf)
	if cap(w.buf) <= maxPooledReply {
		*bp = w.buf
		replyBufs.Put(bp)
	}
}

// The server-side twins of BatchResponse, BatchItem, SweepResponse and
// SweepPatternJSON: the same fields, tags and order (TestReplyTwinsMatch
// pins them), with match results and instance lists kept as core results
// until encoding.  The exported types remain the decode side for clients.

type batchReply struct {
	Results []batchItem `json:"results"`
}

type batchItem struct {
	Index   int         `json:"index"`
	Pattern string      `json:"pattern,omitempty"`
	Status  int         `json:"status"`
	Error   string      `json:"error,omitempty"`
	Match   *matchReply `json:"match,omitempty"`
}

type sweepReply struct {
	Circuit        string              `json:"circuit"`
	Library        string              `json:"library,omitempty"`
	Patterns       int                 `json:"patterns"`
	Runs           int                 `json:"runs"`
	Deduped        int                 `json:"deduped"`
	Count          int                 `json:"count"`
	Results        []sweepPatternReply `json:"results"`
	DurationMicros int64               `json:"duration_us"`
	Version        uint64              `json:"version,omitempty"`
	Replayed       int                 `json:"replayed,omitempty"`
	Recomputed     int                 `json:"recomputed,omitempty"`
}

type sweepPatternReply struct {
	Pattern   string       `json:"pattern"`
	Alias     string       `json:"alias,omitempty"`
	Count     int          `json:"count"`
	Stats     StatsJSON    `json:"stats"`
	Instances instanceList `json:"instances,omitempty"`
}
