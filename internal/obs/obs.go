// Package obs is the daemon's request-scoped telemetry layer: structured
// logging on log/slog, request IDs minted in HTTP middleware and threaded
// through jobs and the matcher core, span timelines (typed begin/end events
// accumulated into a per-request tree), and a tail-sampling flight recorder
// holding the last N interesting timelines for /debug/requests.
//
// The package is a stdlib-only leaf so that core, store, jobs, and sweep can
// all import it.  Every entry point is nil-safe: a nil *Timeline or nil
// *Scope swallows calls without allocating, which is what keeps the
// observer-disabled match path at zero extra allocations (pinned by
// TestObserveDisabledNoAllocs in internal/core).
package obs

import (
	"context"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Span kinds.  The set is closed on purpose: /metrics renders one
// subgeminid_request_spans_total{kind=...} series per entry of SpanKinds,
// so an unknown kind would be invisible there (it still shows up in the
// timeline itself).
const (
	KindQueueWait    = "queue-wait"    // admission semaphore / job queue wait
	KindShedCheck    = "shed-check"    // load-shed admission decision
	KindStoreGet     = "store-get"     // circuit store handle acquisition
	KindCSRBuild     = "csr-build"     // CSR adjacency construction
	KindMatcherSetup = "matcher-setup" // view adoption, global overlay, initial labels
	KindPhase1       = "phase1"        // SubGemini Phase I relabeling
	KindPhase2       = "phase2"        // SubGemini Phase II verification
	KindCacheLookup  = "cache-lookup"  // pattern / result-cache lookup
	KindPersist      = "persist"       // store write (PUT, PATCH, pattern save)
	KindEncode       = "encode"        // response encoding and write
)

// SpanKinds enumerates every span kind in the order /metrics renders them.
var SpanKinds = []string{
	KindQueueWait, KindShedCheck, KindStoreGet, KindCSRBuild,
	KindMatcherSetup, KindPhase1, KindPhase2, KindCacheLookup, KindPersist,
	KindEncode,
}

// SpanRef identifies a span inside one Timeline.  NoSpan is the nil value:
// Begin on a nil timeline returns it, and End/Attr on it are no-ops, so
// callers never need to branch.
type SpanRef int32

// NoSpan is the SpanRef returned when no timeline is recording.
const NoSpan SpanRef = -1

// Attr is one key/value annotation on a span.  Values are pre-rendered
// strings: rendering happens only when a timeline is actually recording,
// never on the disabled path.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed event inside a timeline.  Start and End are nanosecond
// offsets from the timeline start; End == 0 means the span never ended
// (the request finished first — rendered with its duration open).
type Span struct {
	Kind    string
	Name    string
	Parent  SpanRef
	StartNS int64
	EndNS   int64
	Attrs   []Attr
}

// Timeline accumulates the spans of one request (HTTP or job).  All methods
// are safe for concurrent use — sweep workers append spans from many
// goroutines — and safe on a nil receiver.
type Timeline struct {
	mu        sync.Mutex
	id        string
	scope     string // "http" or "job:<kind>"
	method    string
	path      string
	start     time.Time
	startWall time.Time
	status    int
	cancelled bool
	reason    string
	durNS     int64
	done      bool
	spans     []Span
}

// NewTimeline starts a timeline for one request.  scope is "http" for
// handler-driven work and "job:<kind>" for async job execution; method and
// path describe the triggering call ("POST /v1/match", or the job kind).
func NewTimeline(id, scope, method, path string) *Timeline {
	now := time.Now()
	return &Timeline{id: id, scope: scope, method: method, path: path, start: now, startWall: now}
}

// ID returns the request ID the timeline was minted with ("" on nil).
func (t *Timeline) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Begin opens a span under parent (NoSpan for a root span) and returns its
// reference.  On a nil timeline it returns NoSpan without allocating.
func (t *Timeline) Begin(parent SpanRef, kind, name string) SpanRef {
	if t == nil {
		return NoSpan
	}
	t.mu.Lock()
	ref := SpanRef(len(t.spans))
	t.spans = append(t.spans, Span{Kind: kind, Name: name, Parent: parent, StartNS: int64(time.Since(t.start))})
	t.mu.Unlock()
	return ref
}

// End closes the span.  No-op on a nil timeline or NoSpan.
func (t *Timeline) End(ref SpanRef) {
	if t == nil || ref < 0 {
		return
	}
	t.mu.Lock()
	if int(ref) < len(t.spans) && t.spans[ref].EndNS == 0 {
		t.spans[ref].EndNS = int64(time.Since(t.start))
	}
	t.mu.Unlock()
}

// Attr annotates the span with a string value.
func (t *Timeline) Attr(ref SpanRef, key, value string) {
	if t == nil || ref < 0 {
		return
	}
	t.mu.Lock()
	if int(ref) < len(t.spans) {
		t.spans[ref].Attrs = append(t.spans[ref].Attrs, Attr{Key: key, Value: value})
	}
	t.mu.Unlock()
}

// AttrInt annotates the span with an integer value.  The strconv render
// happens only here — i.e. only when a timeline is recording.
func (t *Timeline) AttrInt(ref SpanRef, key string, value int64) {
	if t == nil || ref < 0 {
		return
	}
	t.Attr(ref, key, strconv.FormatInt(value, 10))
}

// SetCancelled marks the request as cancelled (deadline or client gone);
// the tail sampler always keeps cancelled timelines.
func (t *Timeline) SetCancelled() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.cancelled = true
	t.mu.Unlock()
}

// Finish seals the timeline with the final status code and total duration.
// Idempotent; later calls keep the first outcome.
func (t *Timeline) Finish(status int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if !t.done {
		t.done = true
		t.status = status
		t.durNS = int64(time.Since(t.start))
	}
	t.mu.Unlock()
}

// Scope returns a span scope rooted at parent, the form core.Options.Observe
// takes.  A nil timeline yields a nil scope, on which every method is a
// no-op.
func (t *Timeline) Scope(parent SpanRef) *Scope {
	if t == nil {
		return nil
	}
	return &Scope{tl: t, parent: parent}
}

// Scope is a (timeline, parent span) pair handed into lower layers — the
// matcher core, the sweep engine — so they can hang spans off the request
// without knowing about HTTP.  Nil-safe throughout.
type Scope struct {
	tl     *Timeline
	parent SpanRef
}

// Begin opens a child span of the scope's parent.
func (s *Scope) Begin(kind, name string) SpanRef {
	if s == nil {
		return NoSpan
	}
	return s.tl.Begin(s.parent, kind, name)
}

// End closes the span.
func (s *Scope) End(ref SpanRef) {
	if s == nil {
		return
	}
	s.tl.End(ref)
}

// Attr annotates the span with a string value.
func (s *Scope) Attr(ref SpanRef, key, value string) {
	if s == nil {
		return
	}
	s.tl.Attr(ref, key, value)
}

// AttrInt annotates the span with an integer value.
func (s *Scope) AttrInt(ref SpanRef, key string, value int64) {
	if s == nil {
		return
	}
	s.tl.AttrInt(ref, key, value)
}

// Timeline returns the underlying timeline (nil on a nil scope).
func (s *Scope) Timeline() *Timeline {
	if s == nil {
		return nil
	}
	return s.tl
}

// ---------------------------------------------------------------------------
// Context plumbing

type ctxKey struct{}

// NewContext returns ctx carrying the timeline.
func NewContext(ctx context.Context, t *Timeline) context.Context {
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the timeline carried by ctx, or nil.
func FromContext(ctx context.Context) *Timeline {
	t, _ := ctx.Value(ctxKey{}).(*Timeline)
	return t
}

// RequestID returns the request ID carried by ctx ("" when none).
func RequestID(ctx context.Context) string {
	return FromContext(ctx).ID()
}

// ScopeFromContext returns a root-level span scope for the timeline in ctx,
// or nil when none is recording.
func ScopeFromContext(ctx context.Context) *Scope {
	return FromContext(ctx).Scope(NoSpan)
}

// ---------------------------------------------------------------------------
// JSON snapshot

// SpanJSON is the wire form of one span in /debug/requests/{id}.
type SpanJSON struct {
	Kind    string            `json:"kind"`
	Name    string            `json:"name,omitempty"`
	Parent  int32             `json:"parent"`
	StartUS int64             `json:"start_us"`
	DurUS   int64             `json:"dur_us"`
	Open    bool              `json:"open,omitempty"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// TimelineJSON is the wire form of one timeline.
type TimelineJSON struct {
	RequestID   string     `json:"request_id"`
	Scope       string     `json:"scope"`
	Method      string     `json:"method,omitempty"`
	Path        string     `json:"path,omitempty"`
	Status      int        `json:"status"`
	Cancelled   bool       `json:"cancelled,omitempty"`
	KeepReason  string     `json:"keep_reason,omitempty"`
	StartUnixMS int64      `json:"start_unix_ms"`
	DurationUS  int64      `json:"duration_us"`
	Spans       []SpanJSON `json:"spans"`
}

// JSON snapshots the timeline.  Safe while spans are still being appended
// (the snapshot is taken under the timeline lock).
func (t *Timeline) JSON() TimelineJSON {
	if t == nil {
		return TimelineJSON{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := TimelineJSON{
		RequestID:   t.id,
		Scope:       t.scope,
		Method:      t.method,
		Path:        t.path,
		Status:      t.status,
		Cancelled:   t.cancelled,
		KeepReason:  t.reason,
		StartUnixMS: t.startWall.UnixMilli(),
		DurationUS:  t.durNS / 1e3,
		Spans:       make([]SpanJSON, len(t.spans)),
	}
	for i, sp := range t.spans {
		sj := SpanJSON{
			Kind:    sp.Kind,
			Name:    sp.Name,
			Parent:  int32(sp.Parent),
			StartUS: sp.StartNS / 1e3,
		}
		if sp.EndNS > 0 {
			sj.DurUS = (sp.EndNS - sp.StartNS) / 1e3
		} else {
			sj.Open = true
			sj.DurUS = (t.durNS - sp.StartNS) / 1e3
			if sj.DurUS < 0 {
				sj.DurUS = 0
			}
		}
		if len(sp.Attrs) > 0 {
			sj.Attrs = make(map[string]string, len(sp.Attrs))
			for _, a := range sp.Attrs {
				sj.Attrs[a.Key] = a.Value
			}
		}
		out.Spans[i] = sj
	}
	return out
}

// TopSpans returns the n longest closed spans, longest first — the inline
// payload of the slow-request log line.
func (t *Timeline) TopSpans(n int) []SpanJSON {
	if t == nil {
		return nil
	}
	js := t.JSON()
	sort.SliceStable(js.Spans, func(i, j int) bool { return js.Spans[i].DurUS > js.Spans[j].DurUS })
	if len(js.Spans) > n {
		js.Spans = js.Spans[:n]
	}
	return js.Spans
}
