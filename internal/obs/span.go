package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	mrand "math/rand"
	"sync"
	"time"
)

// This file is the request-scoped tracing layer: a Span carries a trace
// ID, a span ID and a parent link, accumulates attributes, and emits one
// JSONL record when ended. Spans follow the package's nil-handle
// convention — the nil *Tracer and nil *Span are valid no-ops, so
// instrumented code pays one pointer check when tracing is off.
//
// Trace identity is W3C Trace Context compatible: a 16-byte trace ID and
// an 8-byte span ID, carried over HTTP as a `traceparent` header
// (ParseTraceParent / TraceParent), so a future cluster coordinator can
// stitch one request's spans across processes.

// TraceID identifies one end-to-end request (a job, a CLI run). The zero
// value means "no trace".
type TraceID [16]byte

// SpanID identifies one span within a trace. The zero value means "no
// parent".
type SpanID [8]byte

// IsZero reports whether the trace ID is unset.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the span ID is unset.
func (s SpanID) IsZero() bool { return s == SpanID{} }

func (t TraceID) String() string { return hex.EncodeToString(t[:]) }
func (s SpanID) String() string  { return hex.EncodeToString(s[:]) }

// TraceParent renders a W3C traceparent header value (version 00,
// sampled flag set): "00-<32 hex trace>-<16 hex span>-01".
func TraceParent(t TraceID, s SpanID) string {
	return "00-" + t.String() + "-" + s.String() + "-01"
}

// ParseTraceParent parses a W3C traceparent header value. It accepts any
// version byte (per spec, unknown versions are parsed as version 00 if
// the first four fields are well-formed) and rejects all-zero trace or
// span IDs, as the spec requires.
func ParseTraceParent(h string) (TraceID, SpanID, bool) {
	var t TraceID
	var s SpanID
	if len(h) < 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return t, s, false
	}
	if _, err := hex.Decode(t[:], []byte(h[3:35])); err != nil {
		return TraceID{}, SpanID{}, false
	}
	if _, err := hex.Decode(s[:], []byte(h[36:52])); err != nil {
		return TraceID{}, SpanID{}, false
	}
	if t.IsZero() || s.IsZero() {
		return TraceID{}, SpanID{}, false
	}
	return t, s, true
}

// SpanRecord is the JSONL wire form of one completed span. The schema is
// pinned by a golden-file test (span_test.go) and documented in
// DESIGN.md §10: renaming or retyping a field is a breaking change for
// trace-consuming tooling and must fail that test first.
type SpanRecord struct {
	Event      string         `json:"event"` // always "span"
	Trace      string         `json:"trace"`
	Span       string         `json:"span"`
	Parent     string         `json:"parent,omitempty"`
	Name       string         `json:"name"`
	StartUS    int64          `json:"start_us"` // Unix microseconds
	DurationNS int64          `json:"duration_ns"`
	Attrs      map[string]any `json:"attrs,omitempty"`
}

// defaultMaxSpans bounds how many records one trace collects in memory
// for the flight recorder; later spans are still written to the JSONL
// sink but counted as dropped in the collector.
const defaultMaxSpans = 1024

// Tracer mints spans and owns their sink: completed spans are emitted to
// the TraceWriter (when one is attached) and collected per trace for the
// flight recorder. The nil *Tracer is a valid no-op whose spans are all
// nil.
type Tracer struct {
	tw *TraceWriter // may be nil: collect-only tracing

	mu  sync.Mutex
	rng *mrand.Rand // seeded from crypto/rand; guarded by mu
	max int         // per-trace collection cap
}

// NewTracer returns a tracer writing completed spans to tw (nil is
// allowed: spans are then only collected in memory, which is all the
// flight recorder needs).
func NewTracer(tw *TraceWriter) *Tracer {
	var seed [8]byte
	if _, err := rand.Read(seed[:]); err != nil {
		binary.LittleEndian.PutUint64(seed[:], uint64(time.Now().UnixNano()))
	}
	return &Tracer{
		tw:  tw,
		rng: mrand.New(mrand.NewSource(int64(binary.LittleEndian.Uint64(seed[:])))),
		max: defaultMaxSpans,
	}
}

func (t *Tracer) randTraceID() TraceID {
	var id TraceID
	t.mu.Lock()
	binary.LittleEndian.PutUint64(id[:8], t.rng.Uint64())
	binary.LittleEndian.PutUint64(id[8:], t.rng.Uint64())
	t.mu.Unlock()
	return id
}

func (t *Tracer) randSpanID() SpanID {
	var id SpanID
	t.mu.Lock()
	binary.LittleEndian.PutUint64(id[:], t.rng.Uint64())
	t.mu.Unlock()
	if id.IsZero() {
		id[0] = 1 // the zero span ID means "no parent"
	}
	return id
}

// spanCollector accumulates the completed spans of one trace, shared by
// every span under the same root.
type spanCollector struct {
	mu      sync.Mutex
	recs    []SpanRecord
	dropped int
	max     int
}

func (c *spanCollector) add(r SpanRecord) {
	c.mu.Lock()
	if len(c.recs) < c.max {
		c.recs = append(c.recs, r)
	} else {
		c.dropped++
	}
	c.mu.Unlock()
}

// Span is one timed operation within a trace. Create roots with
// Tracer.Root, children with Span.Child, and finish with End — a span
// that is never ended is never emitted. The nil *Span is a valid no-op.
// A Span's methods are safe for concurrent use, but a span is normally
// owned by one goroutine at a time.
type Span struct {
	tr  *Tracer
	col *spanCollector

	trace  TraceID
	id     SpanID
	parent SpanID
	name   string
	start  time.Time

	mu    sync.Mutex
	attrs map[string]any
	ended bool
}

// Root starts a root span. A zero trace ID mints a fresh trace; a
// non-zero one (typically from an incoming traceparent header) continues
// the remote trace with parent as the remote caller's span.
func (t *Tracer) Root(name string, trace TraceID, parent SpanID) *Span {
	if t == nil {
		return nil
	}
	if trace.IsZero() {
		trace = t.randTraceID()
	}
	return &Span{
		tr:     t,
		col:    &spanCollector{max: t.max},
		trace:  trace,
		id:     t.randSpanID(),
		parent: parent,
		name:   name,
		start:  time.Now(),
	}
}

// Child starts a sub-span. No-op (returns nil) on a nil receiver, so
// deep call chains stay allocation-free when tracing is off.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return &Span{
		tr:     s.tr,
		col:    s.col,
		trace:  s.trace,
		id:     s.tr.randSpanID(),
		parent: s.id,
		name:   name,
		start:  time.Now(),
	}
}

// Trace returns the span's trace ID (zero for a nil span).
func (s *Span) Trace() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.trace
}

// ID returns the span's own ID (zero for a nil span).
func (s *Span) ID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.id
}

// SetAttr attaches one attribute. Later writes to the same key win.
// No-op on a nil receiver.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]any, 8)
	}
	s.attrs[key] = value
	s.mu.Unlock()
}

// End finishes the span: its record is appended to the trace's collector
// and written to the tracer's JSONL sink. End is idempotent; only the
// first call emits.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := time.Now()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	rec := SpanRecord{
		Event:      "span",
		Trace:      s.trace.String(),
		Span:       s.id.String(),
		Name:       s.name,
		StartUS:    s.start.UnixMicro(),
		DurationNS: end.Sub(s.start).Nanoseconds(),
		Attrs:      s.attrs,
	}
	s.attrs = nil // the record owns the map now
	s.mu.Unlock()
	if !s.parent.IsZero() {
		rec.Parent = s.parent.String()
	}
	s.col.add(rec)
	s.tr.tw.Emit(rec)
}

// Collected returns the completed spans of this span's trace so far
// (submission order) and how many were dropped over the collection cap.
// Typically called on the root after End to hand the tree to the flight
// recorder.
func (s *Span) Collected() ([]SpanRecord, int) {
	if s == nil {
		return nil, 0
	}
	s.col.mu.Lock()
	out := make([]SpanRecord, len(s.col.recs))
	copy(out, s.col.recs)
	d := s.col.dropped
	s.col.mu.Unlock()
	return out, d
}

// spanCtxKey carries the active span through a context.
type spanCtxKey struct{}

// ContextWithSpan returns a context carrying the span; engine layers
// below (core.RunContext) pick it up and hang their phase spans off it.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFromContext returns the span carried by ctx, or nil — and every
// method of a nil span no-ops, so callers use the result unconditionally.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}
