package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"flatdd/internal/dmav"
	"flatdd/internal/obs"
	"flatdd/internal/serve"
	"flatdd/internal/serve/client"
)

// syncBuffer is a goroutine-safe bytes.Buffer for capturing the server's
// JSONL trace stream while jobs are still finishing.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestTraceEndToEnd submits a job under a caller-provided traceparent and
// follows the trace through the response header, the job view, the
// flight recorder's span tree, and the JSONL sink.
func TestTraceEndToEnd(t *testing.T) {
	sink := &syncBuffer{}
	h := newTestServer(t, serve.Config{Threads: 2, TraceJSONL: sink})

	const callerTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	const callerSpan = "00f067aa0ba902b7"
	resp, err := h.c.Submit(context.Background(), &serve.SubmitRequest{QASM: bellQASM},
		client.WithTraceParent("00-"+callerTrace+"-"+callerSpan+"-01"))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	// The response hands the trace context back: same trace, the job's
	// own (fresh) span as the new parent.
	gotTrace, gotSpan, ok := obs.ParseTraceParent(resp.TraceParent)
	if !ok {
		t.Fatalf("response traceparent %q does not parse", resp.TraceParent)
	}
	if gotTrace.String() != callerTrace {
		t.Errorf("response trace = %s, want caller's %s", gotTrace, callerTrace)
	}
	if gotSpan.String() == callerSpan {
		t.Error("response span id did not change from the caller's")
	}
	v := resp.Job
	if v.Trace != callerTrace {
		t.Errorf("JobView.Trace = %q, want %q", v.Trace, callerTrace)
	}

	h.waitState(v.ID, serve.StateDone)

	// The flight recorder holds the whole span tree, addressable by job
	// ID and by trace ID.
	code, raw := h.do("GET", "/debug/jobs?id="+v.ID, nil)
	if code != 200 {
		t.Fatalf("/debug/jobs?id=: %d %s", code, raw)
	}
	var jt obs.JobTrace
	if err := json.Unmarshal(raw, &jt); err != nil {
		t.Fatal(err)
	}
	if jt.Trace != callerTrace || jt.State != serve.StateDone || jt.Pinned {
		t.Errorf("JobTrace = {trace %s, state %s, pinned %v}, want {%s, done, false}",
			jt.Trace, jt.State, jt.Pinned, callerTrace)
	}
	byName := map[string]obs.SpanRecord{}
	for _, r := range jt.Spans {
		if r.Trace != callerTrace {
			t.Errorf("span %s on trace %s, want %s", r.Name, r.Trace, callerTrace)
		}
		byName[r.Name] = r
	}
	for _, want := range []string{"job", "queued", "run", "phase.dd"} {
		if _, ok := byName[want]; !ok {
			t.Errorf("span %q missing from flight-recorded tree (have %v)", want, names(jt.Spans))
		}
	}
	// Parent links: queued and run hang off job; job's parent is the
	// caller's span from the traceparent header.
	if byName["run"].Parent != byName["job"].Span {
		t.Errorf("run parent = %s, want job span %s", byName["run"].Parent, byName["job"].Span)
	}
	if byName["queued"].Parent != byName["job"].Span {
		t.Errorf("queued parent = %s, want job span %s", byName["queued"].Parent, byName["job"].Span)
	}
	if byName["job"].Parent != callerSpan {
		t.Errorf("job parent = %s, want caller span %s", byName["job"].Parent, callerSpan)
	}
	if byName["phase.dd"].Parent != byName["run"].Span {
		t.Errorf("phase.dd parent = %s, want run span %s", byName["phase.dd"].Parent, byName["run"].Span)
	}

	// The JSONL sink carries the same spans, and nothing but spans: every
	// line names its trace, so concurrent jobs' lines can be told apart.
	out := sink.String()
	for _, want := range []string{`"name":"job"`, `"name":"phase.dd"`, callerTrace} {
		if !strings.Contains(out, want) {
			t.Errorf("trace sink missing %q", want)
		}
	}
	for i, line := range strings.Split(strings.TrimSpace(out), "\n") {
		var r obs.SpanRecord
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("sink line %d is not JSON: %v: %s", i, err, line)
		}
		if r.Event != "span" || len(r.Trace) != 32 {
			t.Errorf("sink line %d is not a span with a trace ID: %s", i, line)
		}
	}
}

func names(spans []obs.SpanRecord) []string {
	out := make([]string, len(spans))
	for i, s := range spans {
		out[i] = s.Name
	}
	return out
}

// TestTraceMintedWithoutHeader pins that a submission without (or with a
// malformed) traceparent still gets a valid fresh trace.
func TestTraceMintedWithoutHeader(t *testing.T) {
	h := newTestServer(t, serve.Config{Threads: 1})
	v := h.submit(&serve.SubmitRequest{QASM: bellQASM})
	if len(v.Trace) != 32 || v.Trace == strings.Repeat("0", 32) {
		t.Errorf("minted trace = %q, want 32 hex chars, nonzero", v.Trace)
	}
	h.waitState(v.ID, serve.StateDone)
	if code, _ := h.do("GET", "/debug/jobs?id="+v.Trace, nil); code != 200 {
		t.Errorf("flight recorder lookup by minted trace: %d", code)
	}
}

// TestFlightRecorderPinsFailures pins that a failed job's trace is
// retained as pinned and survives more healthy traffic than the
// recorder's 64-trace ring holds.
func TestFlightRecorderPinsFailures(t *testing.T) {
	h := newTestServer(t, serve.Config{Threads: 2})
	// A 1ms deadline on a real workload fails with timeout.
	bad := h.submit(&serve.SubmitRequest{Circuit: "qv", N: 14, Seed: 1, TimeoutMS: 1})
	h.waitState(bad.ID, serve.StateFailed)
	// One engine run, then cache hits: each hit is a job of its own and
	// records its own trace.
	first := h.submit(&serve.SubmitRequest{QASM: bellQASM})
	h.waitState(first.ID, serve.StateDone)
	for i := 0; i < 70; i++ {
		h.submit(&serve.SubmitRequest{QASM: bellQASM})
	}
	if code, _ := h.do("GET", "/debug/jobs?id="+first.ID, nil); code != 404 {
		t.Fatalf("oldest healthy trace still retained (%d): the traffic did not wrap the ring", code)
	}
	code, raw := h.do("GET", "/debug/jobs?id="+bad.ID, nil)
	if code != 200 {
		t.Fatalf("failed job evicted from flight recorder: %d", code)
	}
	var jt obs.JobTrace
	if err := json.Unmarshal(raw, &jt); err != nil {
		t.Fatal(err)
	}
	if !jt.Pinned || jt.State != serve.StateFailed || jt.Reason != "timeout" {
		t.Errorf("JobTrace = {pinned %v, state %s, reason %s}, want pinned failed timeout",
			jt.Pinned, jt.State, jt.Reason)
	}
}

// TestHealthzCapacityAndLatency pins the extended /healthz shape:
// capacity limits, uptime, the p50/p95/p99 latency summaries, and the
// result-cache block.
func TestHealthzCapacityAndLatency(t *testing.T) {
	h := newTestServer(t, serve.Config{Threads: 1, QueueDepth: 7, MaxInFlight: 3})
	v := h.submit(&serve.SubmitRequest{QASM: bellQASM})
	h.waitState(v.ID, serve.StateDone)

	code, raw := h.do("GET", "/healthz", nil)
	if code != 200 {
		t.Fatalf("/healthz: %d", code)
	}
	var body struct {
		Status   string  `json:"status"`
		UptimeS  float64 `json:"uptime_s"`
		Capacity struct {
			QueueDepth        int `json:"queue_depth"`
			MaxInflight       int `json:"max_inflight"`
			MaxQubits         int `json:"max_qubits"`
			TenantMaxQueued   int `json:"tenant_max_queued"`
			TenantMaxInflight int `json:"tenant_max_inflight"`
		} `json:"capacity"`
		Latency map[string]struct {
			Count int64   `json:"count"`
			P50   float64 `json:"p50"`
			P99   float64 `json:"p99"`
		} `json:"latency"`
		Cache struct {
			Enabled     bool  `json:"enabled"`
			BudgetBytes int64 `json:"budget_bytes"`
			Entries     int   `json:"entries"`
		} `json:"cache"`
	}
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "ok" || body.UptimeS < 0 {
		t.Errorf("status %q uptime %v", body.Status, body.UptimeS)
	}
	if body.Capacity.QueueDepth != 7 || body.Capacity.MaxInflight != 3 || body.Capacity.MaxQubits != dmav.MaxQubits ||
		body.Capacity.TenantMaxQueued != 7 || body.Capacity.TenantMaxInflight != 3 {
		t.Errorf("capacity = %+v", body.Capacity)
	}
	for _, k := range []string{"queue_wait_ns", "run_ns", "e2e_ns"} {
		l, ok := body.Latency[k]
		if !ok || l.Count < 1 || l.P99 < l.P50 || l.P50 <= 0 {
			t.Errorf("latency[%s] = %+v (present %v)", k, l, ok)
		}
	}
	if !body.Cache.Enabled || body.Cache.BudgetBytes <= 0 || body.Cache.Entries != 1 {
		t.Errorf("cache block = %+v, want enabled with the bell entry", body.Cache)
	}
}
