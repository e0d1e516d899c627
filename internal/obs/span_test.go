package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestTraceParentRoundTrip(t *testing.T) {
	tr := NewTracer(nil)
	root := tr.Root("job", TraceID{}, SpanID{})
	h := TraceParent(root.Trace(), root.ID())
	tid, sid, ok := ParseTraceParent(h)
	if !ok {
		t.Fatalf("ParseTraceParent(%q) failed", h)
	}
	if tid != root.Trace() || sid != root.ID() {
		t.Fatalf("round trip mismatch: got %s/%s want %s/%s", tid, sid, root.Trace(), root.ID())
	}
}

func TestParseTraceParentRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"00",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",    // missing flags
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", // zero span
		"00-zzf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // non-hex
		"004bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // no dash
	}
	for _, h := range bad {
		if _, _, ok := ParseTraceParent(h); ok {
			t.Errorf("ParseTraceParent(%q) accepted malformed input", h)
		}
	}
	good := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	if _, _, ok := ParseTraceParent(good); !ok {
		t.Errorf("ParseTraceParent(%q) rejected valid input", good)
	}
}

func TestSpanTreeCollected(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	tr := NewTracer(tw)

	root := tr.Root("job", TraceID{}, SpanID{})
	root.SetAttr("circuit", "ghz")
	queued := root.Child("queued")
	queued.End()
	run := root.Child("run")
	dd := run.Child("phase.dd")
	dd.SetAttr("gates", 12)
	dd.End()
	run.End()
	root.End()

	recs, dropped := root.Collected()
	if dropped != 0 {
		t.Fatalf("dropped = %d, want 0", dropped)
	}
	if len(recs) != 4 {
		t.Fatalf("collected %d spans, want 4", len(recs))
	}
	// End order: queued, phase.dd, run, job.
	byName := map[string]SpanRecord{}
	for _, r := range recs {
		if r.Event != "span" {
			t.Fatalf("event = %q, want span", r.Event)
		}
		if r.Trace != root.Trace().String() {
			t.Fatalf("span %s on trace %s, want %s", r.Name, r.Trace, root.Trace())
		}
		byName[r.Name] = r
	}
	if byName["queued"].Parent != root.ID().String() {
		t.Errorf("queued parent = %q, want root %q", byName["queued"].Parent, root.ID())
	}
	if byName["phase.dd"].Parent != byName["run"].Span {
		t.Errorf("phase.dd parent = %q, want run %q", byName["phase.dd"].Parent, byName["run"].Span)
	}
	if byName["job"].Parent != "" {
		t.Errorf("root parent = %q, want empty", byName["job"].Parent)
	}
	if byName["phase.dd"].Attrs["gates"] != 12 {
		t.Errorf("phase.dd gates attr = %v, want 12", byName["phase.dd"].Attrs["gates"])
	}

	// The same four spans went to the JSONL sink.
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("JSONL sink has %d lines, want 4", len(lines))
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	tr := NewTracer(nil)
	root := tr.Root("job", TraceID{}, SpanID{})
	root.End()
	root.End()
	recs, _ := root.Collected()
	if len(recs) != 1 {
		t.Fatalf("double End emitted %d records, want 1", len(recs))
	}
}

func TestSpanCollectionCap(t *testing.T) {
	tr := NewTracer(nil)
	tr.SetMaxSpans(3)
	root := tr.Root("job", TraceID{}, SpanID{})
	for i := 0; i < 10; i++ {
		root.Child("c").End()
	}
	root.End()
	recs, dropped := root.Collected()
	if len(recs) != 3 {
		t.Fatalf("collected %d, want cap 3", len(recs))
	}
	if dropped != 8 { // 7 children + the root itself
		t.Fatalf("dropped = %d, want 8", dropped)
	}
}

func TestNilSpanAndTracerNoOps(t *testing.T) {
	var tr *Tracer
	root := tr.Root("job", TraceID{}, SpanID{})
	if root != nil {
		t.Fatal("nil tracer minted a span")
	}
	child := root.Child("x") // must not panic
	child.SetAttr("k", 1)
	child.End()
	if recs, d := root.Collected(); recs != nil || d != 0 {
		t.Fatal("nil span collected records")
	}
	if !root.Trace().IsZero() || !root.ID().IsZero() {
		t.Fatal("nil span has identity")
	}
	ctx := ContextWithSpan(context.Background(), nil)
	if SpanFromContext(ctx) != nil {
		t.Fatal("nil span round-tripped through context")
	}
}

func TestSpanContextPropagation(t *testing.T) {
	tr := NewTracer(nil)
	root := tr.Root("job", TraceID{}, SpanID{})
	ctx := ContextWithSpan(context.Background(), root)
	got := SpanFromContext(ctx)
	if got != root {
		t.Fatal("span did not round-trip through context")
	}
	if SpanFromContext(context.Background()) != nil {
		t.Fatal("empty context produced a span")
	}
}

func TestSpanConcurrentChildren(t *testing.T) {
	tr := NewTracer(nil)
	root := tr.Root("job", TraceID{}, SpanID{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				c := root.Child("w")
				c.SetAttr("j", j)
				c.End()
			}
		}()
	}
	wg.Wait()
	root.End()
	recs, dropped := root.Collected()
	if len(recs)+dropped != 8*50+1 {
		t.Fatalf("collected %d + dropped %d, want %d total", len(recs), dropped, 8*50+1)
	}
}

// TestSpanSchemaGolden pins the span JSONL wire schema: field names,
// order and types. If this test fails, trace-consuming tooling breaks —
// bump the consumers and regenerate with UPDATE_SPAN_GOLDEN=1.
func TestSpanSchemaGolden(t *testing.T) {
	var tid TraceID
	var sid, pid SpanID
	for i := range tid {
		tid[i] = byte(i)
	}
	for i := range sid {
		sid[i] = byte(0x10 + i)
	}
	for i := range pid {
		pid[i] = byte(0x20 + i)
	}
	recs := []SpanRecord{
		{
			Event: "span", Trace: tid.String(), Span: sid.String(),
			Name: "job", StartUS: 1700000000000000, DurationNS: 123456789,
			Attrs: map[string]any{"circuit": "ghz", "qubits": 20, "state": "done"},
		},
		{
			Event: "span", Trace: tid.String(), Span: pid.String(), Parent: sid.String(),
			Name: "phase.dd", StartUS: 1700000000000100, DurationNS: 1000,
		},
	}
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	for _, r := range recs {
		tw.Emit(r)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "span_schema.golden")
	if os.Getenv("UPDATE_SPAN_GOLDEN") != "" {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v (regenerate with UPDATE_SPAN_GOLDEN=1)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("span JSONL schema drifted from golden file.\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}

	// A live emitted span must carry exactly the pinned key set.
	tr := NewTracer(nil)
	root := tr.Root("job", TraceID{}, SpanID{})
	root.Child("x").End()
	root.End()
	live, _ := root.Collected()
	for _, r := range live {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatal(err)
		}
		allowed := map[string]bool{
			"event": true, "trace": true, "span": true, "parent": true,
			"name": true, "start_us": true, "duration_ns": true, "attrs": true,
		}
		for k := range m {
			if !allowed[k] {
				t.Errorf("emitted span has unpinned field %q — update the golden schema first", k)
			}
		}
	}
}
