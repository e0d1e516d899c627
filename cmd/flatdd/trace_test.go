package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"flatdd/internal/circuit"
	"flatdd/internal/core"
	"flatdd/internal/obs"
	"flatdd/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// traceOut runs c the way `flatdd -trace-out` does, with the -trace
// printer writing to printed when it is non-nil, and returns the JSONL
// stream split into gate lines and span records.
func traceOut(t *testing.T, c *circuit.Circuit, opts core.Options, printed io.Writer) (core.Stats, [][]byte, []obs.SpanRecord) {
	t.Helper()
	var buf bytes.Buffer
	tw := obs.NewTraceWriter(&buf)
	opts.Trace = traceHook(printed, tw)
	st, err := runTraced(context.Background(), core.New(c.Qubits, opts), c, tw)
	if err != nil {
		t.Fatal(err)
	}
	var gates [][]byte
	var spans []obs.SpanRecord
	for i, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		var rec struct{ Event string }
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", i, err)
		}
		switch rec.Event {
		case "gate":
			gates = append(gates, line)
		case "span":
			var sr obs.SpanRecord
			if err := json.Unmarshal(line, &sr); err != nil {
				t.Fatal(err)
			}
			spans = append(spans, sr)
		default:
			t.Fatalf("line %d has event %q: %s", i, rec.Event, line)
		}
	}
	return st, gates, spans
}

// rootSpan returns the parentless "run" span and checks that every span
// shares its trace.
func rootSpan(t *testing.T, spans []obs.SpanRecord) obs.SpanRecord {
	t.Helper()
	var root *obs.SpanRecord
	for i, s := range spans {
		if s.Parent == "" {
			if root != nil {
				t.Fatalf("two root spans: %s and %s", root.Name, s.Name)
			}
			root = &spans[i]
		}
	}
	if root == nil || root.Name != "run" {
		t.Fatalf("no root run span in %d spans", len(spans))
	}
	for _, s := range spans {
		if s.Trace != root.Trace {
			t.Fatalf("span %s on trace %s, root on %s", s.Name, s.Trace, root.Trace)
		}
	}
	return *root
}

// checkSummary checks the run summary on the root span against want
// (JSON numbers decode as float64).
func checkSummary(t *testing.T, root obs.SpanRecord, want map[string]any) {
	t.Helper()
	for k, v := range want {
		if got := root.Attrs[k]; got != v {
			t.Errorf("root span %s = %v (%T), want %v", k, got, got, v)
		}
	}
}

// durationField zeroes the wall-clock field of a gate line, so runs are
// byte-comparable across machines.
var durationField = regexp.MustCompile(`"duration_ns":\d+`)

// TestTraceOutGoldenGHZ locks down the gate-line schema of -trace-out with
// a golden file: a GHZ run is fully deterministic (gate order, phases, DD
// sizes, EWMA values) apart from wall-clock durations, which are
// normalized to 0. Regenerate with `go test ./cmd/flatdd -run GoldenGHZ
// -update`.
func TestTraceOutGoldenGHZ(t *testing.T) {
	_, gates, spans := traceOut(t, workloads.GHZ(4), core.Options{}, nil)
	var got []byte
	for _, g := range gates {
		got = append(got, durationField.ReplaceAll(g, []byte(`"duration_ns":0`))...)
		got = append(got, '\n')
	}

	golden := filepath.Join("testdata", "ghz_trace.golden.jsonl")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create it): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("gate lines differ from golden file.\ngot:\n%s\nwant:\n%s", got, want)
	}
	checkSummary(t, rootSpan(t, spans), map[string]any{
		"gates": 4.0, "converted_at": -1.0, "final_phase": "dd",
		"peak_dd_nodes": 43.0, "timed_out": false,
	})
}

// TestTraceOutPhaseFlip drives a run that converts mid-circuit and checks
// the stream end to end: one gate line per gate with the documented
// fields, the phase flips from "dd" to "dmav" exactly at ConvertedAtGate,
// only the gate before it is flagged converted, the engine's phase spans
// hang off the root span, and the root span summarizes the run. The -trace
// printer, composed on the same hook, prints one line per gate.
func TestTraceOutPhaseFlip(t *testing.T) {
	const at = 10
	c := workloads.SupremacyGrid(7, 8, 3)
	var printed bytes.Buffer
	st, gates, spans := traceOut(t, c, core.Options{ForceConvertAfter: at}, &printed)
	if st.ConvertedAtGate != at {
		t.Fatalf("ConvertedAtGate = %d, want %d", st.ConvertedAtGate, at)
	}
	n := c.GateCount()
	if len(gates) != n {
		t.Fatalf("got %d gate lines, want %d", len(gates), n)
	}
	for i, line := range gates {
		var rec map[string]any
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		for _, field := range []string{"event", "gate", "phase", "dd_size", "ewma", "duration_ns", "converted"} {
			if _, ok := rec[field]; !ok {
				t.Fatalf("line %d missing field %q: %s", i, field, line)
			}
		}
		if len(rec) != 7 {
			t.Fatalf("line %d has %d fields, want 7: %s", i, len(rec), line)
		}
		if int(rec["gate"].(float64)) != i {
			t.Fatalf("line %d is gate %v", i, rec["gate"])
		}
		wantPhase := "dd"
		if i >= at {
			wantPhase = "dmav"
		}
		if rec["phase"] != wantPhase {
			t.Fatalf("gate %d phase = %v, want %s", i, rec["phase"], wantPhase)
		}
		if conv := rec["converted"].(bool); conv != (i == at-1) {
			t.Fatalf("gate %d converted = %v", i, conv)
		}
	}

	lines := strings.Split(strings.TrimSuffix(printed.String(), "\n"), "\n")
	if len(lines) != n {
		t.Fatalf("-trace printed %d lines, want %d", len(lines), n)
	}
	if !strings.HasSuffix(lines[at-1], "<= convert to DMAV") || !strings.Contains(lines[at], "[dmav]") {
		t.Fatalf("-trace lines around the conversion:\n%s\n%s", lines[at-1], lines[at])
	}

	root := rootSpan(t, spans)
	checkSummary(t, root, map[string]any{
		"gates": float64(n), "converted_at": float64(at), "final_phase": "dmav",
		"peak_dd_nodes": float64(st.PeakDDNodes), "timed_out": false,
	})
	phases := map[string]bool{}
	for _, s := range spans {
		if s.Parent == root.Span {
			phases[s.Name] = true
		}
	}
	for _, want := range []string{"phase.dd", "phase.convert", "phase.fuse", "phase.dmav"} {
		if !phases[want] {
			t.Errorf("no %s span under the root (have %v)", want, phases)
		}
	}
}
