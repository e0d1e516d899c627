package harness

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"flatdd/internal/core"
	"flatdd/internal/obs"
)

func tinyCfg(buf *bytes.Buffer) Config {
	return Config{Scale: ScaleTiny, Threads: 4, Timeout: 30 * time.Second, Out: buf}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{1, 100}); math.Abs(g-10) > 1e-9 {
		t.Fatalf("GeoMean(1,100) = %v", g)
	}
	if g := GeoMean([]float64{4}); math.Abs(g-4) > 1e-9 {
		t.Fatalf("GeoMean(4) = %v", g)
	}
	if g := GeoMean(nil); g != 0 {
		t.Fatalf("GeoMean(nil) = %v", g)
	}
	// Non-positive values are skipped.
	if g := GeoMean([]float64{0, -1, 9}); math.Abs(g-9) > 1e-9 {
		t.Fatalf("GeoMean with junk = %v", g)
	}
}

func TestTableRender(t *testing.T) {
	var buf bytes.Buffer
	tbl := NewTable("Title", "A", "B")
	tbl.AddRow("x", 1.5)
	tbl.AddRow("yy", time.Second)
	tbl.Render(&buf)
	out := buf.String()
	for _, want := range []string{"Title", "| A ", "1.50", "1.00 s"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestRunEnginesAgreeOnResultShape(t *testing.T) {
	nc := Fig1Circuits(ScaleTiny)[0]
	f := RunFlatDD(nc.C, core.Options{Threads: 2}, time.Minute)
	d := RunDDSIM(nc.C, time.Minute)
	q := RunStatevec(nc.C, 2, time.Minute)
	for _, r := range []Result{f, d, q} {
		if r.Gates != nc.C.GateCount() || r.Qubits != nc.C.Qubits {
			t.Fatalf("result shape wrong: %+v", r)
		}
		if r.Runtime <= 0 {
			t.Fatalf("%s runtime not measured", r.Engine)
		}
		if r.Memory == 0 {
			t.Fatalf("%s memory not estimated", r.Engine)
		}
	}
	if f.Engine != EngineFlatDD || d.Engine != EngineDDSIM || q.Engine != EngineQuantum {
		t.Fatal("engine labels wrong")
	}
}

func TestTimeoutMarksResult(t *testing.T) {
	nc := Table1Circuits(ScaleSmall)[2] // DNN-14, long enough to exceed 1ns
	r := RunDDSIM(nc.C, time.Nanosecond)
	if !r.TimedOut {
		t.Fatal("1ns timeout did not trigger")
	}
}

func TestCircuitSetsWellFormed(t *testing.T) {
	for _, scale := range []Scale{ScaleTiny, ScaleSmall, ScalePaper} {
		if got := len(Table1Circuits(scale)); got != 12 {
			t.Fatalf("%s: table1 has %d circuits", scale, got)
		}
		if got := len(Fig1Circuits(scale)); got != 4 {
			t.Fatalf("%s: fig1 has %d circuits", scale, got)
		}
		if got := len(DeepCircuits(scale)); got != 6 {
			t.Fatalf("%s: deep set has %d circuits", scale, got)
		}
		if got := len(ScalabilityCircuits(scale)); got != 2 {
			t.Fatalf("%s: scalability set has %d circuits", scale, got)
		}
		if got := len(ConversionCircuits(scale)); got != 10 {
			t.Fatalf("%s: conversion set has %d circuits", scale, got)
		}
	}
}

func TestFig1Tiny(t *testing.T) {
	var buf bytes.Buffer
	results := Fig1(tinyCfg(&buf))
	if len(results) != 8 {
		t.Fatalf("fig1 produced %d results", len(results))
	}
	if !strings.Contains(buf.String(), "Figure 1") {
		t.Fatal("missing title")
	}
}

func TestFig3Tiny(t *testing.T) {
	var buf bytes.Buffer
	st := Fig3(tinyCfg(&buf))
	if st.Gates == 0 {
		t.Fatal("fig3 ran nothing")
	}
	if !strings.Contains(buf.String(), "Figure 3") {
		t.Fatal("missing title")
	}
}

func TestTable1Tiny(t *testing.T) {
	var buf bytes.Buffer
	results := Table1(tinyCfg(&buf))
	if len(results) != 36 {
		t.Fatalf("table1 produced %d results", len(results))
	}
	out := buf.String()
	for _, want := range []string{"Table 1", "Geomean", "DNN-8", "Supremacy-9"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 output missing %q", want)
		}
	}
}

func TestFig12Tiny(t *testing.T) {
	var buf bytes.Buffer
	out := Fig12(tinyCfg(&buf))
	if len(out) != 2 {
		t.Fatalf("fig12 covered %d circuits", len(out))
	}
	for label, rows := range out {
		if len(rows) != 6 {
			t.Fatalf("%s has %d thread rows", label, len(rows))
		}
		if _, ok := rows[3]; !ok {
			t.Fatalf("%s missing the non-power-of-two threads=3 row", label)
		}
	}
}

func TestFig13Tiny(t *testing.T) {
	var buf bytes.Buffer
	Fig13(tinyCfg(&buf))
	if !strings.Contains(buf.String(), "Figure 13") {
		t.Fatal("missing title")
	}
}

func TestFig14Tiny(t *testing.T) {
	var buf bytes.Buffer
	Fig14(tinyCfg(&buf))
	out := buf.String()
	if !strings.Contains(out, "Figure 14") || !strings.Contains(out, "16") {
		t.Fatalf("fig14 output incomplete:\n%s", out)
	}
}

func TestTable2Tiny(t *testing.T) {
	var buf bytes.Buffer
	Table2(tinyCfg(&buf))
	out := buf.String()
	for _, want := range []string{"Table 2", "Geomean"} {
		if !strings.Contains(out, want) {
			t.Errorf("table2 output missing %q", want)
		}
	}
}

func TestRunExperimentDispatch(t *testing.T) {
	var buf bytes.Buffer
	if err := RunExperiment("fig1", tinyCfg(&buf)); err != nil {
		t.Fatal(err)
	}
	if err := RunExperiment("bogus", tinyCfg(&buf)); err == nil {
		t.Fatal("bogus experiment accepted")
	}
	cfg := tinyCfg(&buf)
	cfg.Scale = "medium"
	if err := RunExperiment("fig1", cfg); err == nil {
		t.Fatal("unknown scale accepted")
	}
}

func TestAblationTiny(t *testing.T) {
	var buf bytes.Buffer
	Ablation(tinyCfg(&buf))
	out := buf.String()
	for _, want := range []string{"Ablation A", "Ablation B", "Ablation C"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablation output missing %q", want)
		}
	}
}

func TestCSVExport(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	cfg := tinyCfg(&buf)
	cfg.CSVDir = dir
	Fig1(cfg)
	data, err := os.ReadFile(filepath.Join(dir, "fig1.csv"))
	if err != nil {
		t.Fatalf("csv not written: %v", err)
	}
	if !strings.Contains(string(data), "Circuit") || !strings.Contains(string(data), "DNN-8") {
		t.Fatalf("csv content wrong:\n%s", data)
	}
}

func TestFormatHelpers(t *testing.T) {
	if got := fmtMB(1_500_000); got != "1.50 MB" {
		t.Errorf("fmtMB: %q", got)
	}
	if got := fmtSpeedup(2.5, false); got != "2.50x" {
		t.Errorf("fmtSpeedup: %q", got)
	}
	if got := fmtSpeedup(3, true); got != "> 3.00x" {
		t.Errorf("fmtSpeedup lower bound: %q", got)
	}
	if got := fmtSeconds(1500 * time.Millisecond); got != "1.50 s" {
		t.Errorf("fmtSeconds: %q", got)
	}
	if got := fmtSeconds(250 * time.Microsecond); got != "250 µs" {
		t.Errorf("fmtSeconds µs: %q", got)
	}
	if got := fmtFloat(0.0); got != "0" {
		t.Errorf("fmtFloat zero: %q", got)
	}
	if got := fmtFloat(1e9); got != "1.00e+09" {
		t.Errorf("fmtFloat big: %q", got)
	}
}

func TestGeoMeanDurations(t *testing.T) {
	g := GeoMeanDurations([]time.Duration{time.Second, 4 * time.Second})
	if math.Abs(g-2) > 1e-9 {
		t.Fatalf("GeoMeanDurations = %v", g)
	}
}

func TestTable1WithReps(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyCfg(&buf)
	cfg.Reps = 2
	results := Table1(cfg)
	if len(results) != 36 {
		t.Fatalf("table1 with reps produced %d results", len(results))
	}
	if !strings.Contains(buf.String(), "±") {
		t.Fatal("repetition stddev missing from printed table")
	}
}

func TestRunRepsAggregatesTimeout(t *testing.T) {
	nc := Table1Circuits(ScaleSmall)[2]
	cfg := Config{Reps: 2}
	calls := 0
	res, stat := cfg.runReps(func() Result {
		calls++
		r := RunDDSIM(nc.C, time.Nanosecond)
		if calls == 2 {
			r.TimedOut = false // only the first rep "times out"
		}
		return r
	})
	if calls != 2 || stat.N != 2 {
		t.Fatalf("reps not honored: calls=%d stat=%+v", calls, stat)
	}
	if !res.TimedOut {
		t.Fatal("timeout in an earlier rep was dropped")
	}
}

func TestMetricsReportUsesSharedRegistryDelta(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyCfg(&buf)
	results := MetricsReport(cfg)
	if len(results) != 4 {
		t.Fatalf("metrics report covered %d circuits", len(results))
	}
	// Every result's snapshot must be a per-run delta, not the shared
	// registry's running total: each circuit's DD-phase gate count must
	// equal the count from the same circuit run on a registry of its own.
	for i, nc := range Fig1Circuits(cfg.Scale) {
		r := results[i]
		if r.Metrics == nil {
			t.Fatal("result missing metrics snapshot")
		}
		own := RunFlatDD(nc.C, core.Options{Threads: cfg.Threads, Metrics: obs.New()}, cfg.Timeout)
		got, want := r.Metrics.Counters["core.gates.dd"], own.Metrics.Counters["core.gates.dd"]
		if got != want || want == 0 {
			t.Fatalf("%s: shared-registry delta core.gates.dd = %d, own registry = %d", nc.Label, got, want)
		}
	}
}
