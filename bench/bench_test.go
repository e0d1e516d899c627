package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"strings"
	"testing"

	"flatdd/internal/core"
	"flatdd/internal/qasm"
	"flatdd/internal/workloads"
)

var long = flag.Bool("long", false, "also run a whole workload end to end (about 10 s)")

func TestSameSeedSameInputs(t *testing.T) {
	hashes := func(name string, seed int64) string {
		cs, err := engineCircuits(engineSpecs[name], seed)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, c := range cs {
			b.WriteString(c.Hash())
		}
		return b.String()
	}
	for name := range engineSpecs {
		if hashes(name, 7) != hashes(name, 7) {
			t.Errorf("%s: seed 7 gave two different circuit sets", name)
		}
		if hashes(name, 7) == hashes(name, 8) {
			t.Errorf("%s: seeds 7 and 8 gave the same circuits", name)
		}
	}

	texts := func(seed int64) string {
		g := newServeGen(seed, serveQubits)
		var b strings.Builder
		for i := 0; i < 30; i++ {
			b.WriteString(g.next().qasm)
		}
		return b.String()
	}
	if texts(7) != texts(7) {
		t.Error("serve_regular: seed 7 gave two different QASM streams")
	}
	if texts(7) == texts(8) {
		t.Error("serve_regular: seeds 7 and 8 gave the same QASM stream")
	}
}

func TestServeJobsAreUnique(t *testing.T) {
	g := newServeGen(1, 8) // 8 qubits: 3-bit adder operands, so repeats would show
	seen := map[string]bool{}
	for i := 0; i < 90; i++ {
		j := g.next()
		if seen[j.qasm] {
			t.Fatalf("job %d (%s) repeats an earlier text", i, j.familyName())
		}
		seen[j.qasm] = true
	}
}

// The analytic answers must hold on an engine that shares no code with
// the decision diagrams.
func TestServeAnswersMatchStateVector(t *testing.T) {
	g := newServeGen(3, 8)
	for i := 0; i < 12; i++ {
		j := g.next()
		c, err := qasm.Parse(j.qasm)
		if err != nil {
			t.Fatalf("%s: %v", j.familyName(), err)
		}
		if _, err := statevecBaseline(c, j); err != nil {
			t.Error(err)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{5, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = p%g, want p%g", tc.n, got, tc.want)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50}, // overlaps a: covered once
		{ID: 4, Parent: 1, Name: "c", Start: 60, End: 70},
		{ID: 5, Parent: 3, Name: "grandchild", Start: 25, End: 45},
	}}
	want := map[int]int64{1: 50, 2: 20, 3: 10, 4: 10, 5: 20}
	for _, s := range tr.finish() {
		if s.Self != want[s.ID] {
			t.Errorf("span %d (%s): self %d, want %d", s.ID, s.Name, s.Self, want[s.ID])
		}
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.start(0, 1, "off")) // the untraced path must be a no-op
}

func TestSpreadIsPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := spread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestReplayEqualsCore(t *testing.T) {
	for _, tc := range []struct {
		family string
		fuse   core.FusionMode
	}{{"supremacy", core.NoFusion}, {"dnn", core.DMAVAware}, {"ghz", core.NoFusion}} {
		c, err := workloads.Build(tc.family, 8, 5)
		if err != nil {
			t.Fatal(err)
		}
		e := &engineEnv{spec: engineSpec{qubits: 8, fusion: tc.fuse}, threads: 2, shots: 16, ref: newHostRef(8, 2)}
		e.circuits = append(e.circuits, c)
		var want []complex128
		e.checkSim = func(_ int, sim *core.Simulator) error {
			want = append([]complex128(nil), sim.Amplitudes()...)
			return nil
		}
		tr := newTracer()
		out := e.job(tr, 0, 0)
		if !out.ok {
			t.Fatalf("%s: %v", tc.family, out.err)
		}
		ro, err := replay(tr, 1, c, tc.fuse, 2)
		if err != nil {
			t.Fatalf("%s: %v", tc.family, err)
		}
		if ro.convertedAt != out.stats.ConvertedAtGate {
			t.Errorf("%s: replay converted at gate %d, core at %d", tc.family, ro.convertedAt, out.stats.ConvertedAtGate)
		}
		if ro.convertedAt < 0 {
			if err := compareAmps([]complex128{ro.top.Amplitude}, []complex128{want[ro.top.Index]}); err != nil {
				t.Errorf("%s: %v", tc.family, err)
			}
			continue
		}
		if err := compareAmps(ro.amps, want); err != nil {
			t.Errorf("%s: %v", tc.family, err)
		}
		if ro.gatesOut != out.stats.FusedGates {
			t.Errorf("%s: replay ran %d DMAV gates, core %d", tc.family, ro.gatesOut, out.stats.FusedGates)
		}
	}
}

func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bf.Workloads), len(workloadNames))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloadNames[i])
		}
	}
	same := func(kind string, file []struct{ Name, Unit string }, defs []metricDef) {
		if len(file) != len(defs) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(file), len(defs))
		}
		for i, m := range file {
			if m.Name != defs[i].name || m.Unit != defs[i].unit {
				t.Errorf("%s metric %d is %s [%s] in BENCHMARK.json, %s [%s] in the program", kind, i, m.Name, m.Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
}

func TestWorkloadEndToEnd(t *testing.T) {
	if !*long {
		t.Skip("pass -long to run a whole workload")
	}
	for _, trace := range []string{"0", t.TempDir() + "/spans.jsonl"} {
		var stdout, stderr bytes.Buffer
		if rc := run([]string{"-workload", "serve_regular", "-seconds", "2", "-trace", trace}, &stdout, &stderr); rc != 0 {
			t.Fatalf("trace=%s: exit %d\n%s%s", trace, rc, stdout.String(), stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var rep report
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
			t.Fatalf("trace=%s: last line is not a report: %v", trace, err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
			t.Errorf("trace=%s: report %+v", trace, rep)
		}
	}
}
