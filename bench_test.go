package flatdd

// One benchmark family per table/figure of the paper's evaluation
// (Section 4). The workloads are container-scale versions of the paper's
// circuit families; `go test -bench=. -benchmem` regenerates every series,
// and cmd/flatdd-bench renders the corresponding tables. The mapping is
// documented in DESIGN.md's experiment index.

import (
	"testing"
	"time"

	"flatdd/internal/circuit"
	"flatdd/internal/convert"
	"flatdd/internal/core"
	"flatdd/internal/dd"
	"flatdd/internal/ddsim"
	"flatdd/internal/dmav"
	"flatdd/internal/fusion"
	"flatdd/internal/harness"
	"flatdd/internal/obs"
	"flatdd/internal/sched"
	"flatdd/internal/statevec"
	"flatdd/internal/workloads"
)

const benchSeed = 20240812

// Shared bench workloads: a regular circuit (DD-friendly), an irregular
// DNN slice and an irregular supremacy slice (DD-hostile).
func benchRegular() *circuit.Circuit   { return workloads.GHZ(16) }
func benchAdder() *circuit.Circuit     { return workloads.Adder(16, benchSeed) }
func benchDNN() *circuit.Circuit       { return workloads.DNN(11, 12, benchSeed) }
func benchSupremacy() *circuit.Circuit { return workloads.SupremacyGrid(12, 16, benchSeed) }
func benchVQE() *circuit.Circuit       { return workloads.VQE(12, 2, benchSeed) }
func benchKNN() *circuit.Circuit       { return workloads.KNN(13, benchSeed) }

func runFlatDD(b *testing.B, c *circuit.Circuit, opts core.Options) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := core.New(c.Qubits, opts)
		s.Run(c)
	}
}

func runDDSIM(b *testing.B, c *circuit.Circuit) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := ddsim.New(c.Qubits)
		s.Run(c)
	}
}

func runStatevec(b *testing.B, c *circuit.Circuit, threads int) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := statevec.New(c.Qubits, threads)
		s.ApplyCircuit(c)
	}
}

// ---- Figure 1: DD-based vs array-based on regular and irregular circuits.

func BenchmarkFig1DDSIMRegularAdder(b *testing.B) { runDDSIM(b, benchAdder()) }
func BenchmarkFig1DDSIMRegularGHZ(b *testing.B)   { runDDSIM(b, benchRegular()) }
func BenchmarkFig1DDSIMIrregularDNN(b *testing.B) { runDDSIM(b, benchDNN()) }
func BenchmarkFig1DDSIMIrregularVQE(b *testing.B) { runDDSIM(b, benchVQE()) }
func BenchmarkFig1ArrayRegularAdder(b *testing.B) { runStatevec(b, benchAdder(), 4) }
func BenchmarkFig1ArrayRegularGHZ(b *testing.B)   { runStatevec(b, benchRegular(), 4) }
func BenchmarkFig1ArrayIrregularDNN(b *testing.B) { runStatevec(b, benchDNN(), 4) }
func BenchmarkFig1ArrayIrregularVQE(b *testing.B) { runStatevec(b, benchVQE(), 4) }

// ---- Figure 3: the hybrid run with per-gate tracing enabled.

func BenchmarkFig3FlatDDTraced(b *testing.B) {
	c := benchDNN()
	runFlatDD(b, c, core.Options{Threads: 4, Trace: func(core.TraceEvent) {}})
}

// ---- Table 1: the three engines on representative suite members.

func BenchmarkTable1FlatDDDNN(b *testing.B) { runFlatDD(b, benchDNN(), core.Options{Threads: 4}) }
func BenchmarkTable1FlatDDSupremacy(b *testing.B) {
	runFlatDD(b, benchSupremacy(), core.Options{Threads: 4})
}
func BenchmarkTable1FlatDDGHZ(b *testing.B)   { runFlatDD(b, benchRegular(), core.Options{Threads: 4}) }
func BenchmarkTable1FlatDDAdder(b *testing.B) { runFlatDD(b, benchAdder(), core.Options{Threads: 4}) }
func BenchmarkTable1FlatDDKNN(b *testing.B)   { runFlatDD(b, benchKNN(), core.Options{Threads: 4}) }
func BenchmarkTable1DDSIMSupremacy(b *testing.B) {
	// The pure-DD engine needs a shallower slice to finish a bench
	// iteration: its per-gate cost explodes on scrambled states.
	c := workloads.SupremacyGrid(10, 6, benchSeed)
	runDDSIM(b, c)
}
func BenchmarkTable1QppDNN(b *testing.B)       { runStatevec(b, benchDNN(), 4) }
func BenchmarkTable1QppSupremacy(b *testing.B) { runStatevec(b, benchSupremacy(), 4) }
func BenchmarkTable1QppGHZ(b *testing.B)       { runStatevec(b, benchRegular(), 4) }

// ---- Figure 11: per-gate cost in the two phases (one DD-phase gate vs
// one DMAV gate on an irregular state).

func BenchmarkFig11DDPhaseGateIrregular(b *testing.B) {
	c := benchDNN()
	s := ddsim.New(c.Qubits)
	for i := 0; i < 60 && i < len(c.Gates); i++ {
		s.ApplyGate(&c.Gates[i])
	}
	g := circuit.H(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ApplyGate(&g)
	}
}

func BenchmarkFig11DMAVGateIrregular(b *testing.B) {
	c := benchDNN()
	n := c.Qubits
	m := dd.New(n)
	g := circuit.FSim(0.5, 0.2, 1, n-2)
	M := ddsim.BuildGateDD(m, n, &g)
	V := make([]complex128, 1<<uint(n))
	V[0] = 1
	W := make([]complex128, len(V))
	e := dmav.New(m, n, 4, dmav.Auto)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Apply(M, V, W)
	}
}

// ---- Figure 12: scalability across thread counts.

func benchFig12FlatDD(b *testing.B, threads int) {
	runFlatDD(b, benchSupremacy(), core.Options{Threads: threads})
}

func BenchmarkFig12FlatDDT1(b *testing.B)  { benchFig12FlatDD(b, 1) }
func BenchmarkFig12FlatDDT2(b *testing.B)  { benchFig12FlatDD(b, 2) }
func BenchmarkFig12FlatDDT4(b *testing.B)  { benchFig12FlatDD(b, 4) }
func BenchmarkFig12FlatDDT8(b *testing.B)  { benchFig12FlatDD(b, 8) }
func BenchmarkFig12FlatDDT16(b *testing.B) { benchFig12FlatDD(b, 16) }
func BenchmarkFig12QppT1(b *testing.B)     { runStatevec(b, benchSupremacy(), 1) }
func BenchmarkFig12QppT4(b *testing.B)     { runStatevec(b, benchSupremacy(), 4) }
func BenchmarkFig12QppT16(b *testing.B)    { runStatevec(b, benchSupremacy(), 16) }

// ---- Figure 13: parallel vs sequential DD-to-array conversion on an
// irregular mid-simulation state.

func fig13State(b *testing.B) (dd.VEdge, *dd.Manager, int) {
	b.Helper()
	c := benchDNN()
	s := ddsim.New(c.Qubits)
	for i := 0; i < 80 && i < len(c.Gates); i++ {
		s.ApplyGate(&c.Gates[i])
	}
	return s.State(), s.Manager(), c.Qubits
}

func BenchmarkFig13ConversionSequential(b *testing.B) {
	e, m, n := fig13State(b)
	out := make([]complex128, 1<<uint(n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(out)
		m.FillArray(e, n, out)
	}
}

func BenchmarkFig13ConversionParallelT4(b *testing.B) {
	e, _, n := fig13State(b)
	out := make([]complex128, 1<<uint(n))
	pool := sched.New(4)
	defer pool.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(out)
		convert.ParallelIntoPool(e, n, pool, out, nil)
	}
}

// ---- Figure 14: DMAV with vs without caching.

func benchCaching(b *testing.B, mode dmav.Mode) {
	runFlatDD(b, benchSupremacy(), core.Options{Threads: 4, CacheMode: mode, ForceConvertAfter: 1})
}

func BenchmarkFig14DMAVNoCache(b *testing.B)   { benchCaching(b, dmav.NeverCache) }
func BenchmarkFig14DMAVAutoCache(b *testing.B) { benchCaching(b, dmav.Auto) }

// ---- Table 2: gate fusion on deep circuits.

func BenchmarkTable2NoFusion(b *testing.B) {
	runFlatDD(b, benchDNN(), core.Options{Threads: 4})
}

func BenchmarkTable2DMAVAwareFusion(b *testing.B) {
	runFlatDD(b, benchDNN(), core.Options{Threads: 4, Fusion: core.DMAVAware})
}

func BenchmarkTable2KOperations(b *testing.B) {
	runFlatDD(b, benchDNN(), core.Options{Threads: 4, Fusion: core.KOps})
}

// BenchmarkTable2FusionPassOnly isolates the cost of the fusion pass
// itself (Algorithm 3 + DDMM), without the simulation around it.
func BenchmarkTable2FusionPassOnly(b *testing.B) {
	c := benchDNN()
	n := c.Qubits
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := dd.New(n)
		e := dmav.New(m, n, 4, dmav.Auto)
		gates := make([]dd.MEdge, len(c.Gates))
		for j := range c.Gates {
			gates[j] = ddsim.BuildGateDD(m, n, &c.Gates[j])
		}
		fusion.Fuse(m, gates, func(g dd.MEdge) float64 { return e.EvaluateCost(g).Cost() })
	}
}

// ---- End-to-end harness smoke benchmark (the full Table 1 pipeline at
// tiny scale), to catch performance regressions in the harness itself.

func BenchmarkHarnessTable1Tiny(b *testing.B) {
	for i := 0; i < b.N; i++ {
		harness.Table1(harness.Config{Scale: harness.ScaleTiny, Threads: 4,
			Timeout: time.Minute, Out: discard{}})
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// ---- Ablation benches for the design choices called out in DESIGN.md.

// Conversion optimizations (Figure 4): optimized parallel vs naive split.
func benchConversionState(b *testing.B) (dd.VEdge, int) {
	b.Helper()
	n := 16
	m := dd.New(n)
	s := ddsim.NewWithManager(m, n)
	// A half-sparse state: GHZ ladder then a few rotations, so both zero
	// edges and shared children appear.
	c := workloads.GHZ(n)
	s.Run(c)
	g := circuit.RY(0.3, 2)
	s.ApplyGate(&g)
	g2 := circuit.RY(0.9, 9)
	s.ApplyGate(&g2)
	return s.State(), n
}

func BenchmarkAblationConversionFig4(b *testing.B) {
	e, n := benchConversionState(b)
	out := make([]complex128, 1<<uint(n))
	pool := sched.New(4)
	defer pool.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(out)
		convert.ParallelIntoPool(e, n, pool, out, nil)
	}
}

func BenchmarkAblationConversionNaive(b *testing.B) {
	e, n := benchConversionState(b)
	out := make([]complex128, 1<<uint(n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(out)
		convert.ParallelNaiveInto(e, n, 4, out)
	}
}

// DMAV shared partial-output buffers on vs off (Algorithm 2).
func benchBufferSharing(b *testing.B, share bool) {
	n := 13
	m := dd.New(n)
	g := circuit.CX(2, 10)
	M := ddsim.BuildGateDD(m, n, &g)
	V := make([]complex128, 1<<uint(n))
	V[0] = 1
	W := make([]complex128, len(V))
	e := dmav.New(m, n, 4, dmav.AlwaysCache)
	e.SetBufferSharing(share)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Apply(M, V, W)
	}
}

func BenchmarkAblationBufferSharingOn(b *testing.B)  { benchBufferSharing(b, true) }
func BenchmarkAblationBufferSharingOff(b *testing.B) { benchBufferSharing(b, false) }

// ---- Instrumentation overhead: the DMAV kernel with metrics disabled
// (nil registry, the default) vs enabled (live registry). The disabled
// pair must stay within noise of each other — every instrumentation site
// is a single nil check — and the enabled case bounds the worst-case cost
// of running with -listen / -trace-out. Recorded in EXPERIMENTS.md.

func benchObsOverhead(b *testing.B, r *obs.Registry, led *obs.ResourceLedger) {
	c := benchDNN()
	n := c.Qubits
	m := dd.New(n)
	g := circuit.FSim(0.5, 0.2, 1, n-2)
	M := ddsim.BuildGateDD(m, n, &g)
	V := make([]complex128, 1<<uint(n))
	V[0] = 1
	W := make([]complex128, len(V))
	e := dmav.New(m, n, 4, dmav.Auto)
	defer e.Close()
	if led != nil {
		led.Begin("dmav")
		defer led.End()
	}
	e.SetEnv(sched.Env{Metrics: r, Ledger: led})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Apply(M, V, W)
	}
}

func BenchmarkObsOverheadDMAVDisabled(b *testing.B) { benchObsOverhead(b, nil, nil) }
func BenchmarkObsOverheadDMAVEnabled(b *testing.B)  { benchObsOverhead(b, obs.New(), nil) }

// The ledger pair bounds the tentpole's attribution cost: CPU time is
// credited per batch (pooled path) or per Apply (inline path), never per
// amplitude, so Ledger must stay within ~2% of Enabled.
func BenchmarkObsOverheadDMAVLedger(b *testing.B) {
	benchObsOverhead(b, obs.New(), obs.NewResourceLedger())
}
