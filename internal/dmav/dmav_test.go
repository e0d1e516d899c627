package dmav

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"flatdd/internal/block"
	"flatdd/internal/circuit"
	"flatdd/internal/dd"
	"flatdd/internal/ddsim"
	"flatdd/internal/statevec"
	"flatdd/internal/workloads"
)

const eps = 1e-9

func approx(a, b complex128) bool { return cmplx.Abs(a-b) < eps }

func randAmps(rng *rand.Rand, n int) []complex128 {
	amps := make([]complex128, 1<<uint(n))
	var norm float64
	for i := range amps {
		amps[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		norm += real(amps[i])*real(amps[i]) + imag(amps[i])*imag(amps[i])
	}
	norm = math.Sqrt(norm)
	for i := range amps {
		amps[i] /= complex(norm, 0)
	}
	return amps
}

func randomGate(rng *rand.Rand, n int) circuit.Gate {
	switch rng.Intn(7) {
	case 0:
		return circuit.H(rng.Intn(n))
	case 1:
		return circuit.T(rng.Intn(n))
	case 2:
		return circuit.U3(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.Intn(n))
	case 3:
		a, b := twoDistinct(rng, n)
		return circuit.CX(a, b)
	case 4:
		a, b := twoDistinct(rng, n)
		return circuit.CP(rng.NormFloat64(), a, b)
	case 5:
		a, b := twoDistinct(rng, n)
		return circuit.FSim(rng.NormFloat64(), rng.NormFloat64(), a, b)
	default:
		a, b := twoDistinct(rng, n)
		c := rng.Intn(n)
		for c == a || c == b {
			c = rng.Intn(n)
		}
		if n >= 3 {
			return circuit.CCX(a, c, b)
		}
		return circuit.CX(a, b)
	}
}

func twoDistinct(rng *rand.Rand, n int) (int, int) {
	a := rng.Intn(n)
	b := rng.Intn(n)
	for b == a {
		b = rng.Intn(n)
	}
	return a, b
}

func TestApplyMatchesOracleAllModes(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for _, mode := range []Mode{Auto, NeverCache, AlwaysCache} {
		for _, threads := range []int{1, 2, 3, 4, 5, 7, 8} {
			for trial := 0; trial < 6; trial++ {
				n := 3 + rng.Intn(4)
				m := dd.New(n)
				g := randomGate(rng, n)
				M := ddsim.BuildGateDD(m, n, &g)

				V := randAmps(rng, n)
				// Oracle: statevec application of the same gate.
				sv := statevec.FromAmplitudes(append([]complex128(nil), V...), 1)
				sv.Apply(&g)
				want := sv.Amplitudes()

				e := New(m, n, threads, mode)
				W := make([]complex128, len(V))
				e.Apply(M, V, W)
				for i := range want {
					if !approx(W[i], want[i]) {
						t.Fatalf("mode=%v threads=%d n=%d gate=%s: W[%d]=%v want %v",
							mode, threads, n, g.Name, i, W[i], want[i])
					}
				}
			}
		}
	}
}

// fusedAbove multiplies random gates into one matrix DD until its MAC
// count reaches macs, returning the product and the gates in application
// order: a dense fused block of the kind DMAV-aware fusion produces.
func fusedAbove(rng *rand.Rand, m *dd.Manager, n int, macs int64) (dd.MEdge, []circuit.Gate) {
	M := m.Identity(n)
	var gates []circuit.Gate
	for dd.MACCountNode(M.N, map[*dd.MNode]int64{}) < macs {
		g := randomGate(rng, n)
		gates = append(gates, g)
		M = m.MulMM(ddsim.BuildGateDD(m, n, &g), M)
	}
	return M, gates
}

// TestApplyPooledMatchesOracle covers the pool-batched execution paths:
// gates below inlineBelowMACs run inline, so this test uses n=18, where
// every gate of the random mix (≥ 2^18 MACs) forces real sched batches
// through both algorithms.
func TestApplyPooledMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	const n = 18
	m := dd.New(n)
	V := randAmps(rng, n)
	W := make([]complex128, len(V))
	for _, mode := range []Mode{NeverCache, AlwaysCache} {
		for _, threads := range []int{3, 8} {
			e := New(m, n, threads, mode)
			for trial := 0; trial < 3; trial++ {
				g := randomGate(rng, n)
				M := ddsim.BuildGateDD(m, n, &g)
				sv := statevec.FromAmplitudes(append([]complex128(nil), V...), 2)
				sv.Apply(&g)
				want := sv.Amplitudes()
				e.Apply(M, V, W)
				if e.gates[M.N].inline {
					t.Fatalf("mode=%v threads=%d gate=%s ran inline; cutoff test is vacuous", mode, threads, g.Name)
				}
				for i := range want {
					if !approx(W[i], want[i]) {
						t.Fatalf("mode=%v threads=%d gate=%s: W[%d]=%v want %v",
							mode, threads, g.Name, i, W[i], want[i])
					}
				}
			}
			e.Close()
		}
	}
}

func TestCachedAndUncachedAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 6
	m := dd.New(n)
	V := randAmps(rng, n)
	for trial := 0; trial < 10; trial++ {
		g := randomGate(rng, n)
		M := ddsim.BuildGateDD(m, n, &g)
		w1 := make([]complex128, len(V))
		w2 := make([]complex128, len(V))
		New(m, n, 4, NeverCache).Apply(M, V, w1)
		New(m, n, 4, AlwaysCache).Apply(M, V, w2)
		for i := range w1 {
			if !approx(w1[i], w2[i]) {
				t.Fatalf("trial %d gate %s: cached %v vs uncached %v at %d",
					trial, g.Name, w2[i], w1[i], i)
			}
		}
	}
}

// TestThreadsArbitraryCount is the ISSUE 3 regression test: thread
// counts are no longer rounded down to a power of two. Threads() keeps
// the requested count (clamped to [1, 2^n]); only the cached-path chunk
// count (CacheChunks) rounds up to a power of two, because the
// border-level column split must stay aligned with the DD.
func TestThreadsArbitraryCount(t *testing.T) {
	m := dd.New(5)
	cases := map[int]int{1: 1, 2: 2, 3: 3, 4: 4, 5: 5, 7: 7, 8: 8, 16: 16, 100: 32}
	for in, want := range cases {
		if got := New(m, 5, in, Auto).Threads(); got != want {
			t.Errorf("threads %d -> %d, want %d", in, got, want)
		}
	}
	chunkCases := map[int]int{1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 7: 8, 8: 8, 16: 16, 100: 32}
	for in, want := range chunkCases {
		if got := New(m, 5, in, Auto).CacheChunks(); got != want {
			t.Errorf("threads %d -> %d cache chunks, want %d", in, got, want)
		}
	}
	// Clamped to [1, 2^n].
	if got := New(m, 2, 16, Auto).Threads(); got != 4 {
		t.Errorf("threads capped: got %d, want 4", got)
	}
	if got := New(m, 5, -3, Auto).Threads(); got != 1 {
		t.Errorf("threads floored: got %d, want 1", got)
	}
}

// TestFlatBytesMatchesEngineChunks: FlatBytes counts state, scratch and
// CacheChunks()−1 partial buffers, for every thread count New accepts.
func TestFlatBytesMatchesEngineChunks(t *testing.T) {
	m := dd.New(5)
	for _, n := range []int{1, 2, 5} {
		for _, threads := range []int{-3, 0, 1, 3, 8, 100} {
			chunks := uint64(New(m, n, threads, AlwaysCache).CacheChunks())
			for mode, want := range map[Mode]uint64{
				NeverCache:  32 << n,
				Auto:        (1 + chunks) * 16 << n,
				AlwaysCache: (1 + chunks) * 16 << n,
			} {
				if got := FlatBytes(n, threads, mode); got != want {
					t.Errorf("FlatBytes(%d, %d, %v) = %d, want %d", n, threads, mode, got, want)
				}
			}
		}
	}
}

// TestThreadsThreeCorrect exercises the previously-illegal odd thread
// count end to end against the statevec oracle, in every caching mode.
func TestThreadsThreeCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	n := 6
	m := dd.New(n)
	V := randAmps(rng, n)
	for _, mode := range []Mode{Auto, NeverCache, AlwaysCache} {
		for trial := 0; trial < 5; trial++ {
			g := randomGate(rng, n)
			M := ddsim.BuildGateDD(m, n, &g)
			W := make([]complex128, len(V))
			e := New(m, n, 3, mode)
			e.Apply(M, V, W)
			e.Close()
			sv := statevec.FromAmplitudes(append([]complex128(nil), V...), 1)
			sv.Apply(&g)
			for i, a := range sv.Amplitudes() {
				if !approx(W[i], a) {
					t.Fatalf("mode %v trial %d gate %s: W[%d] = %v, oracle %v",
						mode, trial, g.Name, i, W[i], a)
				}
			}
		}
	}
}

func TestCostModelIdentity(t *testing.T) {
	n := 8
	m := dd.New(n)
	e := New(m, n, 4, Auto)
	id := m.Identity(n)
	c := e.EvaluateCost(id)
	if c.K1 != 1<<uint(n) {
		t.Fatalf("K1 = %d, want %d", c.K1, 1<<uint(n))
	}
	if c.C1 != float64(c.K1)/4 {
		t.Fatalf("C1 = %v", c.C1)
	}
	// Identity is block-diagonal with identical diagonal blocks: each
	// thread sees one unique node; 3 of its 4 column tasks... actually the
	// identity has exactly one border task per thread (off-diagonal blocks
	// are zero), so there are no cache hits.
	if c.Hits != 0 {
		t.Fatalf("identity should have no repeated tasks, H=%d", c.Hits)
	}
	// Diagonal blocks have disjoint outputs: one shared buffer suffices.
	if c.Buffers != 1 {
		t.Fatalf("identity buffers = %d, want 1", c.Buffers)
	}
}

func TestCostModelHadamardTopHasHits(t *testing.T) {
	// H on the top qubit: all four top blocks are (+/-) the same
	// half-identity, so column-space assignment gives every thread two
	// tasks on the same node -> one hit per thread at t>=2.
	n := 6
	m := dd.New(n)
	e := New(m, n, 4, Auto)
	M := m.SingleGate(n, dd.Matrix2{
		{complex(1/math.Sqrt2, 0), complex(1/math.Sqrt2, 0)},
		{complex(1/math.Sqrt2, 0), complex(-1/math.Sqrt2, 0)},
	}, n-1)
	c := e.EvaluateCost(M)
	if c.Hits == 0 {
		t.Fatal("expected cache hits for top-qubit Hadamard")
	}
	if c.K2 >= c.K1 {
		t.Fatalf("K2=%d not smaller than K1=%d despite hits", c.K2, c.K1)
	}
}

func TestAutoModeMatchesDecision(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	n := 6
	m := dd.New(n)
	e := New(m, n, 4, Auto)
	V := randAmps(rng, n)
	W := make([]complex128, len(V))
	g := circuit.H(n - 1)
	M := ddsim.BuildGateDD(m, n, &g)
	cost, err := e.Apply(M, V, W)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	st := e.Stats()
	if cost.UseCache() && st.CachedGates != 1 {
		t.Fatalf("cost prefers cache but engine did not cache: %+v", st)
	}
	if !cost.UseCache() && st.CachedGates != 0 {
		t.Fatalf("cost rejects cache but engine cached: %+v", st)
	}
	if st.Gates != 1 {
		t.Fatalf("gates = %d", st.Gates)
	}
}

func TestCacheHitsReduceExecutedMACs(t *testing.T) {
	// With AlwaysCache on a top-qubit Hadamard the engine must record
	// hits, and the result must still be correct (covered elsewhere).
	rng := rand.New(rand.NewSource(13))
	n := 7
	m := dd.New(n)
	e := New(m, n, 8, AlwaysCache)
	g := circuit.H(n - 1)
	M := ddsim.BuildGateDD(m, n, &g)
	V := randAmps(rng, n)
	W := make([]complex128, len(V))
	e.Apply(M, V, W)
	if e.Stats().CacheHits == 0 {
		t.Fatal("no cache hits recorded")
	}
}

func TestZeroMatrixYieldsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 4
	m := dd.New(n)
	e := New(m, n, 2, Auto)
	V := randAmps(rng, n)
	W := make([]complex128, len(V))
	W[3] = 42 // must be cleared
	e.Apply(m.MZeroEdge(), V, W)
	for i := range W {
		if W[i] != 0 {
			t.Fatalf("W[%d] = %v, want 0", i, W[i])
		}
	}
}

func TestLinearityProperty(t *testing.T) {
	// DMAV(M, aV1 + bV2) == a DMAV(M,V1) + b DMAV(M,V2)
	rng := rand.New(rand.NewSource(21))
	n := 5
	m := dd.New(n)
	for trial := 0; trial < 5; trial++ {
		g := randomGate(rng, n)
		M := ddsim.BuildGateDD(m, n, &g)
		e := New(m, n, 4, Auto)
		v1 := randAmps(rng, n)
		v2 := randAmps(rng, n)
		a := complex(rng.NormFloat64(), rng.NormFloat64())
		b := complex(rng.NormFloat64(), rng.NormFloat64())
		mix := make([]complex128, len(v1))
		for i := range mix {
			mix[i] = a*v1[i] + b*v2[i]
		}
		w1 := make([]complex128, len(v1))
		w2 := make([]complex128, len(v1))
		wm := make([]complex128, len(v1))
		e.Apply(M, v1, w1)
		e.Apply(M, v2, w2)
		e.Apply(M, mix, wm)
		for i := range wm {
			if !approx(wm[i], a*w1[i]+b*w2[i]) {
				t.Fatalf("linearity violated at %d: %v vs %v", i, wm[i], a*w1[i]+b*w2[i])
			}
		}
	}
}

func TestSequenceOfGatesMatchesStatevec(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n := 7
	m := dd.New(n)
	e := New(m, n, 4, Auto)
	V := make([]complex128, 1<<uint(n))
	V[0] = 1
	W := make([]complex128, len(V))
	sv := statevec.New(n, 1)
	for step := 0; step < 30; step++ {
		g := randomGate(rng, n)
		M := ddsim.BuildGateDD(m, n, &g)
		e.Apply(M, V, W)
		V, W = W, V
		sv.Apply(&g)
	}
	for i := range V {
		if !approx(V[i], sv.Amplitudes()[i]) {
			t.Fatalf("diverged at amplitude %d: %v vs %v", i, V[i], sv.Amplitudes()[i])
		}
	}
}

func TestApplyRejectsAliasOrBadLength(t *testing.T) {
	m := dd.New(3)
	e := New(m, 3, 2, Auto)
	V := make([]complex128, 8)
	if _, err := e.Apply(m.Identity(3), V, V); err == nil {
		t.Fatal("aliased V/W not rejected")
	}
	if _, err := e.Apply(m.Identity(3), V, make([]complex128, 4)); err == nil {
		t.Fatal("short W not rejected")
	}
	if _, err := e.Apply(m.Identity(3), make([]complex128, 4), make([]complex128, 8)); err == nil {
		t.Fatal("short V not rejected")
	}
	// A rejected Apply must not have counted a gate.
	if st := e.Stats(); st.Gates != 0 {
		t.Fatalf("rejected Apply counted %d gates", st.Gates)
	}
}

func TestScalarMulInto(t *testing.T) {
	for _, n := range []int{0, 1, 3, 4, 7, 16} {
		src := make([]complex128, n)
		dst := make([]complex128, n)
		for i := range src {
			src[i] = complex(float64(i), float64(-i))
		}
		scalarMulInto(dst, src, 2i)
		for i := range dst {
			if dst[i] != src[i]*2i {
				t.Fatalf("n=%d dst[%d]=%v", n, i, dst[i])
			}
		}
	}
}

func TestAddInto(t *testing.T) {
	for _, n := range []int{0, 1, 5, 8, 13} {
		dst := make([]complex128, n)
		src := make([]complex128, n)
		for i := range src {
			dst[i] = complex(1, 1)
			src[i] = complex(float64(i), 0)
		}
		addInto(dst, src)
		for i := range dst {
			if dst[i] != complex(1+float64(i), 1) {
				t.Fatalf("n=%d dst[%d]=%v", n, i, dst[i])
			}
		}
	}
}

// BenchmarkApply is the DMAV layer microbenchmark: steady-state Apply of
// one repeated gate, by register size, gate shape, algorithm and thread
// count. MACs/s is the modeled rate (GateCost.Cost × threads per Apply,
// the unit of dmav.macs_per_s in bench/); B/op must read 0.
func BenchmarkApply(b *testing.B) {
	for _, n := range []int{14, 20} {
		m := dd.New(n)
		rng := rand.New(rand.NewSource(1))
		V := randAmps(rng, n)
		W := make([]complex128, len(V))
		gates := []struct {
			name string
			M    dd.MEdge
		}{
			{"q0", gateDD(m, n, circuit.U3(0.3, 0.2, 0.1, 0))},
			{"qmid", gateDD(m, n, circuit.U3(0.3, 0.2, 0.1, n/2))},
			{"qtop", gateDD(m, n, circuit.U3(0.3, 0.2, 0.1, n-1))},
			{"cz", gateDD(m, n, circuit.CZ(2, n-3))},
			{"fused", denseBlock(m, n)},
		}
		for _, g := range gates {
			for _, mode := range []Mode{NeverCache, AlwaysCache} {
				for _, threads := range []int{1, 2} {
					name := fmt.Sprintf("n=%d/%s/%v/t%d", n, g.name, mode, threads)
					b.Run(name, func(b *testing.B) {
						e := New(m, n, threads, mode)
						defer e.Close()
						cost, _ := e.Apply(g.M, V, W) // compile outside the timer
						b.ReportAllocs()
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							e.Apply(g.M, V, W)
						}
						macs := cost.Cost() * float64(threads) * float64(b.N)
						b.ReportMetric(macs/b.Elapsed().Seconds(), "MACs/s")
					})
				}
			}
		}
	}
}

// BenchmarkStep is BenchmarkApply's counterpart for the DMAV phase's own
// paths: narrow gates as blocks through StepBlock, in place, and the fused
// DD through Step (Apply and the scratch swap). "cycle" is the monomial
// block CX(1,2)·CX(0,1) — one swap and one 4-cycle, at a stride — and
// "cx2" the two CX blocks it replaces; "cycletop" is the same product on
// the top three qubits, at unit stride; "ladder" is CX·RY·CX on three qubits (butterflies,
// then a move) and "dense3" a block dense on three qubits. B/op must read
// 0.
func BenchmarkStep(b *testing.B) {
	blk := func(gs ...circuit.Gate) []*block.Block {
		out := make([]*block.Block, len(gs))
		for i := range gs {
			out[i] = block.Of(&gs[i])
		}
		return out
	}
	for _, n := range []int{10, 12, 14, 16, 20} {
		m := dd.New(n)
		V := randAmps(rand.New(rand.NewSource(1)), n)
		cx01, cx12 := circuit.CX(0, 1), circuit.CX(1, 2)
		cxlo, cxhi := circuit.CX(n-3, n-2), circuit.CX(n-2, n-1)
		dense, _ := denseSupport(0, n/2, n-1)
		sparse, _ := ladder(0, n/2, n-1)
		gates := []struct {
			name   string
			blocks []*block.Block // run in turn by StepBlock; nil: M runs through Step
			M      dd.MEdge
		}{
			{"q0", blk(circuit.U3(0.3, 0.2, 0.1, 0)), dd.MEdge{}},
			{"q1", blk(circuit.U3(0.3, 0.2, 0.1, 1)), dd.MEdge{}},
			{"qmid", blk(circuit.U3(0.3, 0.2, 0.1, n/2)), dd.MEdge{}},
			{"qtop", blk(circuit.U3(0.3, 0.2, 0.1, n-1)), dd.MEdge{}},
			{"cz", blk(circuit.CZ(2, n-3)), dd.MEdge{}},
			{"cx", blk(circuit.CX(n-3, n/2-2)), dd.MEdge{}},
			{"ccx", blk(circuit.CCX(0, n/2-2, n-3)), dd.MEdge{}},
			{"cx2", blk(cx01, cx12), dd.MEdge{}},
			{"cycle", []*block.Block{block.Mul(block.Of(&cx12), block.Of(&cx01))}, dd.MEdge{}},
			{"cycletop", []*block.Block{block.Mul(block.Of(&cxhi), block.Of(&cxlo))}, dd.MEdge{}},
			{"ladder", []*block.Block{sparse}, dd.MEdge{}},
			{"dense3", []*block.Block{dense}, dd.MEdge{}},
			{"fused", nil, denseBlock(m, n)},
		}
		for _, g := range gates {
			for _, threads := range []int{1, 2} {
				b.Run(fmt.Sprintf("n=%d/%s/t%d", n, g.name, threads), func(b *testing.B) {
					e := New(m, n, threads, NeverCache)
					defer e.Close()
					state := append([]complex128(nil), V...)
					step := func() (cost float64) {
						if g.blocks == nil {
							var c GateCost
							state, c, _ = e.Step(g.M, state)
							return c.Cost()
						}
						for _, blk := range g.blocks {
							c, _ := e.StepBlock(blk, state)
							cost += c.Cost()
						}
						return cost
					}
					cost := step() // compile outside the timer
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						step()
					}
					macs := cost * float64(threads) * float64(b.N)
					b.ReportMetric(macs/b.Elapsed().Seconds(), "MACs/s")
				})
			}
		}
	}
}

func gateDD(m *dd.Manager, n int, g circuit.Gate) dd.MEdge {
	return ddsim.BuildGateDD(m, n, &g)
}

// denseBlock is a fused gate dense on five qubits spread over the
// register, qubit 0 included: the shape DMAV-aware fusion produces.
func denseBlock(m *dd.Manager, n int) dd.MEdge {
	qs := []int{0, 1, n / 2, n - 2, n - 1}
	M := m.Identity(n)
	for i, q := range qs {
		M = m.MulMM(gateDD(m, n, circuit.U3(0.3+float64(i), 0.2, 0.1, q)), M)
	}
	for i := range qs[1:] {
		M = m.MulMM(gateDD(m, n, circuit.FSim(0.5, 0.2, qs[i], qs[i+1])), M)
	}
	return M
}

// TestApplySteadyStateAllocationFree: once a root's plan is memoized, a
// repeated Apply — inline or as pool batches, either algorithm — must not
// allocate, and neither must a repeated Step (through the scratch vector)
// or StepBlock (in place).
func TestApplySteadyStateAllocationFree(t *testing.T) {
	// At n=17 a single-qubit gate (2^18 MACs) and a CZ (2^17) are both
	// over inlineBelowMACs: inline at Threads 1, forked at Threads 2.
	const n = 17
	m := dd.New(n)
	rng := rand.New(rand.NewSource(8))
	V := randAmps(rng, n)
	W := make([]complex128, len(V))
	small := gateDD(m, n, circuit.CZ(3, 9))
	big := gateDD(m, n, circuit.H(n-1))
	for _, mode := range []Mode{NeverCache, AlwaysCache} {
		for _, threads := range []int{1, 2} {
			e := New(m, n, threads, mode)
			for _, M := range []dd.MEdge{small, big} {
				e.Apply(M, V, W)
				if inline := e.gates[M.N].inline; inline != (threads == 1) {
					t.Fatalf("mode=%v threads=%d: inline=%v", mode, threads, inline)
				}
				if a := testing.AllocsPerRun(10, func() { e.Apply(M, V, W) }); a != 0 {
					t.Errorf("mode=%v threads=%d inline=%v: %v allocs per steady-state Apply",
						mode, threads, e.gates[M.N].inline, a)
				}
				state, _, _ := e.Step(M, append([]complex128(nil), V...))
				if a := testing.AllocsPerRun(10, func() { state, _, _ = e.Step(M, state) }); a != 0 {
					t.Errorf("mode=%v threads=%d: %v allocs per steady-state Step", mode, threads, a)
				}
			}
			for _, g := range []circuit.Gate{circuit.CZ(3, 9), circuit.H(n - 1), circuit.CCX(0, 8, n-1), circuit.FSim(0.3, 0.2, 1, 12)} {
				b := block.Of(&g)
				state := append([]complex128(nil), V...)
				e.StepBlock(b, state)
				if a := testing.AllocsPerRun(10, func() { e.StepBlock(b, state) }); a != 0 {
					t.Errorf("mode=%v threads=%d %s: %v allocs per steady-state StepBlock", mode, threads, g.Name, a)
				}
			}
			e.Close()
		}
	}
}

func TestBufferSharingOffStillCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	n := 6
	m := dd.New(n)
	V := randAmps(rng, n)
	for trial := 0; trial < 6; trial++ {
		g := randomGate(rng, n)
		M := ddsim.BuildGateDD(m, n, &g)
		on := New(m, n, 4, AlwaysCache)
		off := New(m, n, 4, AlwaysCache)
		off.SetBufferSharing(false)
		w1 := make([]complex128, len(V))
		w2 := make([]complex128, len(V))
		on.Apply(M, V, w1)
		off.Apply(M, V, w2)
		for i := range w1 {
			if !approx(w1[i], w2[i]) {
				t.Fatalf("gate %s: buffer-sharing off diverges at %d", g.Name, i)
			}
		}
	}
}

func TestBufferSharingReducesBuffers(t *testing.T) {
	// The identity's diagonal blocks have disjoint outputs: with sharing
	// one buffer suffices, without it every thread allocates one.
	n := 6
	m := dd.New(n)
	e := New(m, n, 4, AlwaysCache)
	c := e.EvaluateCost(m.Identity(n))
	if c.Buffers != 1 {
		t.Fatalf("shared buffers = %d, want 1", c.Buffers)
	}
	e.SetBufferSharing(false)
	c = e.EvaluateCost(m.Identity(n))
	if c.Buffers != 4 {
		t.Fatalf("unshared buffers = %d, want 4", c.Buffers)
	}
}

func TestCostModelC2FixedSIMDWidth(t *testing.T) {
	// Equation 6 at d = 4: C2 = K2/t + dim/(d·t)·(H/t + b).
	n := 8
	m := dd.New(n)
	g := circuit.H(n - 1)
	M := ddsim.BuildGateDD(m, n, &g)
	e := New(m, n, 4, Auto)
	c := e.EvaluateCost(M)
	if c.Hits == 0 {
		t.Fatal("top-qubit Hadamard should have cache hits")
	}
	dim, thr := float64(uint64(1)<<n), 4.0
	want := float64(c.K2)/thr + dim/(4*thr)*(float64(c.Hits)/thr+float64(c.Buffers))
	if c.C2 != want {
		t.Fatalf("C2 = %v, want %v at d=4", c.C2, want)
	}
}

// BenchmarkCachedNarrowGates is the per-gate A/B of the cache decision,
// narrow half: on the benchmark's two engine circuits it takes every
// distinct gate on at most block.Width qubits whose DD an Auto engine at
// Threads 2 sends to Algorithm 2 (the gates Auto cached before narrow
// gates became blocks), and runs the set both ways at Threads 1 and 2 —
// Algorithm 2 through Apply on the DD (alg2), Algorithm 1 in place through
// StepBlock (inplace). ns/gate is the figure to compare.
func BenchmarkCachedNarrowGates(b *testing.B) {
	for _, w := range []struct {
		family string
		n      int
	}{{"dnn", 15}, {"supremacy", 14}} {
		c, err := workloads.Build(w.family, w.n, 1)
		if err != nil {
			b.Fatal(err)
		}
		n := w.n
		m := dd.New(n)
		auto := New(m, n, 2, Auto)
		var Ms []dd.MEdge
		var bs []*block.Block
		seen := map[*dd.MNode]bool{}
		for i := range c.Gates {
			blk := block.Of(&c.Gates[i])
			M := ddsim.BuildGateDD(m, n, &c.Gates[i])
			if blk == nil || seen[M.N] || !auto.EvaluateCost(M).UseCache() {
				continue
			}
			seen[M.N] = true
			Ms, bs = append(Ms, M), append(bs, blk)
		}
		V := randAmps(rand.New(rand.NewSource(1)), n)
		for _, threads := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/alg2/t%d", c.Name, threads), func(b *testing.B) {
				e := New(m, n, threads, AlwaysCache)
				defer e.Close()
				cur, next := append([]complex128(nil), V...), make([]complex128, len(V))
				for _, M := range Ms { // compile outside the timer
					e.Apply(M, cur, next)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, M := range Ms {
						e.Apply(M, cur, next)
						cur, next = next, cur
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(Ms)), "ns/gate")
				b.ReportMetric(float64(len(Ms)), "gates")
			})
			b.Run(fmt.Sprintf("%s/inplace/t%d", c.Name, threads), func(b *testing.B) {
				e := New(m, n, threads, Auto)
				defer e.Close()
				state := append([]complex128(nil), V...)
				for _, blk := range bs {
					e.StepBlock(blk, state)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, blk := range bs {
						e.StepBlock(blk, state)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(bs)), "ns/gate")
				b.ReportMetric(float64(len(bs)), "gates")
			})
		}
	}
}
