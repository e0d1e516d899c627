package dmav

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"flatdd/internal/circuit"
	"flatdd/internal/dd"
	"flatdd/internal/ddsim"
	"flatdd/internal/statevec"
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
	for dd.MACCount(M) < macs {
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
// allocate.
func TestApplySteadyStateAllocationFree(t *testing.T) {
	// n=17 is the smallest register where a single-qubit gate (2^18 MACs)
	// reaches inlineBelowMACs; a CZ (2^17) stays under it.
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
				if inline := e.gates[M.N].inline; M == big && inline != (threads == 1) {
					t.Fatalf("mode=%v threads=%d: the 2^18-MAC gate has inline=%v", mode, threads, inline)
				}
				if a := testing.AllocsPerRun(10, func() { e.Apply(M, V, W) }); a != 0 {
					t.Errorf("mode=%v threads=%d inline=%v: %v allocs per steady-state Apply",
						mode, threads, e.gates[M.N].inline, a)
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

func TestSIMDWidthChangesCostModel(t *testing.T) {
	// Equation 6: larger d makes caching cheaper; the decision can flip.
	n := 8
	m := dd.New(n)
	g := circuit.H(n - 1)
	M := ddsim.BuildGateDD(m, n, &g)
	e := New(m, n, 4, Auto)
	e.SetSIMDWidth(1)
	c1 := e.EvaluateCost(M)
	e.SetSIMDWidth(64)
	c64 := e.EvaluateCost(M)
	if c64.C2 >= c1.C2 {
		t.Fatalf("larger SIMD width did not lower C2: %v vs %v", c64.C2, c1.C2)
	}
	if c1.C1 != c64.C1 {
		t.Fatal("C1 must not depend on the SIMD width")
	}
	e.SetSIMDWidth(0) // clamps to 1
	if got := e.EvaluateCost(M).C2; got != c1.C2 {
		t.Fatalf("width clamp broken: %v vs %v", got, c1.C2)
	}
}
