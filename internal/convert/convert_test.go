package convert

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"flatdd/internal/circuit"
	"flatdd/internal/dd"
	"flatdd/internal/ddsim"
	"flatdd/internal/obs"
	"flatdd/internal/sched"
)

const eps = 1e-9

func approx(a, b complex128) bool { return cmplx.Abs(a-b) < eps }

// parallel converts e on a transient pool of the given worker count.
func parallel(e dd.VEdge, n, threads int) []complex128 {
	p := sched.New(threads)
	defer p.Close()
	out := make([]complex128, uint64(1)<<uint(n))
	if err := ParallelIntoPool(e, n, p, out, nil); err != nil {
		panic(err)
	}
	return out
}

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

func checkAgainst(t *testing.T, name string, m *dd.Manager, e dd.VEdge, n int) {
	t.Helper()
	want := Sequential(m, e, n)
	for _, threads := range []int{1, 2, 3, 4, 8, 16} {
		got := parallel(e, n, threads)
		for i := range want {
			if !approx(got[i], want[i]) {
				t.Fatalf("%s threads=%d: amplitude %d = %v, want %v", name, threads, i, got[i], want[i])
			}
		}
	}
}

func TestParallelMatchesSequentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 10; n++ {
		m := dd.New(n)
		e := m.VectorFromAmplitudes(randAmps(rng, n))
		checkAgainst(t, "random", m, e, n)
	}
}

func TestParallelMatchesSequentialSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 6; trial++ {
		n := 4 + rng.Intn(6)
		m := dd.New(n)
		amps := make([]complex128, 1<<uint(n))
		for k := 0; k < 3; k++ {
			amps[rng.Intn(len(amps))] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		amps[0] = 1 // ensure nonzero
		e := m.VectorFromAmplitudes(amps)
		checkAgainst(t, "sparse", m, e, n)
	}
}

func TestParallelUniformSuperpositionHitsScalarPath(t *testing.T) {
	// |+>^n has identical children at every node: the scalar-multiply
	// optimization applies at every level.
	n := 12
	m := dd.New(n)
	s := ddsim.NewWithManager(m, n)
	for q := 0; q < n; q++ {
		g := circuit.H(q)
		s.ApplyGate(&g)
	}
	checkAgainst(t, "uniform", m, s.State(), n)
}

func TestParallelGHZ(t *testing.T) {
	n := 14
	m := dd.New(n)
	s := ddsim.NewWithManager(m, n)
	g := circuit.H(0)
	s.ApplyGate(&g)
	for q := 1; q < n; q++ {
		cx := circuit.CX(q-1, q)
		s.ApplyGate(&cx)
	}
	checkAgainst(t, "ghz", m, s.State(), n)
}

// TestParallelIntoEmptyEnv: every Env field is optional, the pool too; an
// empty Env converts inline on the caller.
func TestParallelIntoEmptyEnv(t *testing.T) {
	n := 6
	m := dd.New(n)
	s := ddsim.NewWithManager(m, n)
	g := circuit.H(0)
	s.ApplyGate(&g)
	for q := 1; q < n; q++ {
		cx := circuit.CX(q-1, q)
		s.ApplyGate(&cx)
	}
	out := make([]complex128, 1<<uint(n))
	if ok, err := ParallelIntoEnv(s.State(), n, out, &sched.Env{}); !ok || err != nil {
		t.Fatalf("conversion returned (%v, %v), want (true, nil)", ok, err)
	}
	want := complex(1/math.Sqrt2, 0)
	if !approx(out[0], want) || !approx(out[len(out)-1], want) {
		t.Fatalf("GHZ amplitudes %v, %v, want %v", out[0], out[len(out)-1], want)
	}
}

func TestParallelAlternatingSignState(t *testing.T) {
	// (H Z H)-style states with negative-weight shared children exercise
	// scalar factors different from 1.
	n := 10
	m := dd.New(n)
	amps := make([]complex128, 1<<uint(n))
	f := 1 / math.Sqrt(float64(len(amps)))
	for i := range amps {
		sign := 1.0
		if popcount(uint(i))%2 == 1 {
			sign = -1
		}
		amps[i] = complex(sign*f, 0)
	}
	e := m.VectorFromAmplitudes(amps)
	checkAgainst(t, "alternating", m, e, n)
}

func popcount(x uint) int {
	c := 0
	for x != 0 {
		c += int(x & 1)
		x >>= 1
	}
	return c
}

func TestParallelZeroEdge(t *testing.T) {
	m := dd.New(4)
	out := parallel(m.VZeroEdge(), 4, 4)
	for i, v := range out {
		if v != 0 {
			t.Fatalf("zero edge produced nonzero at %d", i)
		}
	}
}

func TestParallelIntoValidatesLength(t *testing.T) {
	m := dd.New(3)
	p := sched.New(2)
	defer p.Close()
	if err := ParallelIntoPool(m.ZeroState(3), 3, p, make([]complex128, 4), nil); err == nil {
		t.Fatal("ParallelIntoPool accepted short output")
	}
	if err := ParallelIntoPool(m.ZeroState(3), 3, p, make([]complex128, 8), nil); err != nil {
		t.Fatalf("correct length rejected: %v", err)
	}
}

// TestParallelIntoEnvCancelAndMetrics: a probe that has already fired
// leaves the conversion incomplete, and a completed conversion reports
// itself and its tasks to the environment's registry.
func TestParallelIntoEnvCancelAndMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 12
	m := dd.New(n)
	e := m.VectorFromAmplitudes(randAmps(rng, n))
	p := sched.New(2)
	defer p.Close()
	out := make([]complex128, 1<<uint(n))
	if ok, err := ParallelIntoEnv(e, n, out, &sched.Env{Pool: p, Cancel: func() bool { return true }}); ok || err != nil {
		t.Fatalf("canceled conversion returned (%v, %v), want (false, nil)", ok, err)
	}
	reg := obs.New()
	clear(out)
	if ok, err := ParallelIntoEnv(e, n, out, &sched.Env{Pool: p, Metrics: reg}); !ok || err != nil {
		t.Fatalf("conversion returned (%v, %v), want (true, nil)", ok, err)
	}
	snap := reg.Snapshot()
	if snap.Counters["convert.runs"] != 1 || snap.Counters["convert.tasks"] == 0 {
		t.Fatalf("convert.runs = %d, convert.tasks = %d", snap.Counters["convert.runs"], snap.Counters["convert.tasks"])
	}
	want := Sequential(m, e, n)
	for i := range want {
		if !approx(out[i], want[i]) {
			t.Fatalf("amplitude %d = %v, want %v", i, out[i], want[i])
		}
	}
}

func TestParallelRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(9)
		m := dd.New(n)
		amps := randAmps(rng, n)
		e := m.VectorFromAmplitudes(amps)
		got := parallel(e, n, 1+rng.Intn(8))
		for i := range amps {
			if !approx(got[i], amps[i]) {
				t.Fatalf("trial %d n=%d: round trip failed at %d", trial, n, i)
			}
		}
	}
}

func TestThreadsClampedToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	m := dd.New(5)
	e := m.VectorFromAmplitudes(randAmps(rng, 5))
	got := parallel(e, 5, -3)
	want := Sequential(m, e, 5)
	for i := range want {
		if !approx(got[i], want[i]) {
			t.Fatalf("threads<1 mismatch at %d", i)
		}
	}
}

func benchState(n int) (dd.VEdge, *dd.Manager) {
	rng := rand.New(rand.NewSource(4))
	m := dd.New(n)
	return m.VectorFromAmplitudes(randAmps(rng, n)), m
}

func BenchmarkSequential16(b *testing.B) {
	e, m := benchState(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Sequential(m, e, 16)
	}
}

func BenchmarkParallel16T4(b *testing.B) {
	e, _ := benchState(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parallel(e, 16, 4)
	}
}

func TestParallelNaiveMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(8)
		m := dd.New(n)
		var e dd.VEdge
		if trial%2 == 0 {
			e = m.VectorFromAmplitudes(randAmps(rng, n))
		} else {
			e = m.BasisState(n, uint64(rng.Intn(1<<uint(n))))
		}
		want := Sequential(m, e, n)
		for _, threads := range []int{1, 3, 8} {
			out := make([]complex128, len(want))
			ParallelNaiveInto(e, n, threads, out)
			for i := range want {
				if !approx(out[i], want[i]) {
					t.Fatalf("trial %d threads %d: naive conversion wrong at %d", trial, threads, i)
				}
			}
		}
	}
}
