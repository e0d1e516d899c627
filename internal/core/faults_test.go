package core

import (
	"context"
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"flatdd/internal/dmav"
	"flatdd/internal/faults"
	"flatdd/internal/obs"
	"flatdd/internal/statevec"
	"flatdd/internal/workloads"
)

// faultCircuit is a pooled-size workload: n=13 gives an 8192-amplitude
// state, the smallest size at which the DMAV phase's single-qubit gates
// (2^14 MACs, dmav's inlineBelowMACs) and the conversion batch onto the
// scheduler pool instead of running inline — which is where worker
// panics must be contained.
func faultCircuit(t *testing.T) (int, int) { return 13, 40 }

func TestFaultWorkerPanicContained(t *testing.T) {
	n, gates := faultCircuit(t)
	c := randomCircuit(rand.New(rand.NewSource(5)), n, gates)
	reg := faults.New(1)
	reg.Arm(faults.SchedWorkerPanic, faults.Trigger{Nth: 1, Transient: true})
	s := New(n, Options{Threads: 4, ForceConvertAfter: 5, Faults: reg})
	_, err := s.RunContext(context.Background(), c)
	if err == nil {
		t.Fatal("injected worker panic did not surface")
	}
	if !errors.Is(err, ErrEngineFault) {
		t.Fatalf("err = %v, want ErrEngineFault", err)
	}
	var ef *EngineFault
	if !errors.As(err, &ef) {
		t.Fatalf("err (%T) is not *EngineFault", err)
	}
	if ef.Point != faults.SchedWorkerPanic {
		t.Fatalf("fault point = %q, want %q", ef.Point, faults.SchedWorkerPanic)
	}
	if !IsTransient(err) {
		t.Fatal("transient trigger not classified transient")
	}
	if ef.Stack == "" {
		t.Fatal("no stack captured")
	}
}

func TestFaultOrganicPanicNotTransient(t *testing.T) {
	n, gates := faultCircuit(t)
	c := randomCircuit(rand.New(rand.NewSource(6)), n, gates)
	reg := faults.New(1)
	// An un-classified (non-Injected) panic value stands in for an
	// organic engine bug; it must surface as a non-transient fault.
	reg.Arm(faults.SchedWorkerPanic, faults.Trigger{Nth: 1})
	s := New(n, Options{Threads: 4, ForceConvertAfter: 5, Faults: reg})
	_, err := s.RunContext(context.Background(), c)
	if err == nil || !errors.Is(err, ErrEngineFault) {
		t.Fatalf("err = %v, want ErrEngineFault", err)
	}
	if IsTransient(err) {
		t.Fatal("non-transient trigger classified transient")
	}
	if IsTransient(ErrCanceled) || IsTransient(nil) {
		t.Fatal("IsTransient misfires on non-fault errors")
	}
}

func TestFaultMetricsCount(t *testing.T) {
	n, gates := faultCircuit(t)
	c := randomCircuit(rand.New(rand.NewSource(7)), n, gates)
	reg := faults.New(1)
	reg.Arm(faults.SchedWorkerPanic, faults.Trigger{Nth: 1})
	r := obs.New()
	s := New(n, Options{Threads: 4, ForceConvertAfter: 5, Faults: reg, Metrics: r})
	if _, err := s.RunContext(context.Background(), c); err == nil {
		t.Fatal("injected panic did not surface")
	}
	if got := r.Counter("core.engine_faults").Value(); got != 1 {
		t.Fatalf("core.engine_faults = %d, want 1", got)
	}
}

// runDegradedAgainstStatevec runs c with opts, asserts the run degraded
// for the given reason and never converted, and checks the full final
// state against the dense reference simulator.
func runDegradedAgainstStatevec(t *testing.T, opts Options, reason string) Stats {
	t.Helper()
	n, gates := faultCircuit(t)
	c := randomCircuit(rand.New(rand.NewSource(8)), n, gates)
	s := New(n, opts)
	st, err := s.RunContext(context.Background(), c)
	if err != nil {
		t.Fatalf("degraded run failed: %v", err)
	}
	if !st.Degraded || st.DegradedReason != reason {
		t.Fatalf("Degraded=%v reason=%q, want true/%q", st.Degraded, st.DegradedReason, reason)
	}
	if st.ConvertedAtGate != -1 {
		t.Fatalf("degraded run converted at gate %d", st.ConvertedAtGate)
	}
	if s.Phase() != PhaseDD {
		t.Fatalf("degraded run ended in phase %v", s.Phase())
	}
	sv := statevec.New(n, 2)
	sv.ApplyCircuit(c)
	got, want := s.Amplitudes(), sv.Amplitudes()
	for i := range want {
		if !approx(got[i], want[i]) {
			t.Fatalf("amplitude %d: %v, want %v", i, got[i], want[i])
		}
	}
	return st
}

func TestDegradedMemoryBudget(t *testing.T) {
	r := obs.New()
	runDegradedAgainstStatevec(t, Options{
		Threads: 4, ForceConvertAfter: 5, MemoryBudget: 1, Metrics: r,
	}, "memory_budget")
	if got := r.Counter("core.integrity_checks").Value(); got != 0 {
		t.Fatalf("DD-only run swept the flat state %d times", got)
	}
	if got := r.Gauge("core.degraded").Value(); got != 1 {
		t.Fatalf("core.degraded = %d, want 1", got)
	}
}

func TestDegradedAllocFailure(t *testing.T) {
	reg := faults.New(1)
	reg.Arm(faults.CoreConvertAlloc, faults.Trigger{Nth: 1})
	runDegradedAgainstStatevec(t, Options{
		Threads: 4, ForceConvertAfter: 5, Faults: reg,
	}, "alloc_failed")
}

func TestDegradedBudgetAllowsConversionWhenSufficient(t *testing.T) {
	n, gates := faultCircuit(t)
	c := randomCircuit(rand.New(rand.NewSource(8)), n, gates)
	// The budget check prices the partial buffers of Threads 4: one byte
	// less than dmav.FlatBytes degrades, the figure itself converts.
	need := dmav.FlatBytes(n, 4, dmav.Auto)
	for _, tc := range []struct {
		budget   uint64
		degraded bool
	}{{need - 1, true}, {need, false}} {
		s := New(n, Options{Threads: 4, ForceConvertAfter: 5, MemoryBudget: tc.budget})
		st, err := s.RunContext(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		if st.Degraded != tc.degraded || (st.ConvertedAtGate == 5) == tc.degraded {
			t.Fatalf("budget %d of %d: degraded=%v converted at %d", tc.budget, need, st.Degraded, st.ConvertedAtGate)
		}
	}
}

// TestDegradedRegisterTooWide fires the conversion on a register above
// the DMAV ceiling: the run must stay in the DD phase with its exact
// answer instead of attempting a 16·2^40-byte allocation.
func TestDegradedRegisterTooWide(t *testing.T) {
	const n = 40
	r := obs.New()
	s := New(n, Options{ForceConvertAfter: 5, Metrics: r})
	st, err := s.RunContext(context.Background(), workloads.GHZ(n))
	if err != nil {
		t.Fatal(err)
	}
	if !st.Degraded || st.DegradedReason != "register_too_wide" || st.ConvertedAtGate != -1 {
		t.Fatalf("Degraded=%v reason=%q converted at %d, want true/register_too_wide/-1",
			st.Degraded, st.DegradedReason, st.ConvertedAtGate)
	}
	if got := r.Gauge("core.degraded").Value(); got != 1 {
		t.Fatalf("core.degraded = %d, want 1", got)
	}
	top := s.TopAmplitudes(2)
	want := []uint64{0, 1<<n - 1}
	if len(top) != 2 {
		t.Fatalf("TopAmplitudes(2) = %v", top)
	}
	for i, e := range top {
		if e.Index != want[i] || cmplx.Abs(e.Amplitude-complex(1/math.Sqrt2, 0)) > 1e-12 {
			t.Fatalf("TopAmplitudes(2)[%d] = %+v, want index %d at 1/√2", i, e, want[i])
		}
	}
}

func TestDriftNaNCorruptionDetected(t *testing.T) {
	n, gates := faultCircuit(t)
	c := randomCircuit(rand.New(rand.NewSource(9)), n, gates)
	reg := faults.New(1)
	// Zero Factor replaces one amplitude with NaN after a row chunk of
	// the uncached kernel computes (NeverCache pins the engine there).
	reg.Arm(faults.DMAVComputeCorrupt, faults.Trigger{Nth: 1})
	s := New(n, Options{
		Threads: 4, ForceConvertAfter: 5, Faults: reg,
		CacheMode: dmav.NeverCache, IntegrityEvery: 1,
	})
	_, err := s.RunContext(context.Background(), c)
	if !errors.Is(err, ErrNumericalDrift) {
		t.Fatalf("err = %v, want ErrNumericalDrift", err)
	}
	var de *DriftError
	if !errors.As(err, &de) || de.NaNs == 0 {
		t.Fatalf("drift error = %+v", de)
	}
}

func TestDriftNormDeviationDetected(t *testing.T) {
	// Unit test of the sweep itself: a finite state whose norm drifted
	// must fail without being miscounted as NaN/Inf.
	s := New(4, Options{IntegrityEvery: 1})
	s.state = make([]complex128, 16)
	s.state[0] = 1.5 // norm 2.25
	err := s.integritySweep(3)
	var de *DriftError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want *DriftError", err)
	}
	if de.NaNs != 0 || de.Infs != 0 || de.Gate != 3 {
		t.Fatalf("norm drift miscounted: %+v", de)
	}
	if de.Norm < 2.2 || de.Norm > 2.3 {
		t.Fatalf("norm = %g, want ~2.25", de.Norm)
	}
	// Within tolerance passes; with approximation on, the norm check is
	// skipped entirely (mass shedding is legitimate there).
	s.state[0] = 1
	if err := s.integritySweep(4); err != nil {
		t.Fatalf("unit-norm state failed the sweep: %v", err)
	}
	sa := New(4, Options{IntegrityEvery: 1, ApproxBudget: 0.1})
	sa.state = make([]complex128, 16)
	sa.state[0] = 0.5 // norm 0.25: fine under approximation
	if err := sa.integritySweep(0); err != nil {
		t.Fatalf("approximated state failed the norm check: %v", err)
	}
}

func TestFaultIntegritySweepCleanRun(t *testing.T) {
	n, gates := faultCircuit(t)
	c := randomCircuit(rand.New(rand.NewSource(11)), n, gates)
	r := obs.New()
	s := New(n, Options{Threads: 4, ForceConvertAfter: 5, IntegrityEvery: 3, Metrics: r})
	if _, err := s.RunContext(context.Background(), c); err != nil {
		t.Fatalf("clean run tripped the sweep: %v", err)
	}
	if r.Counter("core.integrity_checks").Value() == 0 {
		t.Fatal("no integrity sweeps ran")
	}
	// The sweep must not disturb the state: check against the reference.
	sv := statevec.New(n, 2)
	sv.ApplyCircuit(c)
	got, want := s.Amplitudes(), sv.Amplitudes()
	for i := range want {
		if !approx(got[i], want[i]) {
			t.Fatalf("amplitude %d: %v, want %v", i, got[i], want[i])
		}
	}
}

func TestFaultCacheCorruptionDetected(t *testing.T) {
	n, gates := faultCircuit(t)
	c := randomCircuit(rand.New(rand.NewSource(12)), n, gates)
	reg := faults.New(1)
	reg.Arm(faults.DMAVCacheCorrupt, faults.Trigger{Nth: 1})
	s := New(n, Options{
		Threads: 4, ForceConvertAfter: 5, Faults: reg,
		CacheMode: dmav.AlwaysCache, IntegrityEvery: 1,
	})
	_, err := s.RunContext(context.Background(), c)
	if !errors.Is(err, ErrNumericalDrift) {
		t.Fatalf("err = %v, want ErrNumericalDrift", err)
	}
}
