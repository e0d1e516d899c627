package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"flatdd/internal/obs"
	"flatdd/internal/sched"
)

// norm sums |a|^2 over the final state; a queryable simulator whose last
// gate was fully applied must still be normalized.
func norm(s *Simulator) float64 {
	var p float64
	for _, a := range s.Amplitudes() {
		p += real(a)*real(a) + imag(a)*imag(a)
	}
	return p
}

func TestCancelMidDDPhase(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 8
	c := randomCircuit(rng, n, 60)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reg := obs.New()
	const cancelAt = 10
	s := New(n, Options{
		MemoryBudget: 1,
		Metrics:      reg,
		Trace: func(ev TraceEvent) {
			if ev.GateIndex == cancelAt {
				cancel()
			}
		},
	})
	st, err := s.RunContext(ctx, c)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatal("ErrCanceled must wrap context.Canceled")
	}
	if st.TimedOut {
		t.Fatal("a cancel is not a timeout")
	}
	if st.DDTime <= 0 || st.TotalTime <= 0 {
		t.Fatalf("partial stats missing: %+v", st)
	}
	// The cancel fires inside gate cancelAt's trace callback; the boundary
	// probe of the next gate observes it, so exactly cancelAt+1 gates ran.
	if s.Phase() != PhaseDD {
		t.Fatal("phase left DD")
	}
	if p := norm(s); math.Abs(p-1) > eps {
		t.Fatalf("state not queryable after abort: norm %v", p)
	}
	if got := reg.Counter("core.cancel_aborts").Value(); got != 1 {
		t.Fatalf("core.cancel_aborts = %d, want 1", got)
	}
}

func TestCancelMidConversion(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n := 9
	c := randomCircuit(rng, n, 80)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := New(n, Options{
		ForceConvertAfter: 20,
		Threads:           4,
		Trace: func(ev TraceEvent) {
			if ev.Converted {
				// Fires on the gate that triggers conversion, before any
				// array is filled: the conversion itself must abort.
				cancel()
			}
		},
	})
	st, err := s.RunContext(ctx, c)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if st.ConvertedAtGate != -1 {
		t.Fatalf("aborted conversion must not count as converted: %d", st.ConvertedAtGate)
	}
	if s.Phase() != PhaseDD {
		t.Fatal("aborted conversion must leave the simulator in the DD phase")
	}
	// The state DD was untouched by the aborted conversion.
	if p := norm(s); math.Abs(p-1) > eps {
		t.Fatalf("state not queryable after conversion abort: norm %v", p)
	}
}

func TestCancelMidDMAV(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 9
	c := randomCircuit(rng, n, 80)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	dmavGates := 0
	s := New(n, Options{
		ForceConvertAfter: 10,
		Threads:           2,
		Trace: func(ev TraceEvent) {
			if ev.Phase == PhaseDMAV {
				dmavGates++
				if dmavGates == 3 {
					cancel()
				}
			}
		},
	})
	st, err := s.RunContext(ctx, c)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if st.ConvertedAtGate < 0 {
		t.Fatal("run never reached the DMAV phase")
	}
	if s.Phase() != PhaseDMAV {
		t.Fatal("phase is not DMAV")
	}
	if st.DMAVTime <= 0 {
		t.Fatal("DMAV time not recorded on abort")
	}
	// Every fully applied gate is unitary, and a partially applied gate is
	// discarded, so the flat state must still be normalized.
	if p := norm(s); math.Abs(p-1) > eps {
		t.Fatalf("state not queryable after DMAV abort: norm %v", p)
	}
}

func TestContextDeadlineMapsToSentinel(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	n := 8
	c := randomCircuit(rng, n, 40)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	s := New(n, Options{})
	st, err := s.RunContext(ctx, c)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("ErrDeadlineExceeded must wrap context.DeadlineExceeded")
	}
	if !st.TimedOut {
		t.Fatal("Stats.TimedOut not set on deadline abort")
	}
}

// TestPoolAuthoritativeOverThreads: with Options.Pool set, the pool's
// worker count drives both execution and the DMAV cost model, whatever
// Threads says.
func TestPoolAuthoritativeOverThreads(t *testing.T) {
	pool := sched.New(4)
	defer pool.Close()
	rng := rand.New(rand.NewSource(16))
	n := 6
	c := randomCircuit(rng, n, 40)
	s := New(n, Options{Threads: 1, Pool: pool, ForceConvertAfter: 5})
	st := s.Run(c)
	if st.ConvertedAtGate < 0 {
		t.Fatal("forced conversion did not happen")
	}
	if p := norm(s); math.Abs(p-1) > eps {
		t.Fatalf("norm %v with injected pool", p)
	}
	if poolTasks(pool) == 0 {
		t.Fatal("the run executed no task on Options.Pool")
	}
	// The cost model divides by the thread count: the run must model the
	// pool's four workers, not the one Threads asks for.
	four := New(n, Options{Threads: 4, ForceConvertAfter: 5}).Run(c)
	one := New(n, Options{Threads: 1, ForceConvertAfter: 5}).Run(c)
	got, want4, want1 := st.DMAVStats.MACsModeled, four.DMAVStats.MACsModeled, one.DMAVStats.MACsModeled
	if got != want4 || got == want1 {
		t.Fatalf("modeled cost %v, want the 4-thread %v (1-thread: %v)", got, want4, want1)
	}
}

func TestRunContextNilDeadlinePathUnchanged(t *testing.T) {
	// A background context must behave exactly like Run: no error, full
	// stats, and identical amplitudes.
	rng := rand.New(rand.NewSource(17))
	n := 6
	c := randomCircuit(rng, n, 40)
	s1 := New(n, Options{ForceConvertAfter: 8})
	st, err := s1.RunContext(context.Background(), c)
	if err != nil {
		t.Fatalf("RunContext on background ctx: %v", err)
	}
	if st.Gates != 40 || st.TimedOut {
		t.Fatalf("unexpected stats: %+v", st)
	}
	s2 := New(n, Options{ForceConvertAfter: 8})
	s2.Run(c)
	a1, a2 := s1.Amplitudes(), s2.Amplitudes()
	for i := range a1 {
		if !approx(a1[i], a2[i]) {
			t.Fatalf("amplitude %d: RunContext %v vs Run %v", i, a1[i], a2[i])
		}
	}
}
