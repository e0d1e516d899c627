package core

import (
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"
	"testing"

	"flatdd/internal/circuit"
	"flatdd/internal/dmav"
	"flatdd/internal/statevec"
)

const eps = 1e-9

func approx(a, b complex128) bool { return cmplx.Abs(a-b) < eps }

func randomCircuit(rng *rand.Rand, n, gates int) *circuit.Circuit {
	c := circuit.New("rand", n)
	for len(c.Gates) < gates {
		switch rng.Intn(6) {
		case 0:
			c.Append(circuit.H(rng.Intn(n)))
		case 1:
			c.Append(circuit.T(rng.Intn(n)))
		case 2:
			c.Append(circuit.RY(rng.NormFloat64(), rng.Intn(n)))
		case 3:
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				c.Append(circuit.CX(a, b))
			}
		case 4:
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				c.Append(circuit.FSim(rng.NormFloat64(), rng.NormFloat64(), a, b))
			}
		default:
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				c.Append(circuit.CP(rng.NormFloat64(), a, b))
			}
		}
	}
	return c
}

func ghz(n int) *circuit.Circuit {
	c := circuit.New("ghz", n)
	c.Append(circuit.H(0))
	for q := 1; q < n; q++ {
		c.Append(circuit.CX(q-1, q))
	}
	return c
}

func checkAgainstStatevec(t *testing.T, c *circuit.Circuit, opts Options) Stats {
	t.Helper()
	s := New(c.Qubits, opts)
	st := s.Run(c)
	sv := statevec.New(c.Qubits, 2)
	sv.ApplyCircuit(c)
	got := s.Amplitudes()
	want := sv.Amplitudes()
	for i := range want {
		if !approx(got[i], want[i]) {
			t.Fatalf("amplitude %d: %v, want %v (opts=%+v)", i, got[i], want[i], opts)
		}
	}
	return st
}

func TestMatchesStatevecAllConfigurations(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	configs := []Options{
		{},                                 // defaults, controller decides
		{Threads: 4},                       // parallel
		{ForceConvertAfter: 1},             // convert almost immediately
		{ForceConvertAfter: 5, Threads: 8}, // convert early, many threads
		{MemoryBudget: 1},                  // pure DD: the budget vetoes conversion
		{ForceConvertAfter: 3, CacheMode: dmav.AlwaysCache},
		{ForceConvertAfter: 3, CacheMode: dmav.NeverCache},
		{ForceConvertAfter: 2, Fusion: DMAVAware, Threads: 4},
		{ForceConvertAfter: 2, Fusion: KOps, Threads: 2},
	}
	for ci, opts := range configs {
		n := 4 + rng.Intn(3)
		c := randomCircuit(rng, n, 35)
		st := checkAgainstStatevec(t, c, opts)
		if st.Gates != 35 {
			t.Fatalf("config %d: stats gates = %d", ci, st.Gates)
		}
	}
}

func TestGHZStaysInDDPhase(t *testing.T) {
	s := New(16, Options{Threads: 4})
	st := s.Run(ghz(16))
	if st.ConvertedAtGate != -1 {
		t.Fatalf("GHZ converted at gate %d; should stay in DD phase", st.ConvertedAtGate)
	}
	if s.Phase() != PhaseDD {
		t.Fatal("phase is not DD")
	}
	want := complex(1/math.Sqrt2, 0)
	if !approx(s.Amplitude(0), want) || !approx(s.Amplitude(1<<16-1), want) {
		t.Fatal("GHZ amplitudes wrong")
	}
}

// TestNewAllocatesLittle pins a simulator's fixed cost: the DD tables
// grow with use, so a DD-phase job does not pay for them at their cap.
func TestNewAllocatesLittle(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := New(20, Options{})
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 512<<10 {
		t.Fatalf("New(20, Options{}) allocated %d B, want < 512 KiB", got)
	}
}

func TestIrregularCircuitConverts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 10
	c := randomCircuit(rng, n, 120)
	s := New(n, Options{Threads: 2})
	st := s.Run(c)
	if st.ConvertedAtGate < 0 {
		t.Fatal("irregular circuit never converted to DMAV")
	}
	if s.Phase() != PhaseDMAV {
		t.Fatal("phase is not DMAV after conversion")
	}
	if st.ConversionTime <= 0 {
		t.Fatal("conversion time not recorded")
	}
	if st.DMAVTime <= 0 {
		t.Fatal("DMAV time not recorded")
	}
}

func TestTraceEvents(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 7
	c := randomCircuit(rng, n, 50)
	var events []TraceEvent
	s := New(n, Options{ForceConvertAfter: 10, Trace: func(e TraceEvent) { events = append(events, e) }})
	s.Run(c)
	if len(events) != 50 {
		t.Fatalf("got %d trace events, want 50", len(events))
	}
	ddCount, dmavCount := 0, 0
	for i, e := range events {
		if e.GateIndex != i {
			t.Fatalf("event %d has gate index %d", i, e.GateIndex)
		}
		switch e.Phase {
		case PhaseDD:
			ddCount++
			if e.DDSize <= 0 {
				t.Fatalf("DD event %d missing size", i)
			}
		case PhaseDMAV:
			dmavCount++
		}
	}
	if ddCount != 10 || dmavCount != 40 {
		t.Fatalf("phase split %d/%d, want 10/40", ddCount, dmavCount)
	}
	if !events[9].Converted {
		t.Fatal("conversion gate not flagged")
	}
}

func TestForcedConversionIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := randomCircuit(rng, 5, 20)
	s := New(5, Options{ForceConvertAfter: 7})
	st := s.Run(c)
	if st.ConvertedAtGate != 7 {
		t.Fatalf("converted at %d, want 7", st.ConvertedAtGate)
	}
}

func TestFusionReducesDMAVGateCount(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 6
	c := circuit.New("diag-heavy", n)
	for i := 0; i < 40; i++ {
		if i%4 == 3 {
			a, b := rng.Intn(n), rng.Intn(n)
			if a == b {
				b = (a + 1) % n
			}
			c.Append(circuit.CZ(a, b))
		} else {
			c.Append(circuit.RZ(rng.NormFloat64(), rng.Intn(n)))
		}
	}
	s := New(n, Options{ForceConvertAfter: 1, Fusion: DMAVAware})
	st := s.Run(c)
	if st.FusionResult == nil {
		t.Fatal("no fusion result recorded")
	}
	if st.FusedGates >= 39 {
		t.Fatalf("fusion did not shrink the gate list: %d", st.FusedGates)
	}
	if st.FusionResult.CostAfter > st.FusionResult.CostBefore {
		t.Fatal("fusion increased modeled cost")
	}
}

func TestProbabilitiesAndSampling(t *testing.T) {
	c := circuit.New("bell", 2)
	c.Append(circuit.H(0), circuit.CX(0, 1))
	s := New(2, Options{})
	s.Run(c)
	probs := s.Probabilities()
	if math.Abs(probs[0]-0.5) > eps || math.Abs(probs[3]-0.5) > eps {
		t.Fatalf("Bell probabilities %v", probs)
	}
	counts := s.Sample(rand.New(rand.NewSource(1)), 1000)
	if counts[1] != 0 || counts[2] != 0 {
		t.Fatalf("sampled impossible outcomes: %v", counts)
	}
	if counts[0] < 350 || counts[0] > 650 {
		t.Fatalf("biased samples: %v", counts)
	}
}

func TestStatsMemoryAndPeak(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	c := randomCircuit(rng, 8, 60)
	s := New(8, Options{Threads: 2})
	st := s.Run(c)
	if st.PeakDDNodes <= 0 {
		t.Fatal("peak DD nodes not tracked")
	}
	if st.MemoryBytes == 0 {
		t.Fatal("memory estimate missing")
	}
	if st.TotalTime <= 0 {
		t.Fatal("total time missing")
	}
}

func TestRunRejectsWrongWidth(t *testing.T) {
	s := New(3, Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("Run accepted mismatched circuit")
		}
	}()
	s.Run(circuit.New("wrong", 4))
}

func TestEmptyCircuit(t *testing.T) {
	s := New(3, Options{})
	st := s.Run(circuit.New("empty", 3))
	if st.ConvertedAtGate != -1 || st.Gates != 0 {
		t.Fatalf("empty circuit stats: %+v", st)
	}
	if !approx(s.Amplitude(0), 1) {
		t.Fatal("empty circuit state is not |0...0>")
	}
}

func TestConversionOnLastGateStaysDD(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	c := randomCircuit(rng, 4, 6)
	s := New(4, Options{ForceConvertAfter: 6})
	st := s.Run(c)
	if st.ConvertedAtGate != -1 {
		t.Fatal("converted with no remaining gates")
	}
	// Amplitudes must still be correct via on-demand conversion.
	sv := statevec.New(4, 1)
	sv.ApplyCircuit(c)
	got := s.Amplitudes()
	for i := range got {
		if !approx(got[i], sv.Amplitudes()[i]) {
			t.Fatalf("amplitude %d mismatch", i)
		}
	}
}

func TestThreadCountInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	c := randomCircuit(rng, 8, 60)
	ref := New(8, Options{Threads: 1}).run(c, t)
	for _, threads := range []int{2, 4, 16} {
		got := New(8, Options{Threads: threads}).run(c, t)
		for i := range ref {
			if !approx(ref[i], got[i]) {
				t.Fatalf("threads=%d diverges at %d", threads, i)
			}
		}
	}
}

func (s *Simulator) run(c *circuit.Circuit, t *testing.T) []complex128 {
	t.Helper()
	s.Run(c)
	return s.Amplitudes()
}

func TestTopAmplitudesBothPhases(t *testing.T) {
	c := ghz(10)
	want := map[uint64]bool{0: true, 1023: true}
	for _, opts := range []Options{{MemoryBudget: 1}, {ForceConvertAfter: 3}} {
		s := New(10, opts)
		s.Run(c)
		top := s.TopAmplitudes(5)
		if len(top) != 2 {
			t.Fatalf("opts %+v: %d entries, want 2", opts, len(top))
		}
		for _, e := range top {
			if !want[e.Index] {
				t.Fatalf("unexpected index %d", e.Index)
			}
		}
		if s.TopAmplitudes(0) != nil {
			t.Fatal("k=0 returned entries")
		}
	}
}
