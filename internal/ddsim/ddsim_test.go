package ddsim

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"flatdd/internal/circuit"
	"flatdd/internal/dd"
	"flatdd/internal/obs"
	"flatdd/internal/statevec"
	"flatdd/internal/workloads"
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
				c.Append(circuit.CP(rng.NormFloat64(), a, b))
			}
		default:
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				c.Append(circuit.ISwap(a, b))
			}
		}
	}
	return c
}

func TestBellState(t *testing.T) {
	s := New(2)
	h := circuit.H(0)
	cx := circuit.CX(0, 1)
	s.ApplyGate(&h)
	s.ApplyGate(&cx)
	want := complex(1/math.Sqrt2, 0)
	if !approx(s.Amplitude(0), want) || !approx(s.Amplitude(3), want) {
		t.Fatalf("Bell amplitudes: %v %v", s.Amplitude(0), s.Amplitude(3))
	}
	if !approx(s.Amplitude(1), 0) || !approx(s.Amplitude(2), 0) {
		t.Fatal("Bell state has spurious amplitudes")
	}
}

func TestGHZStaysCompact(t *testing.T) {
	n := 16
	s := New(n)
	h := circuit.H(0)
	s.ApplyGate(&h)
	for q := 1; q < n; q++ {
		cx := circuit.CX(q-1, q)
		s.ApplyGate(&cx)
	}
	// GHZ state: two nonzero amplitudes, O(n) DD nodes.
	if size := s.StateSize(); size > 2*n {
		t.Fatalf("GHZ state DD size %d, expected O(n)", size)
	}
	want := complex(1/math.Sqrt2, 0)
	if !approx(s.Amplitude(0), want) || !approx(s.Amplitude(1<<uint(n)-1), want) {
		t.Fatal("GHZ amplitudes wrong")
	}
}

func TestMatchesArraySimulatorOnRandomCircuits(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 8; trial++ {
		n := 2 + rng.Intn(6)
		c := randomCircuit(rng, n, 25)
		ds := New(n)
		ds.Run(c)
		sv := statevec.New(n, 2)
		sv.ApplyCircuit(c)
		got := ds.ToArray()
		want := sv.Amplitudes()
		for i := range want {
			if !approx(got[i], want[i]) {
				t.Fatalf("trial %d (n=%d): amplitude %d = %v, want %v", trial, n, i, got[i], want[i])
			}
		}
	}
}

func TestNormPreserved(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := New(8)
	c := randomCircuit(rng, 8, 60)
	s.Run(c)
	var norm2 float64
	for _, a := range s.ToArray() {
		norm2 += real(a)*real(a) + imag(a)*imag(a)
	}
	if n := math.Sqrt(norm2); math.Abs(n-1) > 1e-7 {
		t.Fatalf("norm %v, want 1", n)
	}
}

func TestStateSizeGrowsOnIrregularCircuit(t *testing.T) {
	// Random two-qubit entanglers with random rotations drive the DD
	// toward maximal size; a structured circuit stays small. This is the
	// regularity contrast FlatDD exploits.
	rng := rand.New(rand.NewSource(3))
	n := 10
	irregular := New(n)
	irregular.Run(randomCircuit(rng, n, 150))
	regular := New(n)
	ghz := circuit.New("ghz", n)
	ghz.Append(circuit.H(0))
	for q := 1; q < n; q++ {
		ghz.Append(circuit.CX(q-1, q))
	}
	regular.Run(ghz)
	if irregular.StateSize() < 8*regular.StateSize() {
		t.Fatalf("irregular size %d not much larger than regular %d",
			irregular.StateSize(), regular.StateSize())
	}
}

func TestGatesAppliedAndPeak(t *testing.T) {
	s := New(4)
	c := circuit.New("c", 4)
	c.Append(circuit.H(0), circuit.H(1), circuit.CX(0, 2))
	s.Run(c)
	if s.GatesApplied() != 3 {
		t.Fatalf("GatesApplied = %d", s.GatesApplied())
	}
	if s.PeakStateSize() < 1 {
		t.Fatal("peak size not tracked")
	}
}

func TestRunRejectsWrongWidth(t *testing.T) {
	s := New(3)
	defer func() {
		if recover() == nil {
			t.Fatal("Run accepted mismatched circuit")
		}
	}()
	s.Run(circuit.New("wrong", 5))
}

func TestGCDoesNotCorruptState(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	s := New(6)
	s.Manager().SetGCThreshold(64) // force frequent collections
	c := randomCircuit(rng, 6, 40)
	s.Run(c)
	sv := statevec.New(6, 1)
	sv.ApplyCircuit(c)
	got := s.ToArray()
	for i := range got {
		if !approx(got[i], sv.Amplitudes()[i]) {
			t.Fatalf("GC corrupted amplitude %d", i)
		}
	}
}

// TestFreshManagersBitIdentical runs one seeded random circuit on two
// fresh simulators: nothing about a manager (table seeds, allocation
// addresses) may leak into the amplitudes.
func TestFreshManagersBitIdentical(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		c := randomCircuit(rand.New(rand.NewSource(300+seed)), 4+int(seed), 60)
		a, b := New(c.Qubits), New(c.Qubits)
		a.Run(c)
		b.Run(c)
		want, got := a.ToArray(), b.ToArray()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed=%d amplitude %d: %v != %v", seed, i, got[i], want[i])
			}
		}
	}
}

// TestCollectEveryGateBitIdentical collects after every gate — every node
// outside the live state swept, every compute table wiped — and requires
// amplitudes bit-equal to a GC-free run, so rebuilding swept sub-DDs must
// land on exactly the weights the cached path produced.
func TestCollectEveryGateBitIdentical(t *testing.T) {
	c := workloads.SupremacyGrid(6, 12, 20240812)
	ref := New(c.Qubits)
	ref.Manager().SetGCThreshold(0)
	ref.Run(c)

	s := New(c.Qubits)
	reg := obs.New()
	s.Manager().SetMetrics(reg)
	for i := range c.Gates {
		s.ApplyGate(&c.Gates[i])
		s.Manager().Collect(dd.Roots{V: []dd.VEdge{s.State()}})
	}
	want, got := ref.ToArray(), s.ToArray()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("amplitude %d: collected %v != GC-free %v", i, got[i], want[i])
		}
	}
	if runs := reg.Snapshot().Counters["dd.gc.runs"]; runs != int64(len(c.Gates)) {
		t.Fatalf("dd.gc.runs = %d, want one per gate (%d)", runs, len(c.Gates))
	}
}

func BenchmarkGHZ20(b *testing.B) {
	c := circuit.New("ghz", 20)
	c.Append(circuit.H(0))
	for q := 1; q < 20; q++ {
		c.Append(circuit.CX(q-1, q))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New(20)
		s.Run(c)
	}
}
