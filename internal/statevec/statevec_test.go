package statevec

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"flatdd/internal/circuit"
)

const eps = 1e-10

func approx(a, b complex128) bool { return cmplx.Abs(a-b) < eps }

// applyDense is the test oracle: build the full 2^n x 2^n matrix of a gate
// and multiply densely.
func applyDense(n int, g *circuit.Gate, in []complex128) []complex128 {
	dim := 1 << uint(n)
	out := make([]complex128, dim)
	for col := 0; col < dim; col++ {
		if in[col] == 0 {
			continue
		}
		for row := 0; row < dim; row++ {
			out[row] += gateEntry(n, g, row, col) * in[col]
		}
	}
	return out
}

// gateEntry computes entry (row, col) of the full operator of g.
func gateEntry(n int, g *circuit.Gate, row, col int) complex128 {
	// Controls: if any control not satisfied by col, gate acts as identity.
	trig := true
	for _, c := range g.Controls {
		bit := col >> uint(c.Qubit) & 1
		if c.Negative {
			trig = trig && bit == 0
		} else {
			trig = trig && bit == 1
		}
		// Control bits must be unchanged.
		if row>>uint(c.Qubit)&1 != bit {
			return 0
		}
	}
	// Non-gate qubits must agree.
	var tmask int
	for _, q := range g.Targets {
		tmask |= 1 << uint(q)
	}
	var cmask int
	for _, c := range g.Controls {
		cmask |= 1 << uint(c.Qubit)
	}
	if row&^(tmask|cmask) != col&^(tmask|cmask) {
		return 0
	}
	if !trig {
		if row == col {
			return 1
		}
		return 0
	}
	ri, ci := 0, 0
	for l, q := range g.Targets {
		ri |= (row >> uint(q) & 1) << uint(l)
		ci |= (col >> uint(q) & 1) << uint(l)
	}
	return g.U[ri][ci]
}

func randState(rng *rand.Rand, n, threads int) *State {
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
	return &State{n: n, amps: amps, threads: threads}
}

func TestNewIsZeroState(t *testing.T) {
	s := New(3, 1)
	if !approx(s.Amplitudes()[0], 1) {
		t.Fatal("amp[0] != 1")
	}
	for i := 1; i < 8; i++ {
		if !approx(s.Amplitudes()[i], 0) {
			t.Fatalf("amp[%d] != 0", i)
		}
	}
}

func TestHadamardOnZero(t *testing.T) {
	s := New(1, 1)
	g := circuit.H(0)
	s.Apply(&g)
	want := complex(1/math.Sqrt2, 0)
	if !approx(s.Amplitudes()[0], want) || !approx(s.Amplitudes()[1], want) {
		t.Fatalf("H|0> = %v", s.Amplitudes())
	}
}

func TestBellState(t *testing.T) {
	s := New(2, 1)
	h := circuit.H(0)
	cx := circuit.CX(0, 1)
	s.Apply(&h)
	s.Apply(&cx)
	want := complex(1/math.Sqrt2, 0)
	amps := s.Amplitudes()
	if !approx(amps[0], want) || !approx(amps[3], want) || !approx(amps[1], 0) || !approx(amps[2], 0) {
		t.Fatalf("Bell state = %v", amps)
	}
}

func TestGatesMatchDenseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 5
	gates := []circuit.Gate{
		circuit.H(2), circuit.X(0), circuit.Y(4), circuit.Z(1),
		circuit.T(3), circuit.RX(0.7, 1), circuit.RY(-0.9, 2), circuit.RZ(2.3, 0),
		circuit.U3(0.3, 1.2, -0.5, 4),
		circuit.CX(0, 3), circuit.CX(4, 1), circuit.CZ(2, 0),
		circuit.CP(0.9, 1, 4), circuit.CCX(0, 2, 4), circuit.CCX(4, 3, 0),
		circuit.SWAP(1, 3), circuit.ISwap(0, 4), circuit.FSim(0.5, 0.3, 2, 4),
		circuit.RZZ(1.1, 0, 2),
		circuit.MCX([]int{0, 1, 2}, 4),
		{Name: "negctl", Targets: []int{2}, Controls: []circuit.Control{{Qubit: 0, Negative: true}},
			U: circuit.X(2).U},
	}
	for _, g := range gates {
		for _, threads := range []int{1, 4} {
			s := randState(rng, n, threads)
			want := applyDense(n, &g, append([]complex128(nil), s.Amplitudes()...))
			s.Apply(&g)
			for i := range want {
				if !approx(s.Amplitudes()[i], want[i]) {
					t.Fatalf("%s threads=%d mismatch at %d: %v vs %v",
						g.Name, threads, i, s.Amplitudes()[i], want[i])
				}
			}
		}
	}
}

func TestThreadCountInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := circuit.New("rand", 6)
	for i := 0; i < 40; i++ {
		switch rng.Intn(4) {
		case 0:
			c.Append(circuit.H(rng.Intn(6)))
		case 1:
			c.Append(circuit.RY(rng.NormFloat64(), rng.Intn(6)))
		case 2:
			a, b := rng.Intn(6), rng.Intn(6)
			if a != b {
				c.Append(circuit.CX(a, b))
			}
		default:
			a, b := rng.Intn(6), rng.Intn(6)
			if a != b {
				c.Append(circuit.FSim(0.4, 0.2, a, b))
			}
		}
	}
	s1 := New(6, 1)
	s1.ApplyCircuit(c)
	for _, threads := range []int{2, 3, 8} {
		s := New(6, threads)
		s.ApplyCircuit(c)
		for i := range s.Amplitudes() {
			if !approx(s.Amplitudes()[i], s1.Amplitudes()[i]) {
				t.Fatalf("threads=%d diverges at %d", threads, i)
			}
		}
	}
}

func TestFastPathMatchesFaithfulPath(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	c := circuit.New("mix", 6)
	for i := 0; i < 30; i++ {
		switch rng.Intn(3) {
		case 0:
			c.Append(circuit.U3(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.Intn(6)))
		case 1:
			a, b := rng.Intn(6), rng.Intn(6)
			if a != b {
				c.Append(circuit.CX(a, b))
			}
		default:
			a, b := rng.Intn(6), rng.Intn(6)
			if a != b {
				t3 := 0
				for t3 == a || t3 == b {
					t3++
				}
				c.Append(circuit.CCX(a, b, t3))
			}
		}
	}
	fast := New(6, 2)
	fast.SetFastPath(true)
	fast.ApplyCircuit(c)
	faithful := New(6, 2)
	faithful.ApplyCircuit(c)
	for i := range fast.Amplitudes() {
		if !approx(fast.Amplitudes()[i], faithful.Amplitudes()[i]) {
			t.Fatalf("paths diverge at %d", i)
		}
	}
}

func TestNormPreservedByCircuit(t *testing.T) {
	c := circuit.New("norm", 4)
	c.Append(circuit.H(0), circuit.CX(0, 1), circuit.T(1), circuit.SWAP(1, 2),
		circuit.CCX(0, 1, 3), circuit.RZZ(0.4, 2, 3))
	s := New(4, 2)
	s.ApplyCircuit(c)
	var norm2 float64
	for _, a := range s.Amplitudes() {
		norm2 += real(a)*real(a) + imag(a)*imag(a)
	}
	if n := math.Sqrt(norm2); math.Abs(n-1) > eps {
		t.Fatalf("norm %v, want 1", n)
	}
}

func TestCloneIndependent(t *testing.T) {
	s := New(2, 1)
	cl := s.Clone()
	x := circuit.X(0)
	s.Apply(&x)
	if !approx(cl.Amplitudes()[0], 1) {
		t.Fatal("clone mutated by original")
	}
}

func TestApplyValidates(t *testing.T) {
	s := New(2, 1)
	g := circuit.H(5)
	defer func() {
		if recover() == nil {
			t.Fatal("Apply accepted out-of-range gate")
		}
	}()
	s.Apply(&g)
}

func TestMemoryBytes(t *testing.T) {
	s := New(10, 1)
	if got := s.MemoryBytes(); got != 1024*16 {
		t.Fatalf("MemoryBytes = %d, want %d", got, 1024*16)
	}
}

func BenchmarkApplyH16(b *testing.B) {
	s := New(16, 1)
	g := circuit.H(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Apply(&g)
	}
}

func BenchmarkApplyCX16(b *testing.B) {
	s := New(16, 1)
	g := circuit.CX(3, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Apply(&g)
	}
}
