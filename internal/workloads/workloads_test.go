package workloads

import (
	"fmt"
	"math"
	"math/cmplx"
	"testing"

	"flatdd/internal/circuit"
	"flatdd/internal/statevec"
)

const eps = 1e-9

func simulate(c *circuit.Circuit) *statevec.State {
	s := statevec.New(c.Qubits, 2)
	s.ApplyCircuit(c)
	return s
}

// norm returns the 2-norm of the state.
func norm(s *statevec.State) float64 {
	var sum float64
	for _, a := range s.Amplitudes() {
		sum += real(a)*real(a) + imag(a)*imag(a)
	}
	return math.Sqrt(sum)
}

// prob returns the probability of basis state idx.
func prob(s *statevec.State, idx uint64) float64 {
	a := s.Amplitudes()[idx]
	return real(a)*real(a) + imag(a)*imag(a)
}

// validate re-checks every gate of c against the register size.
func validate(c *circuit.Circuit) error {
	for i := range c.Gates {
		if err := c.Gates[i].Validate(c.Qubits); err != nil {
			return fmt.Errorf("gate %d: %w", i, err)
		}
	}
	return nil
}

func TestGHZAmplitudes(t *testing.T) {
	for _, n := range []int{1, 2, 5, 10} {
		s := simulate(GHZ(n))
		want := complex(1/math.Sqrt2, 0)
		if n == 1 {
			if cmplx.Abs(s.Amplitudes()[0]-want) > eps || cmplx.Abs(s.Amplitudes()[1]-want) > eps {
				t.Fatalf("n=1 GHZ wrong")
			}
			continue
		}
		amps := s.Amplitudes()
		if cmplx.Abs(amps[0]-want) > eps || cmplx.Abs(amps[len(amps)-1]-want) > eps {
			t.Fatalf("n=%d GHZ endpoints wrong", n)
		}
		for i := 1; i < len(amps)-1; i++ {
			if cmplx.Abs(amps[i]) > eps {
				t.Fatalf("n=%d GHZ has amplitude at %d", n, i)
			}
		}
	}
}

// adderOracle extracts a, b from the X-initialization of the circuit and
// checks the final state is the basis state with b <- a+b.
func TestAdderComputesSum(t *testing.T) {
	for _, n := range []int{4, 8, 12} {
		for seed := int64(1); seed <= 5; seed++ {
			c := Adder(n, seed)
			k := (n - 2) / 2
			// Recover inputs from the leading X gates.
			var a, b uint64
			for i := range c.Gates {
				g := &c.Gates[i]
				if g.Name != "x" {
					break
				}
				q := g.Targets[0]
				if q >= 1 && (q-1)%2 == 0 {
					a |= 1 << uint((q-1)/2)
				} else {
					b |= 1 << uint((q-2)/2)
				}
			}
			s := simulate(c)
			sum := a + b
			// Expected basis state: cin=0, a unchanged, b=sum low bits,
			// cout = carry.
			var want uint64
			for i := 0; i < k; i++ {
				if a>>uint(i)&1 == 1 {
					want |= 1 << uint(1+2*i)
				}
				if sum>>uint(i)&1 == 1 {
					want |= 1 << uint(2+2*i)
				}
			}
			if sum>>uint(k)&1 == 1 {
				want |= 1 << uint(n-1)
			}
			if p := prob(s, want); math.Abs(p-1) > 1e-8 {
				t.Fatalf("n=%d seed=%d: a=%d b=%d sum=%d, P(want)=%v", n, seed, a, b, sum, p)
			}
		}
	}
}

func TestDNNShape(t *testing.T) {
	c := DNN(8, 5, 1)
	if c.GateCount() != 5*3*8 {
		t.Fatalf("DNN gate count %d, want %d", c.GateCount(), 5*3*8)
	}
	if err := validate(c); err != nil {
		t.Fatal(err)
	}
	// Deterministic for a seed.
	c2 := DNN(8, 5, 1)
	if c2.GateCount() != c.GateCount() || c2.Gates[3].Params[0] != c.Gates[3].Params[0] {
		t.Fatal("DNN not deterministic")
	}
	c3 := DNN(8, 5, 2)
	if c3.Gates[0].Params[0] == c.Gates[0].Params[0] {
		t.Fatal("DNN ignores seed")
	}
}

func TestDNNDepthForMatchesPaperDensity(t *testing.T) {
	n := 16
	c := DNN(n, DNNDepthFor(n), 1)
	// dnn_n16 has 2032 gates in the paper; ours should land nearby.
	if c.GateCount() < 1500 || c.GateCount() > 2500 {
		t.Fatalf("DNN(16) gate count %d far from paper's 2032", c.GateCount())
	}
}

func TestVQEShape(t *testing.T) {
	c := VQE(16, VQELayers, 1)
	// vqe_n16 has 95 gates in the paper.
	if c.GateCount() < 60 || c.GateCount() > 130 {
		t.Fatalf("VQE(16) gate count %d far from paper's 95", c.GateCount())
	}
	if err := validate(c); err != nil {
		t.Fatal(err)
	}
}

func TestSwapTestAncillaProbabilityMatchesOverlap(t *testing.T) {
	// P(ancilla=0) = (1+|<psi|phi>|^2)/2 must lie in [1/2, 1].
	c := SwapTest(9, 3)
	s := simulate(c)
	p0 := 0.0
	for i, a := range s.Amplitudes() {
		if i&1 == 0 {
			p0 += real(a)*real(a) + imag(a)*imag(a)
		}
	}
	if p0 < 0.5-eps || p0 > 1+eps {
		t.Fatalf("swap test P(anc=0) = %v outside [0.5, 1]", p0)
	}
}

func TestKNNValidAndIrregular(t *testing.T) {
	c := KNN(11, 7)
	if err := validate(c); err != nil {
		t.Fatal(err)
	}
	if c.GateCount() < 11 {
		t.Fatal("KNN suspiciously small")
	}
}

func TestSupremacyStructure(t *testing.T) {
	c := Supremacy(3, 4, 8, 1)
	if c.Qubits != 12 {
		t.Fatalf("qubits = %d", c.Qubits)
	}
	if err := validate(c); err != nil {
		t.Fatal(err)
	}
	// Every cycle has exactly n single-qubit gates.
	singles := 0
	fsims := 0
	for i := range c.Gates {
		switch c.Gates[i].Name {
		case "sx", "sy", "sw":
			singles++
		case "fsim":
			fsims++
		}
	}
	if singles != 12*8 {
		t.Fatalf("single-qubit gates %d, want %d", singles, 12*8)
	}
	if fsims == 0 {
		t.Fatal("no entangling gates")
	}
	// No qubit gets the same single-qubit gate twice in a row.
	lastGate := make(map[int]string)
	for i := range c.Gates {
		g := &c.Gates[i]
		switch g.Name {
		case "sx", "sy", "sw":
			if lastGate[g.Targets[0]] == g.Name {
				t.Fatalf("qubit %d repeats %s", g.Targets[0], g.Name)
			}
			lastGate[g.Targets[0]] = g.Name
		}
	}
}

func TestQFTOnBasisState(t *testing.T) {
	// QFT|0> = uniform superposition.
	n := 5
	s := simulate(QFT(n))
	want := 1 / math.Sqrt(math.Pow(2, float64(n)))
	for i, a := range s.Amplitudes() {
		if cmplx.Abs(a-complex(want, 0)) > eps {
			t.Fatalf("QFT|0> amplitude %d = %v, want %v", i, a, want)
		}
	}
}

func TestBernsteinVaziraniRecoversSecret(t *testing.T) {
	for _, secret := range []uint64{0, 1, 5, 10, 15} {
		c := BernsteinVazirani(4, secret)
		s := simulate(c)
		// Data qubits must equal secret with certainty (ancilla in |->).
		var p float64
		for i, a := range s.Amplitudes() {
			if uint64(i)&15 == secret {
				p += real(a)*real(a) + imag(a)*imag(a)
			}
		}
		if math.Abs(p-1) > 1e-8 {
			t.Fatalf("secret %d: P = %v", secret, p)
		}
	}
}

func TestGroverAmplifiesMarkedState(t *testing.T) {
	n := 5
	marked := uint64(19)
	c := Grover(n, marked, 0)
	s := simulate(c)
	p := prob(s, marked)
	if p < 0.8 {
		t.Fatalf("Grover P(marked) = %v, want > 0.8", p)
	}
}

func TestBuildRegistry(t *testing.T) {
	cases := map[string]int{
		"ghz": 8, "adder": 8, "dnn": 6, "vqe": 6, "knn": 7,
		"swaptest": 7, "supremacy": 6, "qft": 6, "grover": 5, "bv": 6,
	}
	for name, n := range cases {
		c, err := Build(name, n, 1)
		if err != nil {
			t.Fatalf("Build(%s): %v", name, err)
		}
		if c.Qubits != n {
			t.Fatalf("Build(%s) qubits = %d, want %d", name, c.Qubits, n)
		}
		if err := validate(c); err != nil {
			t.Fatalf("Build(%s) invalid: %v", name, err)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	cases := []struct {
		name string
		n    int
	}{
		{"nope", 5},
		{"adder", 5}, // odd
		{"knn", 6},   // even
		{"ghz", 0},   // out of range
		{"adder", 2}, // too small
		{"swaptest", 2},
	}
	for _, tc := range cases {
		if _, err := Build(tc.name, tc.n, 1); err == nil {
			t.Errorf("Build(%s, %d) accepted", tc.name, tc.n)
		}
	}
}

func TestNames(t *testing.T) {
	if len(Names()) != 14 {
		t.Fatalf("Names() = %v", Names())
	}
}
