package core

import (
	"math/cmplx"
	"math/rand"
	"testing"

	"flatdd/internal/circuit"
)

// skewedCircuit builds a state with a heavy head and a light tail: mostly
// small rotations so most mass stays near |0..0>.
func skewedCircuit(n, gates int, seed int64) *circuit.Circuit {
	rng := rand.New(rand.NewSource(seed))
	c := circuit.New("skewed", n)
	for i := 0; i < gates; i++ {
		switch rng.Intn(3) {
		case 0:
			c.Append(circuit.RY(0.05*rng.NormFloat64(), rng.Intn(n)))
		case 1:
			c.Append(circuit.RZ(rng.NormFloat64(), rng.Intn(n)))
		default:
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				c.Append(circuit.CX(a, b))
			}
		}
	}
	return c
}

// TestApproximationBoundsFidelity runs a circuit whose state DD grows past
// approxThreshold nodes, so pruning must fire, and checks the reported
// fidelity bound against the exact state. A one-byte memory budget vetoes
// the conversion, so both runs stay in the DD phase.
func TestApproximationBoundsFidelity(t *testing.T) {
	n := 10
	c := skewedCircuit(n, 120, 3)
	exact := New(n, Options{MemoryBudget: 1})
	exact.Run(c)
	ex := exact.Amplitudes()

	approx := New(n, Options{MemoryBudget: 1, ApproxBudget: 0.001})
	st := approx.Run(c)
	if st.Approximations == 0 {
		t.Fatalf("no pruning pass ran: the state DD never exceeded %d nodes", approxThreshold)
	}
	if st.Fidelity > 1 || st.Fidelity <= 0 {
		t.Fatalf("fidelity out of range: %v", st.Fidelity)
	}
	ap := approx.Amplitudes()
	var ip complex128
	for i := range ex {
		ip += cmplx.Conj(ex[i]) * ap[i]
	}
	actual := real(ip * cmplx.Conj(ip))
	if actual < st.Fidelity-1e-9 {
		t.Fatalf("actual fidelity %v below reported bound %v", actual, st.Fidelity)
	}
}

func TestApproximationOffByDefault(t *testing.T) {
	c := skewedCircuit(8, 60, 5)
	s := New(8, Options{})
	st := s.Run(c)
	if st.Fidelity != 1 || st.Approximations != 0 {
		t.Fatalf("approximation ran without being enabled: %+v", st)
	}
}
