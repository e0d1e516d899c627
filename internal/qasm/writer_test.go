package qasm

import (
	"math"
	"math/cmplx"
	"math/rand"
	"strings"
	"testing"

	"flatdd/internal/circuit"
	"flatdd/internal/statevec"
)

// statesEqualUpToPhase compares two state vectors modulo a global phase
// (lowerings such as sy -> ry(pi/2) legitimately drop global phases).
func statesEqualUpToPhase(a, b []complex128, tol float64) bool {
	var phase complex128
	for i := range a {
		if cmplx.Abs(b[i]) > tol {
			phase = a[i] / b[i]
			break
		}
	}
	if phase == 0 || math.Abs(cmplx.Abs(phase)-1) > tol {
		return false
	}
	for i := range a {
		if cmplx.Abs(a[i]-phase*b[i]) > tol {
			return false
		}
	}
	return true
}

// roundTrip writes the circuit to QASM, parses it back, and checks that
// both versions act identically on a random input state.
func roundTrip(t *testing.T, c *circuit.Circuit) {
	t.Helper()
	src, err := ToString(c)
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	parsed, err := Parse(src)
	if err != nil {
		t.Fatalf("parse of emitted QASM failed: %v\n%s", err, src)
	}
	if parsed.Qubits != c.Qubits {
		t.Fatalf("qubits %d -> %d", c.Qubits, parsed.Qubits)
	}
	// Random (but fixed) input state to catch phase/row mixups that |0..0>
	// would hide.
	rng := rand.New(rand.NewSource(123))
	amps := make([]complex128, 1<<uint(c.Qubits))
	var norm float64
	for i := range amps {
		amps[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		norm += real(amps[i])*real(amps[i]) + imag(amps[i])*imag(amps[i])
	}
	norm = math.Sqrt(norm)
	for i := range amps {
		amps[i] /= complex(norm, 0)
	}
	s1 := statevec.New(c.Qubits, 1)
	copy(s1.Amplitudes(), amps)
	s1.ApplyCircuit(c)
	s2 := statevec.New(c.Qubits, 1)
	copy(s2.Amplitudes(), amps)
	s2.ApplyCircuit(parsed)
	if !statesEqualUpToPhase(s1.Amplitudes(), s2.Amplitudes(), 1e-8) {
		t.Fatalf("round trip changed semantics for %s:\n%s", c.Name, src)
	}
}

func one(name string, n int, g ...circuit.Gate) *circuit.Circuit {
	c := circuit.New(name, n)
	c.Append(g...)
	return c
}

func TestWriterRoundTripSingleGates(t *testing.T) {
	cases := []*circuit.Circuit{
		one("h", 1, circuit.H(0)),
		one("paulis", 2, circuit.X(0), circuit.Y(1), circuit.Z(0)),
		one("phases", 1, circuit.S(0), circuit.Sdg(0), circuit.T(0), circuit.Tdg(0)),
		one("roots", 1, circuit.SX(0), circuit.SXdg(0)),
		one("sy", 1, circuit.SY(0)),
		one("sw", 1, circuit.SW(0)),
		one("rot", 1, circuit.RX(0.7, 0), circuit.RY(-1.1, 0), circuit.RZ(2.2, 0)),
		one("u", 1, circuit.P(0.3, 0), circuit.U2(0.4, 0.5, 0), circuit.U3(0.6, 0.7, 0.8, 0)),
		one("id", 1, circuit.I(0)),
	}
	for _, c := range cases {
		roundTrip(t, c)
	}
}

func TestWriterRoundTripControlledGates(t *testing.T) {
	cases := []*circuit.Circuit{
		one("cx", 2, circuit.CX(0, 1)),
		one("cx-rev", 2, circuit.CX(1, 0)),
		one("cy", 2, circuit.CY(0, 1)),
		one("cz", 2, circuit.CZ(0, 1)),
		one("ch", 2, circuit.CH(0, 1)),
		one("cp", 2, circuit.CP(0.9, 0, 1)),
		one("crx", 2, circuit.CRX(0.4, 0, 1)),
		one("cry", 2, circuit.CRY(0.5, 0, 1)),
		one("crz", 2, circuit.CRZ(0.6, 0, 1)),
		one("cu3", 2, circuit.CU3(0.1, 0.2, 0.3, 0, 1)),
		one("ccx", 3, circuit.CCX(0, 1, 2)),
		one("ccz", 3, circuit.CCZ(0, 1, 2)),
	}
	for _, c := range cases {
		roundTrip(t, c)
	}
}

func TestWriterRoundTripMultiControl(t *testing.T) {
	for _, k := range []int{3, 4, 5} {
		ctrls := make([]int, k)
		for i := range ctrls {
			ctrls[i] = i
		}
		c := one("mcx", k+1, circuit.MCX(ctrls, k))
		roundTrip(t, c)
	}
	// Multi-controlled Z (Grover's oracle form).
	c := circuit.New("mcz", 4)
	c.Append(circuit.Gate{Name: "mcz", Targets: []int{3},
		Controls: []circuit.Control{{Qubit: 0}, {Qubit: 1}, {Qubit: 2}},
		U:        [][]complex128{{1, 0}, {0, -1}}})
	roundTrip(t, c)
}

func TestWriterRoundTripNegativeControls(t *testing.T) {
	c := circuit.New("negctl", 2)
	c.Append(circuit.Gate{Name: "x", Targets: []int{1},
		Controls: []circuit.Control{{Qubit: 0, Negative: true}},
		U:        circuit.X(1).U})
	roundTrip(t, c)
}

func TestWriterRoundTripTwoQubitSpecials(t *testing.T) {
	cases := []*circuit.Circuit{
		one("swap", 2, circuit.SWAP(0, 1)),
		one("iswap", 2, circuit.ISwap(0, 1)),
		one("rzz", 2, circuit.RZZ(0.8, 0, 1)),
		one("fsim", 2, circuit.FSim(math.Pi/2, math.Pi/6, 0, 1)),
		one("fsim2", 2, circuit.FSim(0.3, -0.7, 1, 0)),
	}
	for _, c := range cases {
		roundTrip(t, c)
	}
}

func TestWriterRoundTripWholeCircuits(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	c := circuit.New("mixed", 5)
	for i := 0; i < 40; i++ {
		switch rng.Intn(6) {
		case 0:
			c.Append(circuit.H(rng.Intn(5)))
		case 1:
			c.Append(circuit.U3(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.Intn(5)))
		case 2:
			a, b := rng.Intn(5), rng.Intn(5)
			if a != b {
				c.Append(circuit.CX(a, b))
			}
		case 3:
			a, b := rng.Intn(5), rng.Intn(5)
			if a != b {
				c.Append(circuit.FSim(rng.NormFloat64(), rng.NormFloat64(), a, b))
			}
		case 4:
			c.Append(circuit.SW(rng.Intn(5)))
		default:
			a, b := rng.Intn(5), rng.Intn(5)
			if a != b {
				c.Append(circuit.CP(rng.NormFloat64(), a, b))
			}
		}
	}
	roundTrip(t, c)
}

func TestWriterHeaderAndShape(t *testing.T) {
	c := one("hdr", 3, circuit.H(0), circuit.CX(0, 2))
	src, err := ToString(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"OPENQASM 2.0;", "include \"qelib1.inc\";", "qreg q[3];", "h q[0];", "cx q[0],q[2];"} {
		if !strings.Contains(src, want) {
			t.Errorf("emitted QASM missing %q:\n%s", want, src)
		}
	}
}

func TestWriterNumFormatting(t *testing.T) {
	if num(math.Pi) != "pi" || num(-math.Pi/2) != "-pi/2" || num(math.Pi/6) != "pi/6" {
		t.Fatal("pi multiples not pretty-printed")
	}
	got := num(0.12345)
	if !strings.HasPrefix(got, "0.12345") {
		t.Fatalf("plain float formatting: %s", got)
	}
}

func TestGlobalPhaseFreeHelper(t *testing.T) {
	a := [][]complex128{{1i, 0}, {0, 1i}}
	b := [][]complex128{{1, 0}, {0, 1}}
	if !globalPhaseFree(a, b, 1e-12) {
		t.Fatal("i*I vs I should be phase-equal")
	}
	cMat := [][]complex128{{1, 0}, {0, -1}}
	if globalPhaseFree(cMat, b, 1e-12) {
		t.Fatal("Z vs I should differ")
	}
}

// globalPhaseFree reports whether two unitaries differ only by a global
// phase.
func globalPhaseFree(a, b [][]complex128, tol float64) bool {
	var phase complex128
	for r := range a {
		for c := range a[r] {
			if cmplx.Abs(b[r][c]) > tol {
				phase = a[r][c] / b[r][c]
				goto found
			}
		}
	}
	return true
found:
	if math.Abs(cmplx.Abs(phase)-1) > tol {
		return false
	}
	for r := range a {
		for c := range a[r] {
			if cmplx.Abs(a[r][c]-phase*b[r][c]) > tol {
				return false
			}
		}
	}
	return true
}
