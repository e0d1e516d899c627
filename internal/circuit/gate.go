// Package circuit defines the quantum-circuit intermediate representation
// shared by every engine in this repository: a gate list over a register of
// qubits, a library of standard-gate constructors, and validation. Circuits
// are produced by the generators in internal/workloads or parsed from
// OpenQASM 2.0 by internal/qasm, and consumed by the array engine
// (internal/statevec), the DD engine (internal/ddsim) and the hybrid FlatDD
// engine (internal/core).
package circuit

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Control describes a control qubit. Negative controls trigger on |0>.
type Control struct {
	Qubit    int
	Negative bool
}

// Gate is one operation of a circuit. Two canonical shapes exist:
//
//   - a single-qubit unitary (len(Targets)==1, U is 2x2) with any number of
//     controls, covering X, CX, CCX, CRZ, ...;
//   - an uncontrolled multi-qubit unitary (len(Targets)==k, U is 2^k x 2^k),
//     covering SWAP, iSWAP, fSim, and fused blocks.
//
// Row/column bit l of U corresponds to Targets[l] (Targets[0] is the least
// significant bit).
type Gate struct {
	Name     string
	Targets  []int
	Controls []Control
	Params   []float64
	U        [][]complex128
}

// Qubits returns every qubit the gate touches (targets then controls).
func (g *Gate) Qubits() []int {
	qs := make([]int, 0, len(g.Targets)+len(g.Controls))
	qs = append(qs, g.Targets...)
	for _, c := range g.Controls {
		qs = append(qs, c.Qubit)
	}
	return qs
}

// Dim returns the dimension of the gate unitary, 2^len(Targets).
func (g *Gate) Dim() int { return 1 << uint(len(g.Targets)) }

// Validate checks the structural invariants of the gate for an n-qubit
// register.
func (g *Gate) Validate(n int) error {
	if len(g.Targets) == 0 {
		return fmt.Errorf("circuit: gate %q has no targets", g.Name)
	}
	if len(g.Targets) > 1 && len(g.Controls) > 0 {
		return fmt.Errorf("circuit: gate %q mixes multiple targets with controls", g.Name)
	}
	if len(g.U) != g.Dim() {
		return fmt.Errorf("circuit: gate %q has %d rows, want %d", g.Name, len(g.U), g.Dim())
	}
	for _, row := range g.U {
		if len(row) != g.Dim() {
			return fmt.Errorf("circuit: gate %q is not square", g.Name)
		}
	}
	seen := make(map[int]bool)
	for _, q := range g.Qubits() {
		if q < 0 || q >= n {
			return fmt.Errorf("circuit: gate %q qubit %d out of range [0,%d)", g.Name, q, n)
		}
		if seen[q] {
			return fmt.Errorf("circuit: gate %q uses qubit %d twice", g.Name, q)
		}
		seen[q] = true
	}
	return nil
}

func m2(a, b, c, d complex128) [][]complex128 {
	return [][]complex128{{a, b}, {c, d}}
}

func single(name string, q int, u [][]complex128, params ...float64) Gate {
	return Gate{Name: name, Targets: []int{q}, U: u, Params: params}
}

func controlled(name string, ctrls []int, q int, u [][]complex128, params ...float64) Gate {
	cs := make([]Control, len(ctrls))
	for i, c := range ctrls {
		cs[i] = Control{Qubit: c}
	}
	return Gate{Name: name, Targets: []int{q}, Controls: cs, U: u, Params: params}
}

// invSqrt2 is 1/sqrt(2).
var invSqrt2 = complex(1/math.Sqrt2, 0)

// Standard single-qubit gates.

// I returns the identity gate on qubit q (useful in tests and fusion).
func I(q int) Gate { return single("id", q, m2(1, 0, 0, 1)) }

// H returns the Hadamard gate.
func H(q int) Gate { return single("h", q, m2(invSqrt2, invSqrt2, invSqrt2, -invSqrt2)) }

// X returns the Pauli-X gate.
func X(q int) Gate { return single("x", q, m2(0, 1, 1, 0)) }

// Y returns the Pauli-Y gate.
func Y(q int) Gate { return single("y", q, m2(0, -1i, 1i, 0)) }

// Z returns the Pauli-Z gate.
func Z(q int) Gate { return single("z", q, m2(1, 0, 0, -1)) }

// S returns the phase gate S = sqrt(Z).
func S(q int) Gate { return single("s", q, m2(1, 0, 0, 1i)) }

// Sdg returns S†.
func Sdg(q int) Gate { return single("sdg", q, m2(1, 0, 0, -1i)) }

// T returns the T gate.
func T(q int) Gate { return single("t", q, m2(1, 0, 0, cmplx.Exp(1i*math.Pi/4))) }

// Tdg returns T†.
func Tdg(q int) Gate { return single("tdg", q, m2(1, 0, 0, cmplx.Exp(-1i*math.Pi/4))) }

// SX returns sqrt(X).
func SX(q int) Gate {
	return single("sx", q, m2(0.5+0.5i, 0.5-0.5i, 0.5-0.5i, 0.5+0.5i))
}

// SXdg returns sqrt(X)†.
func SXdg(q int) Gate {
	return single("sxdg", q, m2(0.5-0.5i, 0.5+0.5i, 0.5+0.5i, 0.5-0.5i))
}

// SY returns sqrt(Y), one of the supremacy-circuit single-qubit gates.
func SY(q int) Gate {
	return single("sy", q, m2(0.5+0.5i, -0.5-0.5i, 0.5+0.5i, 0.5+0.5i))
}

// SW returns sqrt(W) with W=(X+Y)/sqrt(2), the third supremacy-circuit
// single-qubit gate from the Google quantum-supremacy experiment.
func SW(q int) Gate {
	return single("sw", q, m2(0.5+0.5i, complex(0, -1)*invSqrt2, invSqrt2, 0.5+0.5i))
}

// RX returns the x-rotation by theta.
func RX(theta float64, q int) Gate {
	c := complex(math.Cos(theta/2), 0)
	s := complex(0, -math.Sin(theta/2))
	return single("rx", q, m2(c, s, s, c), theta)
}

// RY returns the y-rotation by theta.
func RY(theta float64, q int) Gate {
	c := complex(math.Cos(theta/2), 0)
	s := complex(math.Sin(theta/2), 0)
	return single("ry", q, m2(c, -s, s, c), theta)
}

// RZ returns the z-rotation by theta.
func RZ(theta float64, q int) Gate {
	return single("rz", q, m2(cmplx.Exp(complex(0, -theta/2)), 0, 0, cmplx.Exp(complex(0, theta/2))), theta)
}

// P returns the phase gate diag(1, e^{i phi}) (OpenQASM u1).
func P(phi float64, q int) Gate {
	return single("p", q, m2(1, 0, 0, cmplx.Exp(complex(0, phi))), phi)
}

// U2 returns the OpenQASM u2(phi, lambda) gate.
func U2(phi, lambda float64, q int) Gate {
	return single("u2", q, m2(
		invSqrt2, -cmplx.Exp(complex(0, lambda))*invSqrt2,
		cmplx.Exp(complex(0, phi))*invSqrt2, cmplx.Exp(complex(0, phi+lambda))*invSqrt2,
	), phi, lambda)
}

// U3 returns the generic single-qubit gate u3(theta, phi, lambda).
func U3(theta, phi, lambda float64, q int) Gate {
	ct := complex(math.Cos(theta/2), 0)
	st := complex(math.Sin(theta/2), 0)
	return single("u3", q, m2(
		ct, -cmplx.Exp(complex(0, lambda))*st,
		cmplx.Exp(complex(0, phi))*st, cmplx.Exp(complex(0, phi+lambda))*ct,
	), theta, phi, lambda)
}

// Controlled gates.

// CX returns the controlled-X gate with control c and target t.
func CX(c, t int) Gate { return controlled("cx", []int{c}, t, m2(0, 1, 1, 0)) }

// CY returns the controlled-Y gate.
func CY(c, t int) Gate { return controlled("cy", []int{c}, t, m2(0, -1i, 1i, 0)) }

// CZ returns the controlled-Z gate.
func CZ(c, t int) Gate { return controlled("cz", []int{c}, t, m2(1, 0, 0, -1)) }

// CH returns the controlled-Hadamard gate.
func CH(c, t int) Gate {
	return controlled("ch", []int{c}, t, m2(invSqrt2, invSqrt2, invSqrt2, -invSqrt2))
}

// CP returns the controlled phase gate (OpenQASM cu1/cp).
func CP(phi float64, c, t int) Gate {
	return controlled("cp", []int{c}, t, m2(1, 0, 0, cmplx.Exp(complex(0, phi))), phi)
}

// CRX returns the controlled x-rotation.
func CRX(theta float64, c, t int) Gate {
	g := RX(theta, t)
	return controlled("crx", []int{c}, t, g.U, theta)
}

// CRY returns the controlled y-rotation.
func CRY(theta float64, c, t int) Gate {
	g := RY(theta, t)
	return controlled("cry", []int{c}, t, g.U, theta)
}

// CRZ returns the controlled z-rotation.
func CRZ(theta float64, c, t int) Gate {
	g := RZ(theta, t)
	return controlled("crz", []int{c}, t, g.U, theta)
}

// CU3 returns the controlled u3 gate.
func CU3(theta, phi, lambda float64, c, t int) Gate {
	g := U3(theta, phi, lambda, t)
	return controlled("cu3", []int{c}, t, g.U, theta, phi, lambda)
}

// CCX returns the Toffoli gate with controls c1, c2 and target t.
func CCX(c1, c2, t int) Gate { return controlled("ccx", []int{c1, c2}, t, m2(0, 1, 1, 0)) }

// CCZ returns the doubly-controlled Z gate.
func CCZ(c1, c2, t int) Gate { return controlled("ccz", []int{c1, c2}, t, m2(1, 0, 0, -1)) }

// MCX returns an X gate with an arbitrary number of controls.
func MCX(controls []int, t int) Gate { return controlled("mcx", controls, t, m2(0, 1, 1, 0)) }

// Two-qubit (non-controlled-form) gates.

// SWAP returns the swap gate on qubits a and b.
func SWAP(a, b int) Gate {
	return Gate{Name: "swap", Targets: []int{a, b}, U: [][]complex128{
		{1, 0, 0, 0},
		{0, 0, 1, 0},
		{0, 1, 0, 0},
		{0, 0, 0, 1},
	}}
}

// ISwap returns the iSWAP gate on qubits a and b.
func ISwap(a, b int) Gate {
	return Gate{Name: "iswap", Targets: []int{a, b}, U: [][]complex128{
		{1, 0, 0, 0},
		{0, 0, 1i, 0},
		{0, 1i, 0, 0},
		{0, 0, 0, 1},
	}}
}

// FSim returns the fermionic-simulation gate fSim(theta, phi) used by the
// Google quantum-supremacy circuits.
func FSim(theta, phi float64, a, b int) Gate {
	c := complex(math.Cos(theta), 0)
	s := complex(0, -math.Sin(theta))
	return Gate{Name: "fsim", Targets: []int{a, b}, Params: []float64{theta, phi}, U: [][]complex128{
		{1, 0, 0, 0},
		{0, c, s, 0},
		{0, s, c, 0},
		{0, 0, 0, cmplx.Exp(complex(0, -phi))},
	}}
}

// RZZ returns the two-qubit ZZ-rotation exp(-i theta/2 Z⊗Z).
func RZZ(theta float64, a, b int) Gate {
	p := cmplx.Exp(complex(0, -theta/2))
	q := cmplx.Exp(complex(0, theta/2))
	return Gate{Name: "rzz", Targets: []int{a, b}, Params: []float64{theta}, U: [][]complex128{
		{p, 0, 0, 0},
		{0, q, 0, 0},
		{0, 0, q, 0},
		{0, 0, 0, p},
	}}
}

// CSwap returns the Fredkin (controlled-swap) gate decomposed into three
// gates: CX(b,a), CCX(c,a,b), CX(b,a).
func CSwap(c, a, b int) []Gate {
	return []Gate{CX(b, a), CCX(c, a, b), CX(b, a)}
}
