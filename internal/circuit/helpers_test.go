package circuit

// Test helpers over circuits and gates that only the suites need.

import (
	"fmt"
	"math/cmplx"
)

// TwoQubitGateCount returns the number of gates touching 2+ qubits.
func (c *Circuit) TwoQubitGateCount() int {
	n := 0
	for i := range c.Gates {
		if len(c.Gates[i].Qubits()) >= 2 {
			n++
		}
	}
	return n
}

// IsUnitary reports whether U†U = I within tol: the oracle the gate
// constructors are checked against.
func (g *Gate) IsUnitary(tol float64) bool {
	d := g.Dim()
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			var s complex128
			for k := 0; k < d; k++ {
				s += cmplx.Conj(g.U[k][i]) * g.U[k][j]
			}
			want := complex128(0)
			if i == j {
				want = 1
			}
			if cmplx.Abs(s-want) > tol {
				return false
			}
		}
	}
	return true
}

// Validate re-checks every gate against the register size.
func (c *Circuit) Validate() error {
	for i := range c.Gates {
		if err := c.Gates[i].Validate(c.Qubits); err != nil {
			return fmt.Errorf("gate %d: %w", i, err)
		}
	}
	return nil
}
