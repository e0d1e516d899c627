package cnum

// Comparison helpers that only the suites need.

import "math"

// Tolerance reports the snapping tolerance of the table.
func (t *Table) Tolerance() float64 { return t.tol }

// ApproxEqual reports whether a and b are within tol of each other in both
// components. It is the comparison the rest of the simulator uses when
// checking numerical results against references.
func ApproxEqual(a, b complex128, tol float64) bool {
	return math.Abs(real(a)-real(b)) <= tol && math.Abs(imag(a)-imag(b)) <= tol
}
