package qasm

// Rendering helpers that only the suites need.

import (
	"math"
	"strings"

	"flatdd/internal/circuit"
	"flatdd/internal/statevec"
)

// ToString renders a circuit to OpenQASM 2.0 source.
func ToString(c *circuit.Circuit) (string, error) {
	var b strings.Builder
	if err := Write(&b, c); err != nil {
		return "", err
	}
	return b.String(), nil
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
