package qasm

// Rendering helpers that only the suites need.

import (
	"strings"

	"flatdd/internal/circuit"
)

// ToString renders a circuit to OpenQASM 2.0 source.
func ToString(c *circuit.Circuit) (string, error) {
	var b strings.Builder
	if err := Write(&b, c); err != nil {
		return "", err
	}
	return b.String(), nil
}
