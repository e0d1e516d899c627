package circuit

import (
	"fmt"
	"strings"
)

// Circuit is an ordered list of gates over a register of qubits.
type Circuit struct {
	Name   string
	Qubits int
	Gates  []Gate
}

// New returns an empty circuit over n qubits.
func New(name string, n int) *Circuit {
	if n < 0 {
		panic(fmt.Sprintf("circuit: negative qubit count %d", n))
	}
	return &Circuit{Name: name, Qubits: n}
}

// Append adds gates to the circuit, panicking on structurally invalid
// gates; generators build circuits programmatically and an invalid gate is
// a programming error there. Front ends that consume untrusted input (the
// QASM parser) validate before appending.
func (c *Circuit) Append(gates ...Gate) *Circuit {
	for _, g := range gates {
		if err := g.Validate(c.Qubits); err != nil {
			panic(err)
		}
		c.Gates = append(c.Gates, g)
	}
	return c
}

// GateCount returns the number of gates.
func (c *Circuit) GateCount() int { return len(c.Gates) }

// Depth returns the circuit depth: the length of the longest chain of
// gates that share qubits (each gate occupies one layer on each qubit it
// touches).
func (c *Circuit) Depth() int {
	busy := make([]int, c.Qubits)
	depth := 0
	for i := range c.Gates {
		layer := 0
		for _, q := range c.Gates[i].Qubits() {
			if busy[q] > layer {
				layer = busy[q]
			}
		}
		layer++
		for _, q := range c.Gates[i].Qubits() {
			busy[q] = layer
		}
		if layer > depth {
			depth = layer
		}
	}
	return depth
}

// String renders a short human-readable summary plus the gate list.
func (c *Circuit) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "circuit %q: %d qubits, %d gates, depth %d\n", c.Name, c.Qubits, c.GateCount(), c.Depth())
	for i := range c.Gates {
		g := &c.Gates[i]
		fmt.Fprintf(&b, "  %4d: %-5s targets=%v", i, g.Name, g.Targets)
		if len(g.Controls) > 0 {
			fmt.Fprintf(&b, " controls=%v", g.Controls)
		}
		if len(g.Params) > 0 {
			fmt.Fprintf(&b, " params=%v", g.Params)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
