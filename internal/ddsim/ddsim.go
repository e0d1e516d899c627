// Package ddsim implements the sequential, pure decision-diagram quantum
// circuit simulator that stands in for DDSIM [99] in the paper's
// evaluation, and that FlatDD uses as its front phase before converting to
// DMAV.
//
// Both the gate matrix and the state vector live as DDs; applying a gate is
// one DD matrix-vector multiplication memoized through the manager's
// compute tables. On regular circuits (Adder, GHZ) the state DD stays tiny
// and simulation is effectively instant; on irregular circuits (DNN, VQE,
// quantum supremacy) the state DD grows toward 2^n nodes and the per-gate
// cost explodes — the behaviour Figures 1 and 11 of the paper rely on.
package ddsim

import (
	"fmt"

	"flatdd/internal/circuit"
	"flatdd/internal/dd"
)

// BuildGateDD converts a circuit gate into its n-qubit matrix DD. It is
// shared by every DD-side engine (ddsim, dmav, fusion, core).
func BuildGateDD(m *dd.Manager, n int, g *circuit.Gate) dd.MEdge {
	if len(g.Targets) == 1 {
		u := dd.Matrix2{
			{g.U[0][0], g.U[0][1]},
			{g.U[1][0], g.U[1][1]},
		}
		if len(g.Controls) == 0 {
			return m.SingleGate(n, u, g.Targets[0])
		}
		ctrls := make([]dd.Control, len(g.Controls))
		for i, c := range g.Controls {
			ctrls[i] = dd.Control{Qubit: c.Qubit, Negative: c.Negative}
		}
		return m.ControlledGate(n, u, g.Targets[0], ctrls)
	}
	return m.MultiQubitGate(n, g.U, g.Targets)
}

// Simulator is a DD-based state-vector simulator that applies gates
// sequentially on its manager's owning goroutine.
type Simulator struct {
	m     *dd.Manager
	n     int
	state dd.VEdge

	gatesApplied int
	peakSize     int
}

// New returns a simulator for n qubits initialized to |0...0>.
func New(n int) *Simulator {
	m := dd.New(n)
	return &Simulator{m: m, n: n, state: m.ZeroState(n)}
}

// NewWithManager returns a simulator sharing an existing manager; the
// FlatDD engine uses this so the DDSIM phase and the DMAV gate matrices
// live in one DD universe.
func NewWithManager(m *dd.Manager, n int) *Simulator {
	return &Simulator{m: m, n: n, state: m.ZeroState(n)}
}

// Manager returns the simulator's DD manager.
func (s *Simulator) Manager() *dd.Manager { return s.m }

// State returns the current state DD.
func (s *Simulator) State() dd.VEdge { return s.state }

// SetState replaces the current state DD (used by tests).
func (s *Simulator) SetState(e dd.VEdge) { s.state = e }

// GatesApplied returns the number of gates applied so far.
func (s *Simulator) GatesApplied() int { return s.gatesApplied }

// PeakStateSize returns the largest state-DD node count seen.
func (s *Simulator) PeakStateSize() int { return s.peakSize }

// ApplyGate applies one gate to the state and returns the resulting state
// DD size (the s_i the EWMA controller of Section 3.1.1 monitors).
func (s *Simulator) ApplyGate(g *circuit.Gate) int {
	if err := g.Validate(s.n); err != nil {
		panic(err)
	}
	gate := BuildGateDD(s.m, s.n, g)
	s.state = s.m.MulMV(gate, s.state)
	s.gatesApplied++
	s.m.CollectIfNeeded(dd.Roots{V: []dd.VEdge{s.state}})
	size := s.m.VSize(s.state)
	if size > s.peakSize {
		s.peakSize = size
	}
	return size
}

// Run applies an entire circuit.
func (s *Simulator) Run(c *circuit.Circuit) {
	if c.Qubits != s.n {
		panic(fmt.Sprintf("ddsim: circuit on %d qubits, simulator has %d", c.Qubits, s.n))
	}
	for i := range c.Gates {
		s.ApplyGate(&c.Gates[i])
	}
}

// Amplitude returns one amplitude of the current state.
func (s *Simulator) Amplitude(idx uint64) complex128 {
	return s.m.Amplitude(s.state, s.n, idx)
}

// ToArray expands the current state into a flat amplitude array using the
// sequential DDSIM-style conversion.
func (s *Simulator) ToArray() []complex128 {
	return s.m.ToArray(s.state, s.n)
}

// StateSize returns the node count of the current state DD.
func (s *Simulator) StateSize() int { return s.m.VSize(s.state) }
