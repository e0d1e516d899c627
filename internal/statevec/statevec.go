// Package statevec implements the multi-threaded array-based state-vector
// simulator that stands in for Quantum++ [19] in the paper's evaluation.
//
// Gate matrices are applied to a flat []complex128 amplitude array by
// manipulating amplitudes in place (Equations 2 and 3 of the paper): a
// single-qubit gate touches pairs of amplitudes whose indices differ in the
// target bit, a controlled gate additionally filters on the control bits,
// and the generic k-qubit path gathers 2^k amplitudes per group with the
// O(n) per-group index arithmetic characteristic of general array
// simulators — the indexing cost DMAV's constant-time recursive descent is
// compared against in Section 3.2.1.
package statevec

import (
	"fmt"
	"sync"

	"flatdd/internal/circuit"
)

// State is a full state vector over n qubits. Amplitude index bit k is the
// value of qubit k.
//
// Two apply paths exist. The default path is faithful to Quantum++'s
// generic kernel, which rebuilds each amplitude group's multi-index with a
// loop over all n qubit positions — the O(n)-per-state indexing cost that
// Section 3.2.1 of the paper contrasts DMAV's constant-time recursive
// indexing against. SetFastPath(true) switches single-qubit gates to an
// O(1) bit-trick split, useful when the state is only a test oracle.
type State struct {
	n    int
	amps []complex128

	threads  int
	fastPath bool
}

// New returns the |0...0> state on n qubits, simulated with the given
// number of worker goroutines (values < 1 select 1).
func New(n, threads int) *State {
	if n < 0 || n > 34 {
		panic(fmt.Sprintf("statevec: unsupported qubit count %d", n))
	}
	if threads < 1 {
		threads = 1
	}
	amps := make([]complex128, 1<<uint(n))
	amps[0] = 1
	return &State{n: n, amps: amps, threads: threads}
}

// Amplitudes returns the backing array (not a copy).
func (s *State) Amplitudes() []complex128 { return s.amps }

// MemoryBytes returns the size of the amplitude array in bytes.
func (s *State) MemoryBytes() uint64 { return uint64(len(s.amps)) * 16 }

// parallelFor splits [0, total) into s.threads contiguous chunks and runs
// fn on each concurrently.
func (s *State) parallelFor(total uint64, fn func(start, end uint64)) {
	t := s.threads
	if t > int(total) {
		t = int(total)
	}
	if t <= 1 {
		fn(0, total)
		return
	}
	var wg sync.WaitGroup
	chunk := total / uint64(t)
	for w := 0; w < t; w++ {
		start := uint64(w) * chunk
		end := start + chunk
		if w == t-1 {
			end = total
		}
		wg.Add(1)
		go func(start, end uint64) {
			defer wg.Done()
			fn(start, end)
		}(start, end)
	}
	wg.Wait()
}

// SetFastPath toggles the O(1)-indexing fast path for single-qubit gates
// (default off: the faithful Quantum++-style O(n) indexing is used).
func (s *State) SetFastPath(on bool) { s.fastPath = on }

// Apply applies one gate to the state in place.
func (s *State) Apply(g *circuit.Gate) {
	if err := g.Validate(s.n); err != nil {
		panic(err)
	}
	if len(g.Targets) == 1 {
		var u [2][2]complex128
		u[0][0], u[0][1] = g.U[0][0], g.U[0][1]
		u[1][0], u[1][1] = g.U[1][0], g.U[1][1]
		if s.fastPath {
			s.applySingle(u, g.Targets[0], g.Controls)
		} else {
			s.applySingleGeneric(u, g.Targets[0], g.Controls)
		}
		return
	}
	s.applyGeneric(g.U, g.Targets)
}

// applySingleGeneric is the Quantum++-faithful path: every amplitude
// group's full index is rebuilt bit by bit over all n qubit positions, the
// O(n) per-state indexing the paper measures DMAV against.
func (s *State) applySingleGeneric(u [2][2]complex128, target int, controls []circuit.Control) {
	var posCtl, negCtl uint64
	for _, c := range controls {
		if c.Negative {
			negCtl |= 1 << uint(c.Qubit)
		} else {
			posCtl |= 1 << uint(c.Qubit)
		}
	}
	tMask := uint64(1) << uint(target)
	half := uint64(len(s.amps)) / 2
	amps := s.amps
	nq := s.n
	s.parallelFor(half, func(start, end uint64) {
		for k := start; k < end; k++ {
			// Rebuild the full index from the compressed counter with a
			// per-qubit loop, as the generic multi-index machinery of
			// array simulators does.
			var lo uint64
			rem := k
			for q := 0; q < nq; q++ {
				if q == target {
					continue
				}
				if rem&1 == 1 {
					lo |= 1 << uint(q)
				}
				rem >>= 1
			}
			if lo&posCtl != posCtl || lo&negCtl != 0 {
				continue
			}
			hi := lo | tMask
			a0, a1 := amps[lo], amps[hi]
			amps[lo] = u[0][0]*a0 + u[0][1]*a1
			amps[hi] = u[1][0]*a0 + u[1][1]*a1
		}
	})
}

// ApplyCircuit applies every gate of the circuit in order.
func (s *State) ApplyCircuit(c *circuit.Circuit) {
	if c.Qubits != s.n {
		panic(fmt.Sprintf("statevec: circuit on %d qubits applied to %d-qubit state", c.Qubits, s.n))
	}
	for i := range c.Gates {
		s.Apply(&c.Gates[i])
	}
}

// applySingle applies a (possibly controlled) single-qubit gate following
// Equations 2 and 3: each compressed index addresses one
// (a_{..0_k..}, a_{..1_k..}) pair.
func (s *State) applySingle(u [2][2]complex128, target int, controls []circuit.Control) {
	tMask := uint64(1) << uint(target)
	var posCtl, negCtl uint64
	for _, c := range controls {
		if c.Negative {
			negCtl |= 1 << uint(c.Qubit)
		} else {
			posCtl |= 1 << uint(c.Qubit)
		}
	}
	half := uint64(len(s.amps)) / 2
	amps := s.amps
	s.parallelFor(half, func(start, end uint64) {
		for k := start; k < end; k++ {
			// Insert a 0 bit at the target position: this is the O(n)-free
			// split Quantum++-style simulators perform per amplitude pair.
			lo := (k &^ (tMask - 1) << 1) | (k & (tMask - 1))
			if lo&posCtl != posCtl || lo&negCtl != 0 {
				continue
			}
			hi := lo | tMask
			a0, a1 := amps[lo], amps[hi]
			amps[lo] = u[0][0]*a0 + u[0][1]*a1
			amps[hi] = u[1][0]*a0 + u[1][1]*a1
		}
	})
}

// applyGeneric applies an arbitrary k-qubit unitary by gathering the 2^k
// amplitudes of each group, multiplying by U, and scattering back.
func (s *State) applyGeneric(u [][]complex128, targets []int) {
	k := len(targets)
	dim := 1 << uint(k)
	masks := make([]uint64, k)
	for i, q := range targets {
		masks[i] = 1 << uint(q)
	}
	var targetMask uint64
	for _, m := range masks {
		targetMask |= m
	}
	groups := uint64(len(s.amps)) >> uint(k)
	amps := s.amps
	nq := s.n
	s.parallelFor(groups, func(start, end uint64) {
		in := make([]complex128, dim)
		idx := make([]uint64, dim)
		for g := start; g < end; g++ {
			// Expand the compressed index by rebuilding the multi-index
			// bit by bit over all n qubit positions — the O(n) index
			// arithmetic per group characteristic of generic array
			// simulators (Section 3.2.1).
			var base uint64
			rem := g
			for q := 0; q < nq; q++ {
				if targetMask>>uint(q)&1 == 1 {
					continue
				}
				if rem&1 == 1 {
					base |= 1 << uint(q)
				}
				rem >>= 1
			}
			for d := 0; d < dim; d++ {
				off := base
				for b := 0; b < k; b++ {
					if d>>uint(b)&1 == 1 {
						off |= masks[b]
					}
				}
				idx[d] = off
				in[d] = amps[off]
			}
			for r := 0; r < dim; r++ {
				var acc complex128
				row := u[r]
				for c := 0; c < dim; c++ {
					acc += row[c] * in[c]
				}
				amps[idx[r]] = acc
			}
		}
	})
}
