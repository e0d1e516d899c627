package dd

import "fmt"

// Matrix2 is a dense 2x2 complex matrix (single-qubit gate).
type Matrix2 [2][2]complex128

// Identity returns the matrix DD of the 2^n x 2^n identity.
func (m *Manager) Identity(n int) MEdge {
	blocks := make([]Matrix2, n)
	for i := range blocks {
		blocks[i] = Matrix2{{1, 0}, {0, 1}}
	}
	return m.KronChain(blocks)
}

// KronChain builds the matrix DD of blocks[n-1] ⊗ ... ⊗ blocks[1] ⊗
// blocks[0], i.e. blocks[k] acts on qubit k. A Kronecker product of 2x2
// blocks has exactly one node per level: entry M[r][c] is the product over
// levels l of blocks[l][r_l][c_l].
func (m *Manager) KronChain(blocks []Matrix2) MEdge {
	e := m.MOneEdge()
	for level, b := range blocks {
		ch := [4]MEdge{
			m.scaleM(e, b[0][0]),
			m.scaleM(e, b[0][1]),
			m.scaleM(e, b[1][0]),
			m.scaleM(e, b[1][1]),
		}
		e = m.MakeMNode(level, ch)
		if e.IsZero() {
			return e
		}
	}
	return e
}

// SingleGate returns the matrix DD of the single-qubit gate u applied to
// qubit target of an n-qubit register (identity elsewhere).
func (m *Manager) SingleGate(n int, u Matrix2, target int) MEdge {
	if target < 0 || target >= n {
		panic(fmt.Sprintf("dd: gate target %d out of range for %d qubits", target, n))
	}
	blocks := make([]Matrix2, n)
	for i := range blocks {
		if i == target {
			blocks[i] = u
		} else {
			blocks[i] = Matrix2{{1, 0}, {0, 1}}
		}
	}
	return m.KronChain(blocks)
}

// Control describes a control qubit of a controlled gate. Positive controls
// trigger on |1>, negative controls on |0>.
type Control struct {
	Qubit    int
	Negative bool
}

// ControlledGate returns the matrix DD of gate u on qubit target controlled
// by the given control qubits. It uses the projector identity
//
//	C(U) = I  +  P ⊗ (U - I)
//
// where P projects every control onto its triggering value: the chain
// carrying (U-I) at the target and |1><1| (or |0><0|) at each control,
// identity elsewhere, is added to the full identity.
func (m *Manager) ControlledGate(n int, u Matrix2, target int, controls []Control) MEdge {
	if len(controls) == 0 {
		return m.SingleGate(n, u, target)
	}
	if target < 0 || target >= n {
		panic(fmt.Sprintf("dd: gate target %d out of range for %d qubits", target, n))
	}
	blocks := make([]Matrix2, n)
	for i := range blocks {
		blocks[i] = Matrix2{{1, 0}, {0, 1}}
	}
	blocks[target] = Matrix2{
		{u[0][0] - 1, u[0][1]},
		{u[1][0], u[1][1] - 1},
	}
	for _, c := range controls {
		if c.Qubit < 0 || c.Qubit >= n {
			panic(fmt.Sprintf("dd: control qubit %d out of range for %d qubits", c.Qubit, n))
		}
		if c.Qubit == target {
			panic("dd: control coincides with target")
		}
		if c.Negative {
			blocks[c.Qubit] = Matrix2{{1, 0}, {0, 0}}
		} else {
			blocks[c.Qubit] = Matrix2{{0, 0}, {0, 1}}
		}
	}
	return m.MAdd(m.Identity(n), m.KronChain(blocks))
}

// MultiQubitGate returns the matrix DD of an arbitrary k-qubit gate u
// (dimension 2^k x 2^k, row/column bit k-1 = qubits[k-1] most significant)
// applied to the given, not necessarily adjacent, qubits of an n-qubit
// register. It decomposes u into a sum of elementary Kronecker chains
// u[r][c] · ⊗_l E_{r_l c_l}: at most 4^k chain additions, each O(n) nodes.
// Intended for small k (two-qubit entanglers such as iSWAP and fSim).
func (m *Manager) MultiQubitGate(n int, u [][]complex128, qubits []int) MEdge {
	k := len(qubits)
	dim := 1 << uint(k)
	if len(u) != dim {
		panic(fmt.Sprintf("dd: gate dimension %d does not match %d qubits", len(u), k))
	}
	seen := make(map[int]bool, k)
	for _, q := range qubits {
		if q < 0 || q >= n {
			panic(fmt.Sprintf("dd: gate qubit %d out of range for %d qubits", q, n))
		}
		if seen[q] {
			panic(fmt.Sprintf("dd: duplicate gate qubit %d", q))
		}
		seen[q] = true
	}
	sum := m.MZeroEdge()
	blocks := make([]Matrix2, n)
	for r := 0; r < dim; r++ {
		if len(u[r]) != dim {
			panic("dd: gate matrix is not square")
		}
		for c := 0; c < dim; c++ {
			w := u[r][c]
			if w == 0 {
				continue
			}
			for i := range blocks {
				blocks[i] = Matrix2{{1, 0}, {0, 1}}
			}
			for l, q := range qubits {
				rb := r >> uint(l) & 1
				cb := c >> uint(l) & 1
				var blk Matrix2
				blk[rb][cb] = 1
				blocks[q] = blk
			}
			sum = m.MAdd(sum, m.scaleM(m.KronChain(blocks), w))
		}
	}
	return sum
}
