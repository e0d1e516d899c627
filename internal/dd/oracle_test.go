package dd

// Test oracles: exact, unoptimized views of a DD that the suites compare
// the engine against. Nothing outside the tests needs them.

import (
	"fmt"
	"math"
	"math/cmplx"
)

// MACCount returns the number of multiply-accumulate operations a DMAV with
// the matrix rooted at e would execute (Section 3.2.3, Figure 8): the
// terminal contributes one MAC, and every node contributes the sum of the
// counts of its nonzero outgoing edges. Identical nodes are counted once in
// the memo table but contribute each time they are reached through a
// different edge — the count equals the number of nonzero root-to-terminal
// paths, i.e. the number of nonzero matrix entries touched by Run.
func MACCount(e MEdge) int64 {
	if e.IsZero() {
		return 0
	}
	memo := make(map[*MNode]int64)
	return macRec(e.N, memo)
}

// NNZ returns the number of nonzero entries of the vector DD rooted at e —
// each is one root-to-terminal path with nonzero weight product.
func NNZ(e VEdge) int64 {
	if e.IsZero() {
		return 0
	}
	memo := make(map[*VNode]int64)
	var rec func(n *VNode) int64
	rec = func(n *VNode) int64 {
		if n.Level == TerminalLevel {
			return 1
		}
		if v, ok := memo[n]; ok {
			return v
		}
		var sum int64
		for _, c := range n.E {
			if !c.IsZero() {
				sum += rec(c.N)
			}
		}
		memo[n] = sum
		return sum
	}
	return rec(e.N)
}

// ComputeTableStats reports lifetime lookup/hit counters aggregated across
// the manager's four compute tables, for diagnostics and tests.
func (m *Manager) ComputeTableStats() (lookups, hits uint64) {
	lookups = m.addCT.lookups + m.maddCT.lookups + m.mvCT.lookups + m.mmCT.lookups
	hits = m.addCT.hits + m.maddCT.hits + m.mvCT.hits + m.mmCT.hits
	return lookups, hits
}

// ConjTranspose returns the conjugate transpose (dagger) of a matrix DD:
// weights are conjugated and the off-diagonal children of every node are
// swapped. The result is built through the unique table, so U†† is
// pointer-identical to U.
func (m *Manager) ConjTranspose(e MEdge) MEdge {
	memo := make(map[*MNode]MEdge)
	return m.daggerRec(e, memo)
}

func (m *Manager) daggerRec(e MEdge, memo map[*MNode]MEdge) MEdge {
	if e.IsZero() {
		return m.MZeroEdge()
	}
	w := cmplx.Conj(e.W)
	if e.IsTerminal() {
		return MEdge{w, m.mTerminal}
	}
	if r, ok := memo[e.N]; ok {
		return m.scaleM(r, w)
	}
	ch := [4]MEdge{
		m.daggerRec(e.N.E[0], memo), // e00† stays
		m.daggerRec(e.N.E[2], memo), // e01' = conj(e10)
		m.daggerRec(e.N.E[1], memo), // e10' = conj(e01)
		m.daggerRec(e.N.E[3], memo),
	}
	r := m.MakeMNode(int(e.N.Level), ch)
	memo[e.N] = r
	return m.scaleM(r, w)
}

// InnerProduct computes <a|b> for two vector DDs of the same dimension.
func (m *Manager) InnerProduct(a, b VEdge, n int) complex128 {
	return m.ipRec(a, b, n-1)
}

func (m *Manager) ipRec(a, b VEdge, level int) complex128 {
	if a.IsZero() || b.IsZero() {
		return 0
	}
	if level < 0 {
		return cmplx.Conj(a.W) * b.W
	}
	var sum complex128
	for i := 0; i < 2; i++ {
		ea := a.N.E[i]
		eb := b.N.E[i]
		if ea.IsZero() || eb.IsZero() {
			continue
		}
		sum += cmplx.Conj(a.W) * b.W * m.ipRec(VEdge{ea.W, ea.N}, VEdge{eb.W, eb.N}, level-1)
	}
	return sum
}

// MTerminal returns the shared matrix terminal node.
func (m *Manager) MTerminal() *MNode { return m.mTerminal }

// ToDense expands the matrix DD to a dense 2^n x 2^n array. For tests and
// tiny operators only.
func (m *Manager) ToDense(e MEdge, n int) [][]complex128 {
	dim := 1 << uint(n)
	out := make([][]complex128, dim)
	for i := range out {
		out[i] = make([]complex128, dim)
	}
	var fill func(e MEdge, level int, r, c int, w complex128)
	fill = func(e MEdge, level int, r, c int, w complex128) {
		if e.IsZero() {
			return
		}
		w *= e.W
		if level < 0 {
			out[r][c] = w
			return
		}
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				fill(e.N.Child(i, j), level-1, r|i<<uint(level), c|j<<uint(level), w)
			}
		}
	}
	fill(MEdge{1, e.N}, n-1, 0, 0, e.W)
	return out
}

// MatrixEntry returns entry (row, col) of the matrix DD on n qubits.
func (m *Manager) MatrixEntry(e MEdge, n int, row, col uint64) complex128 {
	w := e.W
	for level := n - 1; level >= 0; level-- {
		if w == 0 {
			return 0
		}
		i := int(row >> uint(level) & 1)
		j := int(col >> uint(level) & 1)
		c := e.N.Child(i, j)
		e = c
		w *= c.W
	}
	return w
}

// MaxAmplitude returns the single largest-magnitude amplitude and its
// basis index.
func (m *Manager) MaxAmplitude(e VEdge, n int) (AmpEntry, error) {
	top := m.TopAmplitudes(e, n, 1)
	if len(top) == 0 {
		return AmpEntry{}, fmt.Errorf("dd: zero state has no maximum amplitude")
	}
	return top[0], nil
}

// Norm returns the 2-norm of the vector DD, computed by a memoized upward
// pass over the unique nodes (O(nodes)). With division-based node
// normalization sub-trees are not unit vectors, so the norm is
// |W| * sqrt(S(root)) where S is the squared sub-tree norm.
func (m *Manager) Norm(e VEdge) float64 {
	if e.IsZero() {
		return 0
	}
	return cmplx.Abs(e.W) * math.Sqrt(subtreeNorm2(e.N, map[*VNode]float64{}))
}

// subtreeNorm2 returns S(n), the squared 2-norm of the sub-vector rooted
// at node n with an implicit incoming weight of 1:
//
//	S(terminal) = 1,  S(n) = sum_i |w_i|^2 * S(child_i).
func subtreeNorm2(n *VNode, memo map[*VNode]float64) float64 {
	if n.Level == TerminalLevel {
		return 1
	}
	if s, ok := memo[n]; ok {
		return s
	}
	var s float64
	for _, c := range n.E {
		if !c.IsZero() {
			w := cmplx.Abs(c.W)
			s += w * w * subtreeNorm2(c.N, memo)
		}
	}
	memo[n] = s
	return s
}
