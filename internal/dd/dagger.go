package dd

import "math/cmplx"

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
