package dd

import "fmt"

// Variable reordering. The variable order of a decision diagram strongly
// influences its size; QMDD packages support reordering through adjacent
// level exchanges. SwapAdjacentLevels rebuilds a vector DD with qubits l
// and l+1 exchanged, and Reorder composes adjacent swaps to realize an
// arbitrary qubit permutation. Both return a DD in the manager's canonical
// form; semantically they permute amplitude indices:
//
//	newAmp[idx] = oldAmp[swapBits(idx, l, l+1)]

// SwapAdjacentLevels returns the vector DD whose qubits l and l+1 are
// exchanged relative to e (an n-qubit state).
func (m *Manager) SwapAdjacentLevels(e VEdge, n, l int) VEdge {
	if l < 0 || l+1 >= n {
		panic(fmt.Sprintf("dd: cannot swap levels %d,%d of %d qubits", l, l+1, n))
	}
	if e.IsZero() {
		return e
	}
	memo := make(map[*VNode]VEdge)
	var rec func(nd *VNode) VEdge
	rec = func(nd *VNode) VEdge {
		if v, ok := memo[nd]; ok {
			return v
		}
		var res VEdge
		if int(nd.Level) == l+1 {
			// The four grandchildren of the (l+1, l) block, indexed by
			// (upper bit, lower bit), get their index bits exchanged:
			// (a,b) -> (b,a).
			g := func(hi, lo int) VEdge {
				e1 := nd.E[hi]
				if e1.IsZero() {
					return m.VZeroEdge()
				}
				if int(e1.N.Level) != l {
					panic("dd: level skipped during swap")
				}
				e2 := e1.N.E[lo]
				if e2.IsZero() {
					return m.VZeroEdge()
				}
				return m.scaleV(e2, e1.W)
			}
			// New structure: level l+1 node decides the ORIGINAL qubit l.
			lo0 := m.MakeVNode(l, g(0, 0), g(1, 0))
			lo1 := m.MakeVNode(l, g(0, 1), g(1, 1))
			res = m.MakeVNode(l+1, lo0, lo1)
		} else {
			var ch [2]VEdge
			for i := 0; i < 2; i++ {
				c := nd.E[i]
				if c.IsZero() {
					ch[i] = m.VZeroEdge()
					continue
				}
				ch[i] = m.scaleV(rec(c.N), c.W)
			}
			res = m.MakeVNode(int(nd.Level), ch[0], ch[1])
		}
		memo[nd] = res
		return res
	}
	if int(e.N.Level) < l+1 {
		// The swap level is above the root (impossible for full-height
		// DDs, but be defensive).
		return e
	}
	return m.scaleV(rec(e.N), e.W)
}

// Reorder returns the vector DD with qubits permuted so that new qubit i
// is the old qubit perm[i]. perm must be a permutation of 0..n-1. The
// result satisfies newAmp[idx] = oldAmp[gather(idx)] with
// gather(idx) bit perm[i] = idx bit i.
func (m *Manager) Reorder(e VEdge, n int, perm []int) VEdge {
	if len(perm) != n {
		panic(fmt.Sprintf("dd: permutation length %d for %d qubits", len(perm), n))
	}
	cur := make([]int, n) // cur[i]: which ORIGINAL qubit sits at level i now
	seen := make([]bool, n)
	for i := range cur {
		cur[i] = i
	}
	for _, p := range perm {
		if p < 0 || p >= n || seen[p] {
			panic(fmt.Sprintf("dd: invalid permutation %v", perm))
		}
		seen[p] = true
	}
	// Selection sort with adjacent transpositions: bring perm[i] to level
	// i from the bottom up.
	for target := 0; target < n; target++ {
		// Find where the wanted original qubit currently lives.
		pos := -1
		for i := target; i < n; i++ {
			if cur[i] == perm[target] {
				pos = i
				break
			}
		}
		if pos < 0 {
			panic("dd: permutation bookkeeping broken")
		}
		for pos > target {
			e = m.SwapAdjacentLevels(e, n, pos-1)
			cur[pos-1], cur[pos] = cur[pos], cur[pos-1]
			pos--
		}
	}
	return e
}
