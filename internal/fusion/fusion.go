// Package fusion implements gate fusion for the DMAV phase of FlatDD.
//
// Two algorithms are provided:
//
//   - Fuse: the paper's DMAV-aware greedy fusion (Algorithm 3, Section
//     3.3). It merges a gate into the running product only when the
//     product's modeled DMAV cost is strictly below the cost of running
//     the two DMAVs one after the other — Figure 9 shows when fusion
//     wins, Figure 10 when it loses. A tie keeps the gates apart: the
//     product would do the same work as one denser block. Before it
//     multiplies, Fuse rules out the merges that cannot win, so it pays
//     the DD matrix-matrix multiply (DDMM) only for candidates;
//   - KOperations: the k-operations baseline [100], which unconditionally
//     fuses every block of k consecutive gates through DDMM.
//
// Both operate on gate matrices in DD form; the DDMM itself is
// Manager.MulMM. The cost function is injected to keep this package free
// of a dmav dependency; core passes MACCost.
package fusion

import (
	"math/bits"

	"flatdd/internal/dd"
)

// CostFunc models the DMAV computational cost of a gate matrix
// (min(C1, C2) of Section 3.2.3, or the one-thread MAC count K1).
type CostFunc func(dd.MEdge) float64

// Result describes the outcome of a fusion pass.
type Result struct {
	Gates []dd.MEdge // the fused gate sequence, application order preserved
	// CostBefore and CostAfter are the summed modeled DMAV costs of the
	// input and output sequences. The DDMMs that built the products are
	// not priced; Fuse keeps their number down by skipping the ones that
	// cannot win instead.
	CostBefore float64
	CostAfter  float64
	// Fusions is the number of DDMM merges kept.
	Fusions int
}

// Fuse runs Algorithm 3 on the gate matrices of G (in application order:
// G[0] is applied to the state first). The returned sequence is also in
// application order.
//
// A gate M_i joins the running product M_p only when cost(M_i·M_p) is
// strictly below cost(M_i)+cost(M_p). When the two matrices act on
// disjoint qubits, the product's MAC count is K(M_i)·K(M_p)/2^n, so with
// a = K/2^n the merge cannot win once (a_i−1)(a_p−1) ≥ 1; Fuse then emits
// M_p without multiplying. That skip is exact for any cost that is a
// positive multiple of the MAC count (K1, or C1 at a fixed thread count);
// under another cost Fuse may keep apart two such gates that the cost
// would have merged. (The count is exact unless a product entry is small
// enough to round to zero, which only the DDMM itself would show.)
func Fuse(m *dd.Manager, G []dd.MEdge, cost CostFunc) Result {
	var res Result
	if len(G) == 0 {
		return res
	}
	sh := newShapes(m.Qubits())
	mp := G[0]     // M_p
	cp := cost(mp) // C_p
	res.CostBefore = cp
	for _, mi := range G[1:] {
		ci := cost(mi)
		res.CostBefore += ci
		if !sh.cannotWin(mi, mp) {
			mip := m.MulMM(mi, mp) // M_i · M_p applies M_p first
			if cip := cost(mip); cip < ci+cp {
				mp, cp = mip, cip
				res.Fusions++
				continue
			}
		}
		// Sequential DMAV is no dearer: emit M_p, restart from M_i.
		res.Gates = append(res.Gates, mp)
		res.CostAfter += cp
		mp, cp = mi, ci
	}
	// Algorithm 3 leaves the last running product in M_p; emit it.
	res.Gates = append(res.Gates, mp)
	res.CostAfter += cp
	return res
}

// shapes memoizes, per matrix node, what the skip test reads: the node's
// MAC count and its qubit support (dd.SupportNode).
type shapes struct {
	n       int
	macs    map[*dd.MNode]int64
	support map[*dd.MNode]uint64
}

func newShapes(n int) *shapes {
	return &shapes{n: n, macs: map[*dd.MNode]int64{}, support: map[*dd.MNode]uint64{}}
}

// cannotWin reports whether a and b act on disjoint qubits and the MAC
// count of their product, K(a)·K(b)/2^n, is at least K(a)+K(b).
func (s *shapes) cannotWin(a, b dd.MEdge) bool {
	// A register wider than the bit set gets no skip.
	if s.n >= 64 || dd.SupportNode(a.N, s.support)&dd.SupportNode(b.N, s.support) != 0 {
		return false
	}
	ka := uint64(dd.MACCountNode(a.N, s.macs))
	kb := uint64(dd.MACCountNode(b.N, s.macs))
	// K(a)·K(b) ≥ 2^n·(K(a)+K(b)) in 128 bits: K reaches 4^n.
	ph, pl := bits.Mul64(ka, kb)
	sh, sl := bits.Mul64(ka+kb, 1<<uint(s.n))
	return ph > sh || ph == sh && pl >= sl
}

// MACCost prices a gate matrix at its MAC count, the one-thread cost K1 of
// Section 3.2.3. It agrees with Fuse's skip, and it has no thread count in
// it, so a plan priced with it is a function of the circuit alone.
func MACCost() CostFunc {
	memo := map[*dd.MNode]int64{}
	return func(g dd.MEdge) float64 { return float64(dd.MACCountNode(g.N, memo)) }
}

// KOperations fuses every block of k consecutive gates into one matrix via
// DDMM, the baseline of [100] evaluated in Table 2. k < 1 is treated as 1
// (no fusion).
func KOperations(m *dd.Manager, G []dd.MEdge, k int, cost CostFunc) Result {
	var res Result
	if k < 1 {
		k = 1
	}
	for _, g := range G {
		res.CostBefore += cost(g)
	}
	for start := 0; start < len(G); start += k {
		end := start + k
		if end > len(G) {
			end = len(G)
		}
		fused := G[start]
		for i := start + 1; i < end; i++ {
			fused = m.MulMM(G[i], fused)
			res.Fusions++
		}
		res.Gates = append(res.Gates, fused)
		res.CostAfter += cost(fused)
	}
	return res
}
