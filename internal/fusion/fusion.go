// Package fusion implements gate fusion for the DMAV phase of FlatDD.
//
// Two algorithms are provided:
//
//   - the paper's DMAV-aware greedy fusion (Algorithm 3, Section 3.3). It
//     merges a gate into the running product only when the product's
//     modeled DMAV cost is strictly below the cost of running the two
//     DMAVs one after the other — Figure 9 shows when fusion wins, Figure
//     10 when it loses. A tie keeps the gates apart: the product would do
//     the same work as one denser block. It never merges two gates whose
//     supports together span more than block.Width qubits, and before it
//     multiplies it rules out the merges that cannot win. One walk serves
//     two operand forms: FuseGates runs it over the DMAV phase's gates —
//     dense blocks (internal/block) for narrow gates, composed by small
//     dense products, and DDs for wider gates, which never merge — and
//     Fuse runs it over gate DDs, composed by DD matrix-matrix
//     multiplication (DDMM, Manager.MulMM);
//   - KOperations: the k-operations baseline [100], which unconditionally
//     fuses every block of k consecutive gate DDs through DDMM.
//
// Fuse's cost function is injected to keep this package free of a dmav
// dependency; FuseGates and core price gates at their MAC count K1.
package fusion

import (
	"math/bits"

	"flatdd/internal/block"
	"flatdd/internal/dd"
)

// CostFunc models the DMAV computational cost of a gate matrix
// (min(C1, C2) of Section 3.2.3, or the one-thread MAC count K1).
type CostFunc func(dd.MEdge) float64

// Result describes the outcome of a fusion pass over gates of type G.
type Result[G any] struct {
	Gates []G // the fused gate sequence, application order preserved
	// Runs[i] is how many consecutive input gates Gates[i] multiplies;
	// the runs add up to the input length.
	Runs []int
	// CostBefore and CostAfter are the summed modeled DMAV costs of the
	// input and output sequences. The products that built the merges are
	// not priced; the walk keeps their number down by skipping the ones
	// that cannot win instead.
	CostBefore float64
	CostAfter  float64
	// Fusions is the number of merges kept.
	Fusions int
}

// algebra is what Algorithm 3's walk needs of a gate form.
type algebra[G any] interface {
	// support is the bit set of qubits the gate acts on; all ones when it
	// is unknown, which the width cap then refuses to merge.
	support(G) uint64
	// macs is the gate's MAC count K1, which the skip bounds.
	macs(G) uint64
	cost(G) float64
	// mul returns a·b, the product that applies b first.
	mul(a, b G) G
}

// walk runs Algorithm 3 on gs (in application order: gs[0] is applied to
// the state first) over an n-qubit register. The returned sequence is also
// in application order.
//
// A gate M_i joins the running product M_p only when their supports span
// at most block.Width qubits and cost(M_i·M_p) is strictly below
// cost(M_i)+cost(M_p). When the two matrices act on disjoint qubits, the
// product's MAC count is K(M_i)·K(M_p)/2^n, so with a = K/2^n the merge
// cannot win once (a_i−1)(a_p−1) ≥ 1; the walk then emits M_p without
// multiplying. That skip is exact for any cost that is a positive
// multiple of the MAC count (K1, or C1 at a fixed thread count); under
// another cost the walk may keep apart two such gates that the cost would
// have merged. (The count is exact unless a product entry is small enough
// to round to zero, which only the product itself would show.)
func walk[G any](n int, gs []G, a algebra[G]) Result[G] {
	var res Result[G]
	if len(gs) == 0 {
		return res
	}
	res.Gates, res.Runs = make([]G, 0, len(gs)), make([]int, 0, len(gs))
	mp := gs[0]      // M_p
	cp := a.cost(mp) // C_p
	run := 1
	res.CostBefore = cp
	for _, mi := range gs[1:] {
		ci := a.cost(mi)
		res.CostBefore += ci
		if si, sp := a.support(mi), a.support(mp); bits.OnesCount64(si|sp) <= block.Width &&
			(si&sp != 0 || !cannotWin(n, a.macs(mi), a.macs(mp))) {
			mip := a.mul(mi, mp) // M_i · M_p applies M_p first
			if cip := a.cost(mip); cip < ci+cp {
				mp, cp = mip, cip
				run++
				res.Fusions++
				continue
			}
		}
		// Sequential DMAV is no dearer: emit M_p, restart from M_i.
		res.Gates = append(res.Gates, mp)
		res.Runs = append(res.Runs, run)
		res.CostAfter += cp
		mp, cp, run = mi, ci, 1
	}
	// Algorithm 3 leaves the last running product in M_p; emit it.
	res.Gates = append(res.Gates, mp)
	res.Runs = append(res.Runs, run)
	res.CostAfter += cp
	return res
}

// cannotWin reports whether the product of two matrices with MAC counts ka
// and kb that act on disjoint qubits of an n-qubit register, whose count is
// ka·kb/2^n, costs at least ka+kb.
func cannotWin(n int, ka, kb uint64) bool {
	// ka·kb ≥ 2^n·(ka+kb) in 128 bits: a count reaches 4^n.
	ph, pl := bits.Mul64(ka, kb)
	sh, sl := bits.Mul64(ka+kb, 1<<uint(n))
	return ph > sh || ph == sh && pl >= sl
}

// Gate is one gate of the DMAV phase: a gate on at most block.Width qubits
// as its dense block, or a wider gate as its DD.
type Gate struct {
	Block *block.Block // nil for a wider gate
	DD    dd.MEdge     // the gate's DD when Block is nil
}

// FuseGates runs Algorithm 3 over the DMAV phase's gates on an n-qubit
// register (n ≤ 63), pricing each at its MAC count K1: a block's
// closed-form 2^(n−k)·nnz, a DD's dd.MACCountNode. Blocks merge by dense
// products; a DD gate is wider than block.Width and never merges.
func FuseGates(n int, gs []Gate) Result[Gate] {
	return walk[Gate](n, gs, gateAlgebra{n: n, memo: map[*dd.MNode]int64{}})
}

type gateAlgebra struct {
	n    int
	memo map[*dd.MNode]int64
}

func (a gateAlgebra) support(g Gate) uint64 {
	if g.Block == nil {
		return ^uint64(0)
	}
	return g.Block.Support()
}

func (a gateAlgebra) macs(g Gate) uint64 {
	if g.Block == nil {
		return uint64(dd.MACCountNode(g.DD.N, a.memo))
	}
	return uint64(g.Block.MACs(a.n))
}

func (a gateAlgebra) cost(g Gate) float64 { return float64(a.macs(g)) }

func (a gateAlgebra) mul(x, y Gate) Gate { return Gate{Block: block.Mul(x.Block, y.Block)} }

// Fuse runs Algorithm 3 on the gate DDs of G, priced by cost and merged by
// DDMM, under the same width cap as FuseGates: at equal costs the two make
// the same plan. A register of 64 qubits or more gets no merge, since a
// support does not fit the bit set.
func Fuse(m *dd.Manager, G []dd.MEdge, cost CostFunc) Result[dd.MEdge] {
	n := m.Qubits()
	return walk[dd.MEdge](n, G, &ddAlgebra{m: m, n: n, price: cost,
		macsMemo: map[*dd.MNode]int64{}, supportMemo: map[*dd.MNode]uint64{}})
}

// ddAlgebra memoizes per matrix node what the walk reads: the node's MAC
// count and its qubit support (dd.SupportNode).
type ddAlgebra struct {
	m           *dd.Manager
	n           int
	price       CostFunc
	macsMemo    map[*dd.MNode]int64
	supportMemo map[*dd.MNode]uint64
}

func (a *ddAlgebra) support(g dd.MEdge) uint64 {
	if a.n >= 64 {
		return ^uint64(0)
	}
	return dd.SupportNode(g.N, a.supportMemo)
}

func (a *ddAlgebra) macs(g dd.MEdge) uint64 { return uint64(dd.MACCountNode(g.N, a.macsMemo)) }

func (a *ddAlgebra) cost(g dd.MEdge) float64 { return a.price(g) }

func (a *ddAlgebra) mul(x, y dd.MEdge) dd.MEdge { return a.m.MulMM(x, y) }

// MACCost prices a gate matrix at its MAC count, the one-thread cost K1 of
// Section 3.2.3. It agrees with the walk's skip, and it has no thread count
// in it, so a plan priced with it is a function of the circuit alone.
func MACCost() CostFunc {
	memo := map[*dd.MNode]int64{}
	return func(g dd.MEdge) float64 { return float64(dd.MACCountNode(g.N, memo)) }
}

// KOperations fuses every block of k consecutive gates into one matrix via
// DDMM, the baseline of [100] evaluated in Table 2. k < 1 is treated as 1
// (no fusion).
func KOperations(m *dd.Manager, G []dd.MEdge, k int, cost CostFunc) Result[dd.MEdge] {
	var res Result[dd.MEdge]
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
		res.Runs = append(res.Runs, end-start)
		res.CostAfter += cost(fused)
	}
	return res
}
