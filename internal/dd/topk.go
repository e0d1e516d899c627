package dd

import (
	"container/heap"
	"math/cmplx"
)

// Top-k amplitude query. A strength of DD-represented states is answering
// "which basis states dominate?" without expanding all 2^n amplitudes:
// a best-first branch-and-bound over the diagram visits only the paths
// whose magnitude upper bound can still reach the answer set.

// AmpEntry is one basis state and its amplitude.
type AmpEntry struct {
	Index     uint64
	Amplitude complex128
}

// TopAmplitudes returns the k basis states of the n-qubit state e with the
// largest |amplitude|, in descending magnitude order (exact, not
// approximate). It runs in O(paths visited · log) where the visited count
// is k plus the number of near-misses — far below 2^n on skewed states.
func (m *Manager) TopAmplitudes(e VEdge, n, k int) []AmpEntry {
	if k <= 0 || e.IsZero() {
		return nil
	}
	if total := uint64(1) << uint(n); uint64(k) > total {
		k = int(total)
	}
	// maxMag[node] = max over paths below node of the weight-magnitude
	// product (the bound used by the search).
	maxMag := make(map[*VNode]float64)
	var bound func(nd *VNode) float64
	bound = func(nd *VNode) float64 {
		if nd.Level == TerminalLevel {
			return 1
		}
		if v, ok := maxMag[nd]; ok {
			return v
		}
		best := 0.0
		for _, c := range nd.E {
			if c.IsZero() {
				continue
			}
			if b := cmplx.Abs(c.W) * bound(c.N); b > best {
				best = b
			}
		}
		maxMag[nd] = best
		return best
	}

	pq := &pathQueue{}
	heap.Init(pq)
	heap.Push(pq, pathItem{
		node: e.N, w: e.W, idx: 0,
		bound: cmplx.Abs(e.W) * bound(e.N),
	})
	var out []AmpEntry
	for pq.Len() > 0 && len(out) < k {
		it := heap.Pop(pq).(pathItem)
		if it.node.Level == TerminalLevel {
			out = append(out, AmpEntry{Index: it.idx, Amplitude: it.w})
			continue
		}
		for i := 0; i < 2; i++ {
			c := it.node.E[i]
			if c.IsZero() {
				continue
			}
			w := it.w * c.W
			idx := it.idx | uint64(i)<<uint(it.node.Level)
			heap.Push(pq, pathItem{
				node: c.N, w: w, idx: idx,
				bound: cmplx.Abs(w) * bound(c.N),
			})
		}
	}
	return out
}

type pathItem struct {
	node  *VNode
	w     complex128
	idx   uint64
	bound float64
}

// pathQueue is a max-heap on the magnitude upper bound. Popping in bound
// order makes the first k terminal pops exactly the k largest amplitudes:
// every unexplored path's true magnitude is at most its bound, which is at
// most the bound of the popped item.
type pathQueue []pathItem

func (q pathQueue) Len() int            { return len(q) }
func (q pathQueue) Less(i, j int) bool  { return q[i].bound > q[j].bound }
func (q pathQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *pathQueue) Push(x interface{}) { *q = append(*q, x.(pathItem)) }
func (q *pathQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}
