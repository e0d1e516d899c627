package dd

import (
	"fmt"
	"math/cmplx"

	"flatdd/internal/cnum"
)

// Manager owns the unique tables, compute tables and complex-number table of
// one DD universe. Edges from different managers must never be mixed.
//
// A Manager is owned by one goroutine: DD construction, arithmetic, gate
// builders and Collect all mutate its tables without synchronization. Serve
// and cluster create one Manager per job. Parallel consumers — conversion
// and DMAV workers — only read nodes, which are immutable once interned;
// everything that builds or memoizes (DMAV plans, MAC counting, fusion)
// runs on the owning goroutine before work is handed to the pool.
type Manager struct {
	C *cnum.Table

	nQubits int

	// Unique tables: one canonical node per structurally distinct key.
	vUnique map[vKey]*VNode
	mUnique map[mKey]*MNode

	vTerminal *VNode
	mTerminal *MNode

	addCT  ctable[addKey, VEdge]
	maddCT ctable[maddKey, MEdge]
	mvCT   ctable[mvKey, VEdge]
	mmCT   ctable[mmKey, MEdge]

	// gcThreshold triggers automatic collection inside CollectIfNeeded.
	gcThreshold int

	nodeCount int
	peakNodes int

	met metrics
}

type vKey struct {
	level  int8
	w0, w1 cnum.Key
	n0, n1 *VNode
}

type mKey struct {
	level          int8
	w0, w1, w2, w3 cnum.Key
	n0, n1, n2, n3 *MNode
}

type addKey struct {
	a, b  *VNode
	ratio cnum.Key
}

type maddKey struct {
	a, b  *MNode
	ratio cnum.Key
}

type mvKey struct {
	m *MNode
	v *VNode
}

type mmKey struct {
	a, b *MNode
}

// uniqueInitCap pre-sizes each unique table so small runs never rehash
// during their first few hundred node constructions.
const uniqueInitCap = 256

// New returns a Manager for circuits of up to nQubits qubits with the
// default weight tolerance.
func New(nQubits int) *Manager {
	return NewWithTolerance(nQubits, cnum.DefaultTolerance)
}

// NewWithTolerance returns a Manager whose complex table snaps weights at
// the given tolerance.
func NewWithTolerance(nQubits int, tol float64) *Manager {
	if nQubits < 0 || nQubits > 62 {
		panic(fmt.Sprintf("dd: unsupported qubit count %d", nQubits))
	}
	m := &Manager{
		C:           cnum.NewTable(tol),
		nQubits:     nQubits,
		gcThreshold: 1 << 22,
		vUnique:     make(map[vKey]*VNode, uniqueInitCap),
		mUnique:     make(map[mKey]*MNode, uniqueInitCap),
	}
	m.vTerminal = &VNode{Level: TerminalLevel}
	m.mTerminal = &MNode{Level: TerminalLevel, Flags: MIdent | MDiag}
	m.addCT.init()
	m.maddCT.init()
	m.mvCT.init()
	m.mmCT.init()
	return m
}

// Qubits returns the number of qubits this manager was created for.
func (m *Manager) Qubits() int { return m.nQubits }

// VZeroEdge returns the canonical zero vector edge.
func (m *Manager) VZeroEdge() VEdge { return VEdge{0, m.vTerminal} }

// VOneEdge returns the weight-1 terminal vector edge (scalar 1).
func (m *Manager) VOneEdge() VEdge { return VEdge{1, m.vTerminal} }

// MZeroEdge returns the canonical zero matrix edge.
func (m *Manager) MZeroEdge() MEdge { return MEdge{0, m.mTerminal} }

// MOneEdge returns the weight-1 terminal matrix edge (scalar 1).
func (m *Manager) MOneEdge() MEdge { return MEdge{1, m.mTerminal} }

// NodeBytes is the modeled per-node footprint used for DD-engine memory
// estimates (vector nodes 56 B, matrix nodes 104 B; blended). Every
// layer that converts node counts to bytes — core's peak-memory stats,
// the harness's reported footprint, the resource ledger — multiplies by
// this one constant so the estimates agree.
const NodeBytes = 96

// NodeCount returns the number of live unique nodes (vector + matrix),
// excluding terminals.
func (m *Manager) NodeCount() int { return m.nodeCount }

// PeakNodeCount returns the largest NodeCount observed at node creation.
func (m *Manager) PeakNodeCount() int { return m.peakNodes }

// noteInsert accounts for a freshly interned node: it bumps the live count
// and raises the peak high-water mark.
func (m *Manager) noteInsert() {
	m.nodeCount++
	m.peakNodes = max(m.peakNodes, m.nodeCount)
	m.met.peakNodes.SetMax(int64(m.nodeCount))
}

// MakeVNode builds (or reuses) the canonical vector node at the given level
// with the given children and returns its normalized incoming edge.
// Normalization divides by the child weight of maximal snapped magnitude
// (ties to the lower index), which therefore becomes exactly 1 — the same
// division-based convention matrix nodes use. Division by a raw child
// weight is the property that makes hash-consing robust on the snapping
// grid: rebuilding a node from its own stored (grid) weights divides grid
// values by a grid value, which reproduces the stored bits exactly. A
// sum-of-squares (2-norm) divisor does not — the 2-norm of grid-snapped
// weights is only 1 ± half a grid step, and dividing by it on a rebuild
// shifts stored weights across bucket boundaries, breaking structure
// sharing. The top weight stays raw (unsnapped) for the same reason:
// quantizing it would inject half-bucket noise that the next level up
// amplifies past the grid spacing. Only the stored child weights are
// snapped — they are bucket centers, so re-deriving them through another
// path perturbs them by far less than half a bucket and they snap back to
// the same bits. Subtree vectors are consequently not unit-norm; norms are
// computed by an upward pass (Norm, approx, measurement).
func (m *Manager) MakeVNode(level int, e0, e1 VEdge) VEdge {
	if level < 0 || level >= 64 {
		panic(fmt.Sprintf("dd: bad vector node level %d", level))
	}
	e0 = m.normalizeVChild(e0)
	e1 = m.normalizeVChild(e1)
	if e0.IsZero() && e1.IsZero() {
		return m.VZeroEdge()
	}
	// Pick the divisor child by snapped magnitude so ties between
	// equal-magnitude children resolve to the lower index regardless of
	// ulp-level noise in the raw weights.
	maxIdx := 0
	if e0.IsZero() {
		maxIdx = 1
	} else if !e1.IsZero() {
		if m.C.LookupFloat(cmplx.Abs(e1.W)) > m.C.LookupFloat(cmplx.Abs(e0.W)) {
			maxIdx = 1
		}
	}
	top := e0.W
	if maxIdx == 1 {
		top = e1.W
	}
	if maxIdx == 0 {
		e0.W = 1
		if !e1.IsZero() {
			e1.W = m.C.Lookup(e1.W / top)
			if e1.W == 0 {
				e1 = m.VZeroEdge()
			}
		}
	} else {
		e1.W = 1
		if !e0.IsZero() {
			e0.W = m.C.Lookup(e0.W / top)
			if e0.W == 0 {
				e0 = m.VZeroEdge()
			}
		}
	}
	k := vKey{int8(level), cnum.KeyOf(e0.W), cnum.KeyOf(e1.W), e0.N, e1.N}
	n, ok := m.vUnique[k]
	if ok {
		m.met.vHits.Inc()
	} else {
		n = &VNode{E: [2]VEdge{e0, e1}, Level: int8(level)}
		m.vUnique[k] = n
		m.noteInsert()
		m.met.vMisses.Inc()
	}
	return VEdge{top, n}
}

// normalizeVChild canonicalizes numerically dead edges to the zero edge.
// Live weights are kept raw (see MakeVNode on why tops are not snapped).
func (m *Manager) normalizeVChild(e VEdge) VEdge {
	if e.N == nil {
		panic("dd: nil child node")
	}
	if m.C.Lookup(e.W) == 0 {
		return m.VZeroEdge()
	}
	return e
}

// MakeMNode builds (or reuses) the canonical matrix node at the given level
// with children in row-major order and returns its normalized incoming
// edge. Normalization divides by the first child weight of maximal
// magnitude, which therefore becomes exactly 1 (classic QMDD form; it
// reproduces the Hadamard decomposition of Figure 2a).
func (m *Manager) MakeMNode(level int, e [4]MEdge) MEdge {
	if level < 0 || level >= 64 {
		panic(fmt.Sprintf("dd: bad matrix node level %d", level))
	}
	maxMag := 0.0
	maxIdx := -1
	for i := range e {
		if e[i].N == nil {
			panic("dd: nil child node")
		}
		if m.C.Lookup(e[i].W) == 0 {
			e[i] = m.MZeroEdge()
			continue
		}
		// Compare snapped magnitudes so ties between equal-magnitude
		// children (±1/sqrt2 in a Hadamard) resolve to the first index
		// regardless of ulp-level noise in the raw weights.
		if a := m.C.LookupFloat(cmplx.Abs(e[i].W)); a > maxMag {
			maxMag = a
			maxIdx = i
		}
	}
	if maxIdx < 0 {
		return m.MZeroEdge()
	}
	top := e[maxIdx].W
	for i := range e {
		if !e[i].IsZero() {
			e[i].W = m.C.Lookup(e[i].W / top)
			if e[i].W == 0 {
				e[i] = m.MZeroEdge()
			}
		}
	}
	k := mKey{
		int8(level),
		cnum.KeyOf(e[0].W), cnum.KeyOf(e[1].W), cnum.KeyOf(e[2].W), cnum.KeyOf(e[3].W),
		e[0].N, e[1].N, e[2].N, e[3].N,
	}
	n, ok := m.mUnique[k]
	if ok {
		m.met.mHits.Inc()
	} else {
		n = &MNode{E: e, Level: int8(level), Flags: mflags(&e)}
		m.mUnique[k] = n
		m.noteInsert()
		m.met.mMisses.Inc()
	}
	return MEdge{top, n}
}
