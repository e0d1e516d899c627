package dmav

import "flatdd/internal/dd"

// opKind is what a plan does with its node's sub-matrix.
type opKind uint8

const (
	// opSpan: the node is the identity (dd.MIdent, or the terminal) —
	// one contiguous kernel over size amplitudes.
	opSpan opKind = iota
	// opRep: a run of k consecutive I⊗child levels (dd.MRep) collapsed
	// into a loop of reps = 2^k executions of the child's plan at the
	// child's stride. A gate on qubit 0 of n=14 is one such loop of 8192
	// instead of 8192 recursive descents.
	opRep
	// opLeaf: every nonzero child is the identity, so the node is a 2×2
	// block over I_h: a butterfly over two spans of h amplitudes. At
	// level 0 (h = 1) this is the dense 2×2 terminal case.
	opLeaf
	// opQuad: two adjacent levels of leaf structure: every nonzero child is
	// the identity or an opLeaf node, so the node is a 4×4 block over I_h —
	// a gate on two adjacent qubits, or the bottom of a dense fused block
	// (at levels 1–0, h = 1, the dense 4×4 terminal case).
	opQuad
	// opNode: general four-child descent.
	opNode
)

// plan is the compiled form of one gate-DD node: what Apply does for the
// node's sub-matrix, relative to the node (the weight above it is passed
// at execution). Plans are memoized per node in Engine.plans, so their
// total size is O(DD nodes) of the gates applied — never O(2^n): a rep
// stays a loop, it is not unrolled into spans.
type plan struct {
	kind opKind
	size uint64 // rows (= columns) of the sub-matrix: 2^(level+1)
	reps uint64 // opRep: 2^k iterations over sub[0]

	w   [4]complex128 // opLeaf, opNode: child edge weights (0 = absent)
	sub [4]*plan      // opNode: child plans (nil = zero block); opRep: sub[0]

	quad *quadBlock // opQuad
}

// quadBlock is the 4×4 block of an opQuad plan over I_h. Row and column
// index 2·(upper bit) + (lower bit).
type quadBlock struct {
	h uint64
	w [4][4]complex128
	// sparse lists the nonzero entries when there are at most
	// quadSparseMax of them (nil otherwise): a permutation-like block at
	// the bottom of a deep descent costs its entries, not sixteen MACs.
	sparse []quadTerm
}

type quadTerm struct {
	r, c uint64
	w    complex128
}

const quadSparseMax = 4

// planOf returns the memoized plan of a node, compiling it (and,
// recursively, its children) on first use.
func (e *Engine) planOf(n *dd.MNode) *plan {
	if p, ok := e.plans[n]; ok {
		return p
	}
	p := &plan{size: uint64(2) << uint(n.Level)}
	switch {
	case n.Level == dd.TerminalLevel:
		p.kind, p.size = opSpan, 1
	case n.Flags&dd.MIdent != 0:
		p.kind = opSpan
	case n.Flags&dd.MRep != 0:
		// Not the identity, so the run of I⊗child levels ends at a
		// non-terminal node that is not itself a repetition.
		c := n
		for c.Flags&dd.MRep != 0 {
			c = c.E[0].N
		}
		p.kind = opRep
		p.reps = p.size / (uint64(2) << uint(c.Level))
		p.sub[0] = e.planOf(c)
	default:
		p.kind = opLeaf
		for i, c := range n.E {
			p.w[i] = c.W
			if c.W != 0 && c.N.Flags&dd.MIdent == 0 {
				p.kind = opNode
			}
		}
		if p.kind == opNode {
			if p.quad = quadOf(n); p.quad != nil {
				p.kind = opQuad
				break
			}
			for i, c := range n.E {
				if c.W != 0 {
					p.sub[i] = e.planOf(c.N)
				}
			}
		}
	}
	e.plans[n] = p
	return p
}

// quadOf returns the 4×4 block of a node whose nonzero children are each
// the identity or a node whose own nonzero children are all the identity;
// nil if some child is neither.
func quadOf(n *dd.MNode) *quadBlock {
	q := &quadBlock{h: uint64(1) << uint(n.Level-1)}
	for i, c := range n.E {
		r, col := 2*(i/2), 2*(i%2)
		switch {
		case c.W == 0:
		case c.N.Flags&dd.MIdent != 0:
			q.w[r][col], q.w[r+1][col+1] = c.W, c.W
		default:
			for j, g := range c.N.E {
				if g.W != 0 && g.N.Flags&dd.MIdent == 0 {
					return nil
				}
				q.w[r+j/2][col+j%2] = c.W * g.W
			}
		}
	}
	for r := range q.w {
		for c, w := range q.w[r] {
			if w != 0 {
				q.sparse = append(q.sparse, quadTerm{uint64(r), uint64(c), w})
			}
		}
	}
	if len(q.sparse) > quadSparseMax {
		q.sparse = nil
	}
	return q
}

// mul is one multiplication's pair of flat vectors; the recursive
// executor passes it by pointer instead of two slice headers.
type mul struct {
	V, W []complex128
}

// exec computes W[iw:iw+size] (=|+=) f · P · V[iv:iv+size] for the plan's
// sub-matrix P. With set, the rows are touched for the first time: they
// are written without being read, and rows P leaves empty are cleared, so
// the caller never zeroes W. Without set the product accumulates.
func (x *mul) exec(p *plan, iv, iw uint64, f complex128, set bool) {
	switch p.kind {
	case opSpan:
		span(x.W[iw:iw+p.size], x.V[iv:iv+p.size], f, set)
	case opLeaf:
		x.leaf(p, iv, iw, f, set, 1)
	case opRep:
		c := p.sub[0]
		switch c.kind {
		case opLeaf:
			x.leaf(c, iv, iw, f, set, p.reps)
		case opQuad:
			x.quad(c, iv, iw, f, set, p.reps)
		default:
			for i := uint64(0); i < p.reps; i++ {
				x.exec(c, iv+i*c.size, iw+i*c.size, f, set)
			}
		}
	case opQuad:
		x.quad(p, iv, iw, f, set, 1)
	case opNode:
		h := p.size / 2
		for r := uint64(0); r < 2; r++ {
			ir, first := iw+r*h, set
			if c := p.sub[2*r]; c != nil {
				x.exec(c, iv, ir, f*p.w[2*r], first)
				first = false
			}
			if c := p.sub[2*r+1]; c != nil {
				x.exec(c, iv+h, ir, f*p.w[2*r+1], first)
				first = false
			}
			if first {
				clear(x.W[ir : ir+h])
			}
		}
	}
}

// denseLeafBelow is the half-width under which a leaf with absent entries
// still runs the dense butterfly: for spans this short one fused pass
// with a few zero coefficients beats per-row kernel calls.
const denseLeafBelow = 8

// leaf executes reps consecutive blocks of an opLeaf plan (reps > 1 when a
// run of I⊗leaf levels was collapsed above it).
func (x *mul) leaf(p *plan, iv, iw uint64, f complex128, set bool, reps uint64) {
	h := p.size / 2
	a00, a01, a10, a11 := f*p.w[0], f*p.w[1], f*p.w[2], f*p.w[3]
	dense := p.w[0] != 0 && p.w[1] != 0 && p.w[2] != 0 && p.w[3] != 0
	if dense || h < denseLeafBelow {
		V, W := x.V[iv:iv+reps*p.size], x.W[iw:iw+reps*p.size]
		if set {
			butterflySet(W, V, h, reps, a00, a01, a10, a11)
		} else {
			butterflyAdd(W, V, h, reps, a00, a01, a10, a11)
		}
		return
	}
	for b := uint64(0); b < reps; b++ {
		v, w := iv+b*p.size, iw+b*p.size
		vlo, vhi := x.V[v:v+h], x.V[v+h:v+2*h]
		row(x.W[w:w+h], vlo, vhi, a00, a01, set)
		row(x.W[w+h:w+2*h], vlo, vhi, a10, a11, set)
	}
}

// quad executes outer consecutive blocks of an opQuad plan. Short spans
// run the dense 4×4 kernel, zero entries included; long ones run row by
// row so that a sparse block — a controlled or fSim-like gate — costs
// only its nonzero entries, and a row with a single unit entry is a copy.
func (x *mul) quad(p *plan, iv, iw uint64, f complex128, set bool, outer uint64) {
	q := p.quad
	h := q.h
	if h == 1 {
		// The two lowest qubits: blocks are adjacent groups of four, and
		// scaling the four results by f beats scaling sixteen weights.
		V, W := x.V[iv:iv+4*outer], x.W[iw:iw+4*outer]
		if outer > 1 || q.sparse == nil {
			quadPacked(W, V, &q.w, f, set)
			return
		}
		// One permutation-like group at the bottom of a general descent.
		if set {
			W[0], W[1], W[2], W[3] = 0, 0, 0, 0
		}
		for _, t := range q.sparse {
			W[t.r] += f * t.w * V[t.c]
		}
		return
	}
	var a [4][4]complex128
	for r := range a {
		for c := range a[r] {
			a[r][c] = f * q.w[r][c]
		}
	}
	for o := uint64(0); o < outer; o++ {
		v, w := x.V[iv+o*p.size:], x.W[iw+o*p.size:]
		vs := [4][]complex128{v[:h], v[h : 2*h], v[2*h : 3*h], v[3*h : 4*h]}
		ws := [4][]complex128{w[:h], w[h : 2*h], w[2*h : 3*h], w[3*h : 4*h]}
		if h < denseLeafBelow {
			quadDense(&ws, &vs, &a, set)
			continue
		}
		for i := range ws {
			lo := a[i][0] != 0 || a[i][1] != 0
			hi := a[i][2] != 0 || a[i][3] != 0
			if lo || !hi {
				row(ws[i], vs[0], vs[1], a[i][0], a[i][1], set)
			}
			if hi {
				row(ws[i], vs[2], vs[3], a[i][2], a[i][3], set && !lo)
			}
		}
	}
}
