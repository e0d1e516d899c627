package dmav

import (
	"math/bits"
	"time"

	"flatdd/internal/dd"
)

// maxInPlaceSupport is the widest gate support the in-place path takes: a
// 2^3×2^3 block covers CX, CCX, SWAP, CZ, CP, fSim and every controlled or
// uncontrolled single-qubit gate with up to two controls.
const maxInPlaceSupport = 3

// ipKind is the shape of a narrow gate's block, which decides how the gate
// runs in place.
type ipKind uint8

const (
	// ipDiag: the block is diagonal (RZ, T, CZ, CP): every amplitude whose
	// entry is not 1 is multiplied by it.
	ipDiag ipKind = iota
	// ipMono: every row and column of the block has one nonzero entry (X,
	// CX, CCX, SWAP, fSim(π/2,·)): swaps and cycles with phases.
	ipMono
	// ipSingle: the rows that are not the identity pair up across one
	// target bit (H, U3, a controlled rotation): a 2×2 butterfly per pair,
	// on the subspace where the controls hold.
	ipSingle
)

// ipOpKind is what one in-place step does at a base index.
type ipOpKind uint8

const (
	opScale     ipOpKind = iota // V[o0] *= w0
	opSwap                      // V[o0], V[o1] = V[o1], V[o0]
	opSwapPhase                 // V[o0], V[o1] = w0·V[o1], w1·V[o0]
	opPair                      // 2×2 block w over (V[o0], V[o1])
	opCycle                     // V[o_i] = w_i·V[o_{i+1}] around the cycle
)

// ipOp is one step of an in-place gate. off holds amplitude offsets from
// the base index, one per block row the step writes.
type ipOp struct {
	kind ipOpKind
	off  []uint64
	w    []complex128
}

// inPlace is the compiled in-place form of a narrow gate, memoized in its
// gatePlan for the root weight f it was built with (the identity rows the
// ops skip depend on it).
//
// The amplitude index splits into the support bits, which index the block
// (offsets in off), and the rest, numbered j in [0, total). The two lowest
// gaps between support levels — runs of non-support levels — are the two
// loops of the kernels: the lower one (a), with the smaller stride, inside
// unless it is shorter than shortRun, so a gate on levels 0, 8 and 17
// walks 2^7 amplitudes at stride 2, not 2^8 at stride 2^9, and a gate on
// qubit 1 walks runs of 2^10 at stride 4 twice per piece. The low bits of j count
// along a, the next along b, and index places the rest above both, with a
// zero at every support level there. A chunk of the pool batch is a range
// of j, so chunks write disjoint amplitudes.
type inPlace struct {
	kind   ipKind
	f      complex128
	levels []uint // support levels, ascending
	ops    []ipOp

	logA, logB uint   // log2 of the inner and outer gap's length
	strA, strB uint64 // amplitude distance along each gap
	top        uint   // the level above both gaps: levels below it are a gap's or support
	hi         []uint // support levels from top up, where index inserts zeros
	total      uint64 // 2^(n-|support|)

	// inline: run on the caller. The fork decision is Apply's — K1 against
	// inlineBelowMACs — so a gate forks in place exactly when it would fork
	// out of place, as parts equal ranges of j.
	inline bool
	parts  uint64
	macs   int64 // MACs per gate, a moved or scaled element counting one (dmav.macs.executed)
}

// index returns the amplitude index of element j (with every support bit
// zero).
func (ip *inPlace) index(j uint64) uint64 {
	x := j >> (ip.logA + ip.logB) << ip.top
	for _, l := range ip.hi {
		x = x>>l<<(l+1) | x&(1<<l-1)
	}
	a, b := j&(1<<ip.logA-1), j>>ip.logA&(1<<ip.logB-1)
	return x + b*ip.strB + a*ip.strA
}

// inPlaceOf returns the in-place form of gate M, compiling it on first use
// (or when M's root weight differs from the memoized form's), or nil when
// the gate runs through Apply's kernel: the cost model sent it to
// Algorithm 2, its support is wider than maxInPlaceSupport, or its block
// is dense on more than one target.
func (e *Engine) inPlaceOf(g *gatePlan, M dd.MEdge) *inPlace {
	if g.cached {
		return nil
	}
	if !g.ipDone || g.ip != nil && g.ip.f != M.W {
		g.ip, g.ipDone = e.compileInPlace(g, M), true
	}
	return g.ip
}

// compileInPlace reads the gate's 2^|s|×2^|s| block from the DD once and
// classifies it: diagonal, monomial, single-target, or none of these (nil).
func (e *Engine) compileInPlace(g *gatePlan, M dd.MEdge) *inPlace {
	// A block on k qubits has at most 2^k entries per row, so a denser gate
	// (a fused block) is ruled out before its DD is walked.
	if g.cost.K1 > int64(e.dim)<<maxInPlaceSupport {
		return nil
	}
	// The memo serves one walk: kept across gates, it would hold a key for
	// every node of every distinct gate of the run.
	sup := dd.SupportNode(M.N, e.support)
	clear(e.support)
	k := bits.OnesCount64(sup)
	if k > maxInPlaceSupport {
		return nil
	}
	ip := &inPlace{f: M.W}
	for l := 0; l < e.n; l++ {
		if sup>>uint(l)&1 != 0 {
			ip.levels = append(ip.levels, uint(l))
		}
	}
	d := 1 << k
	var B [1 << maxInPlaceSupport][1 << maxInPlaceSupport]complex128
	readBlock(M, ip.levels, &B)

	off := func(r int) uint64 {
		var o uint64
		for b, l := range ip.levels {
			if r>>uint(b)&1 != 0 {
				o |= 1 << l
			}
		}
		return o
	}
	ident := func(r int) bool {
		for c := 0; c < d; c++ {
			if c == r && B[r][c] != 1 || c != r && B[r][c] != 0 {
				return false
			}
		}
		return true
	}
	// perm[r] is the column of row r's last nonzero entry (-1 for a zero
	// row); mono stays true only if every row and column has exactly one.
	var perm [1 << maxInPlaceSupport]int
	diag, mono := true, true
	var colUsed [1 << maxInPlaceSupport]bool
	for r := 0; r < d; r++ {
		perm[r] = -1
		for c := 0; c < d; c++ {
			if B[r][c] == 0 {
				continue
			}
			if c != r {
				diag = false
			}
			if perm[r] >= 0 || colUsed[c] {
				mono = false
			}
			perm[r] = c
			colUsed[c] = true
		}
		if perm[r] < 0 {
			mono = false
		}
	}
	switch {
	case diag:
		ip.kind = ipDiag
		for r := 0; r < d; r++ {
			if B[r][r] != 1 {
				ip.ops = append(ip.ops, ipOp{kind: opScale, off: []uint64{off(r)}, w: []complex128{B[r][r]}})
			}
		}
	case mono:
		ip.kind = ipMono
		var seen [1 << maxInPlaceSupport]bool
		for r := 0; r < d; r++ {
			if seen[r] {
				continue
			}
			var op ipOp
			for x := r; !seen[x]; x = perm[x] {
				seen[x] = true
				op.off = append(op.off, off(x))
				op.w = append(op.w, B[x][perm[x]])
			}
			switch {
			case len(op.off) == 1 && op.w[0] == 1:
				continue
			case len(op.off) == 1:
				op.kind = opScale
			case len(op.off) == 2 && op.w[0] == 1 && op.w[1] == 1:
				op.kind = opSwap
			case len(op.off) == 2:
				op.kind = opSwapPhase
			default:
				op.kind = opCycle
			}
			ip.ops = append(ip.ops, op)
		}
	default:
		t := singleTarget(&B, d, ident)
		if t < 0 {
			return nil // a dense multi-target block: Apply's kernel runs it faster
		}
		ip.kind = ipSingle
		for r := 0; r < d; r++ {
			r1 := r | 1<<uint(t)
			if r == r1 || ident(r) && ident(r1) {
				continue
			}
			ip.ops = append(ip.ops, ipOp{kind: opPair, off: []uint64{off(r), off(r1)},
				w: []complex128{B[r][r], B[r][r1], B[r1][r], B[r1][r1]}})
		}
	}

	// The two lowest gaps, each from a non-support level up to the next
	// support level (or the register's top).
	gap := func(from int) (lo, hi int) {
		lo = min(from+bits.TrailingZeros64(^sup>>uint(from)), e.n)
		hi = e.n
		if rest := sup >> uint(lo); lo < e.n && rest != 0 {
			hi = lo + bits.TrailingZeros64(rest)
		}
		return lo, hi
	}
	lo1, hi1 := gap(0)
	lo2, hi2 := gap(hi1)
	stride := func(lo int) uint64 { return uint64(1) << uint(min(lo, e.n-1)) }
	ip.logA, ip.strA = uint(hi1-lo1), stride(lo1)
	ip.logB, ip.strB = uint(hi2-lo2), stride(lo2)
	ip.top = uint(hi2)
	for _, l := range ip.levels {
		if l >= ip.top {
			ip.hi = append(ip.hi, l)
		}
	}
	ip.total = e.dim >> uint(k)
	for _, op := range ip.ops {
		switch op.kind {
		case opPair:
			ip.macs += 4 * int64(ip.total)
		default:
			ip.macs += int64(len(op.off)) * int64(ip.total)
		}
	}

	ip.inline = e.threads == 1 || g.cost.K1 < inlineBelowMACs
	ip.parts = 1
	if !ip.inline {
		ip.parts = min(uint64(chunksPerThread*e.threads), ip.total)
	}
	return ip
}

// readBlock writes M's block over the support levels into B: entry (r, c)
// is the weight product of the DD path whose row and column bits at
// support level levels[b] are bit b of r and c, and whose row and column
// bits agree at every other level (where every node is I⊗child).
func readBlock(M dd.MEdge, levels []uint, B *[1 << maxInPlaceSupport][1 << maxInPlaceSupport]complex128) {
	var rec func(n *dd.MNode, r, c int, w complex128)
	rec = func(n *dd.MNode, r, c int, w complex128) {
		if n.Level == dd.TerminalLevel {
			B[r][c] = w
			return
		}
		b := -1
		for i, l := range levels {
			if int(n.Level) == int(l) {
				b = i
			}
		}
		if b < 0 {
			rec(n.E[0].N, r, c, w*n.E[0].W)
			return
		}
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				if ch := n.E[2*i+j]; !ch.IsZero() {
					rec(ch.N, r|i<<uint(b), c|j<<uint(b), w*ch.W)
				}
			}
		}
	}
	rec(M.N, 0, 0, M.W)
}

// singleTarget returns the block bit t such that every row that is not
// the identity has its nonzero entries in its own column and the column
// that differs from it in bit t alone, or -1 if no bit does.
func singleTarget(B *[1 << maxInPlaceSupport][1 << maxInPlaceSupport]complex128, d int, ident func(int) bool) int {
	for t := 0; 1<<uint(t) < d; t++ {
		ok := true
		for r := 0; r < d && ok; r++ {
			if ident(r) {
				continue
			}
			for c := 0; c < d; c++ {
				if B[r][c] != 0 && c != r && c != r^1<<uint(t) {
					ok = false
					break
				}
			}
		}
		if ok {
			return t
		}
	}
	return -1
}

// applyInPlace runs a compiled in-place gate on V, inline or as one pool
// batch, and counts it. Inline, its wall time is credited to the ledger,
// as Apply does for an inline gate.
func (e *Engine) applyInPlace(g *gatePlan, ip *inPlace, V []complex128) {
	var start time.Time
	if e.met != nil || e.env.Ledger != nil && ip.inline {
		start = time.Now()
	}
	e.cur.V = V
	if ip.inline {
		e.runInPlace(ip, 0, ip.total)
		if e.env.Ledger != nil {
			e.env.Ledger.AddCPU(time.Since(start).Nanoseconds())
		}
	} else {
		e.cur.ip, e.cur.parts = ip, ip.parts
		e.fork("dmav.inplace", batchInPlace, int(ip.parts))
	}
	e.record(g, start, int64(ip.parts), int64(ip.parts), ip.macs)
	if e.met != nil {
		e.met.inPlaceGates.Inc()
	}
}

// inPlaceBlock is the most elements one piece of an in-place gate covers:
// each op of the gate runs over the piece in turn, so a piece must stay in
// cache between them.
const inPlaceBlock = 2048

// shortRun is the inner-gap length below which a piece's loops swap: a
// gate on qubit 1 pairs amplitudes in runs of 2, too short for a loop.
const shortRun = 8

// runInPlace applies the gate in flight to the amplitudes j ∈ [j0, j1) of
// e.cur.V. It does not poll the cancel probe: an in-place gate stops only
// when it is complete.
func (e *Engine) runInPlace(ip *inPlace, j0, j1 uint64) {
	V := e.cur.V
	A, B := uint64(1)<<ip.logA, uint64(1)<<ip.logB
	for j := j0; j < j1; {
		// A piece is part of one inner run, or whole inner runs along b.
		a, b := j&(A-1), j>>ip.logA&(B-1)
		na := min(A-a, j1-j, inPlaceBlock)
		nb := uint64(1)
		if na == A {
			nb = min(B-b, (j1-j)>>ip.logA, max(uint64(inPlaceBlock)>>ip.logA, 1))
		}
		x := ip.index(j)
		for k := range ip.ops {
			if na < shortRun && nb > na {
				// Too short to loop over: walk b inside instead. The piece
				// is in cache, so the longer stride costs nothing.
				ip.ops[k].run(V, x, na, ip.strA, nb, ip.strB)
			} else {
				ip.ops[k].run(V, x, nb, ip.strB, na, ip.strA)
			}
		}
		j += nb * na
	}
	if e.fts.computeCorrupt != nil && len(ip.ops) > 0 && j0 < j1 {
		// The chunk's first written amplitude: no other chunk touches it.
		x := ip.index(j0) + ip.ops[0].off[0]
		if z, ok := e.fts.computeCorrupt.Corrupt(V[x]); ok {
			V[x] = z
		}
	}
}

// run applies the op at the bases x + i·sb + t·sa, i < nb, t < na. A unit
// inner stride runs as a range loop over equal-length slices, which the
// compiler compiles without bounds checks.
func (op *ipOp) run(V []complex128, x, nb, sb, na, sa uint64) {
	span := (na-1)*sa + 1
	switch op.kind {
	case opScale:
		w := op.w[0]
		for i := uint64(0); i < nb; i++ {
			v := V[x+i*sb+op.off[0]:][:span]
			if sa == 1 {
				scalarMulInto(v, v, w)
				continue
			}
			for t := uint64(0); t < uint64(len(v)); t += sa {
				v[t] *= w
			}
		}
	case opSwap:
		for i := uint64(0); i < nb; i++ {
			v0 := V[x+i*sb+op.off[0]:][:span]
			v1 := V[x+i*sb+op.off[1]:][:len(v0)]
			if sa == 1 {
				for t := range v0 {
					v0[t], v1[t] = v1[t], v0[t]
				}
				continue
			}
			for t := uint64(0); t < uint64(len(v0)); t += sa {
				v0[t], v1[t] = v1[t], v0[t]
			}
		}
	case opSwapPhase:
		w0, w1 := op.w[0], op.w[1]
		for i := uint64(0); i < nb; i++ {
			v0 := V[x+i*sb+op.off[0]:][:span]
			v1 := V[x+i*sb+op.off[1]:][:len(v0)]
			if sa == 1 {
				for t := range v0 {
					v0[t], v1[t] = w0*v1[t], w1*v0[t]
				}
				continue
			}
			for t := uint64(0); t < uint64(len(v0)); t += sa {
				v0[t], v1[t] = w0*v1[t], w1*v0[t]
			}
		}
	case opPair:
		a00, a01, a10, a11 := op.w[0], op.w[1], op.w[2], op.w[3]
		for i := uint64(0); i < nb; i++ {
			v0 := V[x+i*sb+op.off[0]:][:span]
			v1 := V[x+i*sb+op.off[1]:][:len(v0)]
			if sa == 1 {
				for t := range v0 {
					p, q := v0[t], v1[t]
					v0[t] = a00*p + a01*q
					v1[t] = a10*p + a11*q
				}
				continue
			}
			for t := uint64(0); t < uint64(len(v0)); t += sa {
				p, q := v0[t], v1[t]
				v0[t] = a00*p + a01*q
				v1[t] = a10*p + a11*q
			}
		}
	case opCycle:
		m := len(op.off) - 1
		for i := uint64(0); i < nb; i++ {
			for t := uint64(0); t < na; t++ {
				y := x + i*sb + t*sa
				first := V[y+op.off[0]]
				for c := 0; c < m; c++ {
					V[y+op.off[c]] = op.w[c] * V[y+op.off[c+1]]
				}
				V[y+op.off[m]] = op.w[m] * first
			}
		}
	}
}
