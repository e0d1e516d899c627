package dmav

import (
	"math/bits"
	"time"

	"flatdd/internal/block"
)

// ipKind is the shape of a block, which decides how it runs in place.
type ipKind uint8

const (
	// ipDiag: the block is diagonal (RZ, T, CZ, CP): every amplitude whose
	// entry is not 1 is multiplied by it.
	ipDiag ipKind = iota
	// ipMono: every row and column of the block has one nonzero entry (X,
	// CX, CCX, SWAP, fSim(π/2,·)): swaps and cycles with phases.
	ipMono
	// ipPairs: rows and columns pair up (H, U3, a controlled rotation on
	// the subspace where its controls hold, fSim): a 2×2 butterfly per
	// pair, and a scale per lone entry that is not 1.
	ipPairs
	// ipPairsMoved: as ipPairs, then a permutation that moves each pair's
	// results to its rows — a rotation fused between CX or CZ gates.
	ipPairsMoved
	// ipDense: any other block (a fused product dense on several qubits):
	// gather its 2^k amplitudes, one sparse gemv, scatter them back.
	ipDense
)

// ipOpKind is what one in-place step does at a base index.
type ipOpKind uint8

const (
	opScale     ipOpKind = iota // V[o0] *= w0
	opSwap                      // V[o0], V[o1] = V[o1], V[o0]
	opSwapPhase                 // V[o0], V[o1] = w0·V[o1], w1·V[o0]
	opPair                      // 2×2 block w over (V[o0], V[o1])
	opCycle                     // V[o_i] = w_i·V[o_{i+1}] around the cycle
	opDense                     // V[o_r] = Σ_c B[r][c]·V[o_c] over the block's nonzero entries
)

// ipOp is one step of an in-place gate. off holds amplitude offsets from
// the base index, one per block row the step writes (opDense: one per
// block row).
type ipOp struct {
	kind ipOpKind
	off  []uint64
	w    []complex128
	// opDense: the rows it writes (identity rows are left out), each with
	// terms entries w[i·terms+j] in columns cols[i·terms+j]: its nonzero
	// entries, padded with zeros to the longest row's count.
	rows, cols []uint8
	terms      int
}

// inPlace is the compiled in-place form of a block, memoized in the
// block's gatePlan.
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

// compileBlock classifies block b — diagonal, monomial, pairs (with or
// without a permutation) or dense — and compiles its in-place ops; k1 is
// its MAC count, which decides whether it forks. The identity rows of
// unsatisfied controls get no op.
func (e *Engine) compileBlock(b *block.Block, k1 int64) *inPlace {
	k := len(b.Qubits)
	d := 1 << k
	B := func(r, c int) complex128 { return b.U[r*d+c] }
	ip := &inPlace{}
	var sup uint64
	for _, q := range b.Qubits {
		ip.levels = append(ip.levels, uint(q))
		sup |= 1 << uint(q)
	}
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
			if c == r && B(r, c) != 1 || c != r && B(r, c) != 0 {
				return false
			}
		}
		return true
	}
	// Group rows and columns by the block's nonzero entries (union-find over
	// d row and d column nodes). When every group has one row and one
	// column, or two of each, the block is a butterfly per two-by-two
	// group and a scale per lone entry, each writing its results into its
	// own columns' amplitudes (slots), followed by one permutation that
	// moves every slot to its row. slot[r] is the column whose slot holds
	// row r's result, and mw[r] the weight the move applies.
	var parent [2 << block.Width]int
	for x := range parent[:2*d] {
		parent[x] = x
	}
	find := func(x int) int {
		for parent[x] != x {
			x = parent[x]
		}
		return x
	}
	for r := 0; r < d; r++ {
		for c := 0; c < d; c++ {
			if B(r, c) != 0 {
				parent[find(r)] = find(d + c)
			}
		}
	}
	// The first two rows and columns of each group, by root, and how many
	// each group has.
	var rows, cols [2 << block.Width][2]int
	var nr, nc [2 << block.Width]int
	for r := 0; r < d; r++ {
		x, y := find(r), find(d+r)
		if nr[x] < 2 {
			rows[x][nr[x]] = r
		}
		if nc[y] < 2 {
			cols[y][nc[y]] = r
		}
		nr[x]++
		nc[y]++
	}
	paired := true
	for x := range nr[:2*d] {
		if nr[x] != nc[x] || nr[x] > 2 {
			paired = false
		}
	}
	var slot [1 << block.Width]int
	var mw [1 << block.Width]complex128
	var pairs []ipOp
	for x := range nr[:2*d] {
		switch R, C := rows[x], cols[x]; {
		case !paired || nr[x] == 0:
		case nr[x] == 1:
			slot[R[0]], mw[R[0]] = C[0], B(R[0], C[0])
		default:
			ra, rb := R[0], R[1]
			if rb == C[0] || ra == C[1] {
				ra, rb = rb, ra
			}
			slot[ra], slot[rb], mw[ra], mw[rb] = C[0], C[1], 1, 1
			pairs = append(pairs, ipOp{kind: opPair, off: []uint64{off(C[0]), off(C[1])},
				w: []complex128{B(ra, C[0]), B(ra, C[1]), B(rb, C[0]), B(rb, C[1])}})
		}
	}
	switch {
	case paired:
		ip.ops = pairs
		var seen [1 << block.Width]bool
		moved := false
		for r := 0; r < d; r++ {
			if seen[r] {
				continue
			}
			var op ipOp
			for x := r; !seen[x]; x = slot[x] {
				seen[x] = true
				op.off = append(op.off, off(x))
				op.w = append(op.w, mw[x])
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
			moved = moved || len(op.off) > 1
			ip.ops = append(ip.ops, op)
		}
		switch {
		case len(pairs) == 0 && !moved:
			ip.kind = ipDiag
		case len(pairs) == 0:
			ip.kind = ipMono
		case !moved:
			ip.kind = ipPairs
		default:
			ip.kind = ipPairsMoved
		}
	default:
		ip.kind = ipDense
		op := ipOp{kind: opDense}
		for r := 0; r < d; r++ {
			op.off = append(op.off, off(r))
			if !ident(r) {
				op.rows = append(op.rows, uint8(r))
				nnz := 0
				for c := 0; c < d; c++ {
					if B(r, c) != 0 {
						nnz++
					}
				}
				op.terms = max(op.terms, nnz, 1) // a zero row still writes its zeros
			}
		}
		for _, r := range op.rows {
			j := len(op.w)
			for c := 0; c < d; c++ {
				if B(int(r), c) != 0 {
					op.w = append(op.w, B(int(r), c))
					op.cols = append(op.cols, uint8(c))
				}
			}
			for len(op.w) < j+op.terms {
				op.w = append(op.w, 0)
				op.cols = append(op.cols, 0)
			}
		}
		ip.ops = append(ip.ops, op)
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
		case opDense:
			ip.macs += int64(len(op.w)) * int64(ip.total)
		default:
			ip.macs += int64(len(op.off)) * int64(ip.total)
		}
	}

	ip.inline = e.threads == 1 || k1 < inlineBelowMACs
	ip.parts = 1
	if !ip.inline {
		ip.parts = min(uint64(chunksPerThread*e.threads), ip.total)
	}
	return ip
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
	reach := (na-1)*sa + 1
	switch op.kind {
	case opScale, opSwapPhase, opPair:
		// The kernel table walks runs of consecutive amplitudes: the inner
		// loop's at a unit stride; the outer loop's when it walks
		// consecutive amplitudes (a gate on qubit 1 or 2, whose short runs
		// runInPlace puts outside) or takes one step (one-amplitude runs,
		// as on qubit 0); else one-amplitude runs for each outer step.
		switch {
		case sa == 1:
			op.runs(V, x, nb, sb, na)
		case nb == 1 || sb == 1:
			op.runs(V, x, na, sa, nb)
		default:
			for i := uint64(0); i < nb; i++ {
				op.runs(V, x+i*sb, na, sa, 1)
			}
		}
	case opSwap:
		for i := uint64(0); i < nb; i++ {
			v0 := V[x+i*sb+op.off[0]:][:reach]
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
	case opCycle:
		if len(op.off) <= 4 && unit(op.w) {
			op.rotate(V, x, nb, sb, reach, sa)
			break
		}
		// Each piece runs the cycle over slices: the first element's run is
		// saved in a temporary, every other run moves down one step, and
		// the temporary closes the cycle.
		m := len(op.off) - 1
		var tmp [cycleRun]complex128
		for i := uint64(0); i < nb; i++ {
			for t0 := uint64(0); t0 < na; t0 += cycleRun {
				y := x + i*sb + t0*sa
				k := min(cycleRun, na-t0)
				reach := (k-1)*sa + 1
				if sa == 1 {
					copy(tmp[:k], V[y+op.off[0]:][:k])
					for c := 0; c < m; c++ {
						moveScaled(V[y+op.off[c]:][:k], V[y+op.off[c+1]:][:k], op.w[c])
					}
					moveScaled(V[y+op.off[m]:][:k], tmp[:k], op.w[m])
					continue
				}
				v := V[y+op.off[0]:][:reach]
				for t, j := uint64(0), 0; t < reach; t, j = t+sa, j+1 {
					tmp[j] = v[t]
				}
				for c := 0; c < m; c++ {
					dst, src, w := V[y+op.off[c]:][:reach], V[y+op.off[c+1]:][:reach], op.w[c]
					if w == 1 {
						for t := uint64(0); t < reach; t += sa {
							dst[t] = src[t]
						}
						continue
					}
					for t := uint64(0); t < reach; t += sa {
						dst[t] = w * src[t]
					}
				}
				v, w := V[y+op.off[m]:][:reach], op.w[m]
				if w == 1 {
					for t, j := uint64(0), 0; t < reach; t, j = t+sa, j+1 {
						v[t] = tmp[j]
					}
					continue
				}
				for t, j := uint64(0), 0; t < reach; t, j = t+sa, j+1 {
					v[t] = w * tmp[j]
				}
			}
		}
	case opDense:
		// Per run of at most denseRun elements: copy the block's column
		// runs into a temporary, then sum each written row over its
		// nonzero entries, two columns at a time — straight into V at unit
		// stride, else into a second temporary that is scattered.
		var in [1 << block.Width][denseRun]complex128
		var out [denseRun]complex128
		T := op.terms
		for i := uint64(0); i < nb; i++ {
			for t0 := uint64(0); t0 < na; t0 += denseRun {
				y := x + i*sb + t0*sa
				k := min(denseRun, na-t0)
				reach := (k-1)*sa + 1
				for c, o := range op.off {
					v := V[y+o:][:reach]
					if sa == 1 {
						copy(in[c][:k], v)
						continue
					}
					for t, j := uint64(0), 0; t < reach; t, j = t+sa, j+1 {
						in[c][j] = v[t]
					}
				}
				for r, rw := range op.rows {
					dst := out[:k]
					if sa == 1 {
						dst = V[y+op.off[rw]:][:k]
					}
					w, cols := op.w[r*T:(r+1)*T], op.cols[r*T:(r+1)*T]
					for j := 0; j < T; j += 2 {
						if j+1 == T {
							span(dst, in[cols[j]][:k], w[j], j == 0)
							break
						}
						row(dst, in[cols[j]][:k], in[cols[j+1]][:k], w[j], w[j+1], j == 0)
					}
					if sa != 1 {
						v := V[y+op.off[rw]:][:reach]
						for t, j := uint64(0), 0; t < reach; t, j = t+sa, j+1 {
							v[t] = dst[j]
						}
					}
				}
			}
		}
	}
}

// runs applies a scale, swap-phase or pair op through the kernel table at
// the bases x + i·s + t, i < n, t < l.
func (op *ipOp) runs(V []complex128, x, n, s, l uint64) {
	reach := (n-1)*s + l
	v0 := V[x+op.off[0]:][:reach]
	switch op.kind {
	case opScale:
		scaleRuns(v0, v0, int(n), int(s), int(l), op.w[0])
	case opSwapPhase:
		swapPhaseRuns(v0, V[x+op.off[1]:][:reach], int(n), int(s), int(l), op.w[0], op.w[1])
	case opPair:
		w := (*[4]complex128)(op.w)
		if l == 1 && s == 2 && op.off[1] == op.off[0]+1 {
			// Qubit 0: the pairs are adjacent.
			pairAdj(V[x+op.off[0]:][:2*n], w)
			return
		}
		pairRuns(v0, V[x+op.off[1]:][:reach], int(n), int(s), int(l), w)
	}
}

// denseRun is the most elements one step of a dense block covers at a
// time: its 2^k column runs stay in a temporary on the stack.
const denseRun = 64

// rotate runs a unit-weight cycle of three or four rows in one pass: each
// element's amplitudes rotate in registers. At a stride (a CX ladder on
// the lowest qubits) one pass per row costs 1.6× as much; at unit stride
// the two tie.
func (op *ipOp) rotate(V []complex128, x, nb, sb, reach, sa uint64) {
	for i := uint64(0); i < nb; i++ {
		y := x + i*sb
		v0 := V[y+op.off[0]:][:reach]
		v1 := V[y+op.off[1]:][:len(v0)]
		v2 := V[y+op.off[2]:][:len(v0)]
		if len(op.off) == 3 {
			for t := uint64(0); t < uint64(len(v0)); t += sa {
				v0[t], v1[t], v2[t] = v1[t], v2[t], v0[t]
			}
			continue
		}
		v3 := V[y+op.off[3]:][:len(v0)]
		for t := uint64(0); t < uint64(len(v0)); t += sa {
			v0[t], v1[t], v2[t], v3[t] = v1[t], v2[t], v3[t], v0[t]
		}
	}
}

// unit reports whether every weight is 1.
func unit(w []complex128) bool {
	for _, x := range w {
		if x != 1 {
			return false
		}
	}
	return true
}

// cycleRun is the most elements one step of a cycle moves at a time: the
// temporary that closes the cycle stays on the stack.
const cycleRun = 64

// moveScaled sets dst = w·src; a unit weight is a copy.
func moveScaled(dst, src []complex128, w complex128) {
	if w == 1 {
		copy(dst, src)
		return
	}
	scalarMulInto(dst, src, w)
}
