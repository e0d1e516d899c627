// Package block holds a gate on a few qubits as a small dense matrix over
// its sorted support: the form a narrow gate takes in FlatDD's DMAV phase,
// where no DD is built for it. DMAV-aware fusion (internal/fusion)
// composes blocks by dense products, and internal/dmav runs every block in
// place. A block's MAC count is exact and closed-form: K1 = 2^(n−k)·nnz.
package block

import (
	"fmt"
	"slices"

	"flatdd/internal/circuit"
	"flatdd/internal/cnum"
	"flatdd/internal/dd"
)

// Width is W, the widest support a block has: a gate or a fused product on
// more qubits stays a DD. It is the in-place DMAV path's widest support
// (CCX and every library gate on up to three qubits), and composing two
// blocks costs at most 2^(3W) = 512 multiply-accumulates.
const Width = 3

// Block is a gate as a 2^k×2^k matrix over k ≤ Width qubits. Bit b of a
// row or column index is qubit Qubits[b], so Qubits[0] is the least
// significant bit, as in circuit.Gate and dd.Manager.MultiQubitGate. An
// entry a DD would drop as zero (cnum.IsZero) is exactly 0.
type Block struct {
	Qubits []int        // the support, ascending
	U      []complex128 // row-major: entry (r, c) is U[r<<k|c]
	nnz    int          // nonzero entries of U
	q      [Width]int   // backs Qubits
}

// Of returns the block of g over its targets and controls, or nil when g
// acts on more than Width qubits. Rows whose controls do not hold are the
// identity.
func Of(g *circuit.Gate) *Block {
	k := len(g.Targets) + len(g.Controls)
	if k > Width {
		return nil
	}
	b := &Block{}
	b.Qubits = append(b.q[:0], g.Targets...)
	for _, c := range g.Controls {
		b.Qubits = append(b.Qubits, c.Qubit)
	}
	slices.Sort(b.Qubits)
	// tpos[l] is the block bit of target l; the controls' bits must agree
	// between row and column, and equal want to select g.U.
	var tpos [Width]int
	for l, t := range g.Targets {
		tpos[l] = slices.Index(b.Qubits, t)
	}
	var ctrl, want int
	for _, c := range g.Controls {
		bit := 1 << slices.Index(b.Qubits, c.Qubit)
		ctrl |= bit
		if !c.Negative {
			want |= bit
		}
	}
	target := func(i int) int {
		var t int
		for l := range g.Targets {
			t |= i >> tpos[l] & 1 << l
		}
		return t
	}
	d := 1 << k
	b.U = make([]complex128, d*d)
	for r := 0; r < d; r++ {
		for c := 0; c < d; c++ {
			switch {
			case (r^c)&ctrl != 0:
			case r&ctrl != want:
				if r == c {
					b.U[r*d+c] = 1
				}
			default:
				b.U[r*d+c] = g.U[target(r)][target(c)]
			}
		}
	}
	b.snap()
	return b
}

// Mul returns a·b — the product that applies b first — over the union of
// the two supports, which must be at most Width qubits wide. It costs at
// most 2^(3·Width) multiply-accumulates and no DD.
func Mul(a, b *Block) *Block {
	p := &Block{}
	p.Qubits = append(p.q[:0], a.Qubits...)
	for _, q := range b.Qubits {
		if !slices.Contains(a.Qubits, q) {
			if len(p.Qubits) == Width {
				panic(fmt.Sprintf("block: product of %v and %v is wider than %d qubits", a.Qubits, b.Qubits, Width))
			}
			p.Qubits = append(p.Qubits, q)
		}
	}
	slices.Sort(p.Qubits)
	k := len(p.Qubits)
	d := 1 << k
	var ia, ra, ib, rb [1 << Width]int
	p.project(a, &ia, &ra)
	p.project(b, &ib, &rb)
	ka, kb := len(a.Qubits), len(b.Qubits)
	p.U = make([]complex128, d*d)
	// (a·b)(r, c) = Σ_x a(r, x)·b(x, c), where a(r, x) is zero unless r
	// and x agree outside a's support, and likewise b(x, c) outside b's.
	for r := 0; r < d; r++ {
		row := p.U[r*d : r*d+d]
		for x := 0; x < d; x++ {
			if ra[r] != ra[x] {
				continue
			}
			w := a.U[ia[r]<<ka|ia[x]]
			if w == 0 {
				continue
			}
			for c := range row {
				if rb[x] == rb[c] {
					row[c] += w * b.U[ib[x]<<kb|ib[c]]
				}
			}
		}
	}
	p.snap()
	return p
}

// project maps every index i of p's support onto the operand o's support:
// idx[i] is o's row or column index for it and rest[i] keeps the bits of
// i outside o's support.
func (p *Block) project(o *Block, idx, rest *[1 << Width]int) {
	var pos [Width]int // o's bit b is p's bit pos[b]
	mask := 0
	for b, q := range o.Qubits {
		pos[b] = slices.Index(p.Qubits, q)
		mask |= 1 << pos[b]
	}
	for i := 0; i < 1<<len(p.Qubits); i++ {
		var x int
		for b := range o.Qubits {
			x |= i >> pos[b] & 1 << b
		}
		idx[i], rest[i] = x, i&^mask
	}
}

// snap zeroes the entries a DD would drop and counts the rest.
func (b *Block) snap() {
	b.nnz = 0
	for i, u := range b.U {
		if cnum.IsZero(u) {
			b.U[i] = 0
		} else {
			b.nnz++
		}
	}
}

// Support returns the bit set of the block's qubits. A qubit from 64 up
// does not fit; the DMAV phase runs registers of at most 34 qubits.
func (b *Block) Support() uint64 {
	var s uint64
	for _, q := range b.Qubits {
		s |= 1 << uint(q)
	}
	return s
}

// MACs returns K1, the block's multiply-accumulates on an n-qubit state
// without caching: every one of the 2^(n−k) copies of the block along the
// other qubits costs its nonzero entries. It equals dd.MACCountNode of the
// gate's DD.
func (b *Block) MACs(n int) int64 {
	return int64(b.nnz) << uint(n-len(b.Qubits))
}

// DD builds the block's n-qubit matrix DD, for a run whose DMAV phase
// caches every gate (Algorithm 2 runs on DDs).
func (b *Block) DD(m *dd.Manager, n int) dd.MEdge {
	d := 1 << len(b.Qubits)
	u := make([][]complex128, d)
	for r := range u {
		u[r] = b.U[r*d : r*d+d]
	}
	return m.MultiQubitGate(n, u, b.Qubits)
}
