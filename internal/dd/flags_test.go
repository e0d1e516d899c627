package dd

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"unsafe"
)

// denseFlags derives the structure flags of a sub-matrix from its dense
// expansion alone — the brute-force oracle for MNode.Flags.
func denseFlags(d [][]complex128) MFlags {
	h := len(d) / 2
	f := MIdent | MRep | MDiag
	for r := range d {
		for c := range d[r] {
			v := d[r][c]
			if r != c && v != 0 {
				f &^= MDiag | MIdent
			}
			if r == c && cmplx.Abs(v-1) > 1e-12 {
				f &^= MIdent
			}
			if (r < h) != (c < h) && v != 0 {
				f &^= MRep // an off-diagonal block is live
			}
			if r < h && c < h && cmplx.Abs(v-d[r+h][c+h]) > 1e-12 {
				f &^= MRep // the diagonal blocks differ
			}
		}
	}
	return f
}

// checkFlags verifies the flags of every node reachable from e against the
// dense expansion of that node's own sub-matrix.
func checkFlags(t *testing.T, m *Manager, what string, e MEdge) {
	t.Helper()
	seen := map[*MNode]bool{}
	var rec func(n *MNode)
	rec = func(n *MNode) {
		if n.Level == TerminalLevel || seen[n] {
			return
		}
		seen[n] = true
		want := denseFlags(m.ToDense(MEdge{1, n}, int(n.Level)+1))
		if n.Flags != want {
			t.Fatalf("%s: node at level %d has flags %03b, dense expansion says %03b", what, n.Level, n.Flags, want)
		}
		for _, c := range n.E {
			if !c.IsZero() {
				rec(c.N)
			}
		}
	}
	if !e.IsZero() {
		rec(e.N)
	}
}

func randomUnitary2(rng *rand.Rand) Matrix2 {
	th, ph, la := rng.Float64()*math.Pi, rng.Float64()*2*math.Pi, rng.Float64()*2*math.Pi
	c, s := complex(math.Cos(th/2), 0), complex(math.Sin(th/2), 0)
	return Matrix2{
		{c, -cmplx.Exp(complex(0, la)) * s},
		{cmplx.Exp(complex(0, ph)) * s, cmplx.Exp(complex(0, ph+la)) * c},
	}
}

// randomGateDD draws from the shapes the engines build: single-qubit and
// controlled gates (dense, diagonal and permutation blocks), two-qubit
// matrices via MultiQubitGate, and controls above and below the target.
func randomGateDD(rng *rand.Rand, m *Manager, n int) MEdge {
	blocks := []Matrix2{matH, matX, matZ, matS, matT, randomUnitary2(rng)}
	u := blocks[rng.Intn(len(blocks))]
	a, b := rng.Intn(n), rng.Intn(n-1)
	if b >= a {
		b++
	}
	switch rng.Intn(4) {
	case 0:
		return m.SingleGate(n, u, a)
	case 1:
		return m.ControlledGate(n, u, a, []Control{{Qubit: b}})
	case 2:
		return m.ControlledGate(n, u, a, []Control{{Qubit: b, Negative: true}})
	default:
		swap := [][]complex128{{1, 0, 0, 0}, {0, 0, 1, 0}, {0, 1, 0, 0}, {0, 0, 0, 1}}
		return m.MultiQubitGate(n, swap, []int{a, b})
	}
}

func TestMFlagsMatchDenseExpansion(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	const n = 5
	m := New(n)
	// The flag byte lives in MNode's padding; every job allocates these
	// by the thousand.
	if sz := unsafe.Sizeof(MNode{}); sz != 104 {
		t.Fatalf("MNode is %d bytes, want 104", sz)
	}
	if f := m.MTerminal().Flags; f != MIdent|MDiag {
		t.Fatalf("terminal flags %03b", f)
	}
	id := m.Identity(n)
	if id.N.Flags != MIdent|MRep|MDiag {
		t.Fatalf("identity root flags %03b", id.N.Flags)
	}
	var roots Roots
	prod := id
	for i := 0; i < 60; i++ {
		g := randomGateDD(rng, m, n)
		checkFlags(t, m, "gate", g)
		checkFlags(t, m, "dagger", m.ConjTranspose(g))
		// U·U† must land on the one flagged identity node, not merely on
		// a matrix that is numerically the identity.
		if uu := m.MulMM(g, m.ConjTranspose(g)); uu.N != id.N || !approx(uu.W, 1) {
			t.Fatalf("gate %d: U·U† = weight %v on node %p, want 1 on the identity node %p", i, uu.W, uu.N, id.N)
		}
		prod = m.MulMM(g, prod)
		checkFlags(t, m, "product", prod)
		if i%4 == 0 {
			// A fresh product restarts the fused block, as fusion does.
			roots.M = append(roots.M, prod)
			prod = id
		}
	}
	// Flags are fixed at construction: the survivors of a collection
	// carry them unchanged, and nodes rebuilt afterwards get them again.
	roots.M = append(roots.M, id)
	m.Collect(roots)
	for _, r := range roots.M {
		checkFlags(t, m, "after Collect", r)
	}
	checkFlags(t, m, "rebuilt", randomGateDD(rng, m, n))
}
