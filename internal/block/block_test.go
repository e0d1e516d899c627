package block

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"
	"testing"

	"flatdd/internal/circuit"
	"flatdd/internal/dd"
	"flatdd/internal/ddsim"
)

// readBlock returns M's 2^k×2^k block over the support levels: entry (r,
// c) is the weight product of the DD path whose row and column bits at
// level levels[b] are bit b of r and c, and whose row and column bits
// agree at every other level (where every node is I⊗child).
func readBlock(M dd.MEdge, levels []int) []complex128 {
	d := 1 << len(levels)
	B := make([]complex128, d*d)
	var rec func(n *dd.MNode, r, c int, w complex128)
	rec = func(n *dd.MNode, r, c int, w complex128) {
		if n.Level == dd.TerminalLevel {
			B[r*d+c] = w
			return
		}
		b := -1
		for i, l := range levels {
			if int(n.Level) == l {
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
	if !M.IsZero() {
		rec(M.N, 0, 0, M.W)
	}
	return B
}

// libraryGates returns every gate kind of the circuit library placed on
// the given qubits, both polarities of every control included: a
// one-qubit gate on qs[0], a controlled gate with target qs[0] and control
// qs[1], a doubly controlled one with controls qs[1] and qs[2], and a
// two-target gate on (qs[0], qs[1]). Angles are drawn from rng.
func libraryGates(rng *rand.Rand, qs []int) []circuit.Gate {
	a := func() float64 { return rng.Float64() * 2 * math.Pi }
	q := qs[0]
	gs := []circuit.Gate{
		circuit.I(q), circuit.H(q), circuit.X(q), circuit.Y(q), circuit.Z(q),
		circuit.S(q), circuit.Sdg(q), circuit.T(q), circuit.Tdg(q), circuit.SX(q),
		circuit.SXdg(q), circuit.SY(q), circuit.SW(q), circuit.RX(a(), q),
		circuit.RY(a(), q), circuit.RZ(a(), q), circuit.P(a(), q),
		circuit.U2(a(), a(), q), circuit.U3(a(), a(), a(), q),
	}
	var ctrl []circuit.Gate
	if len(qs) >= 2 {
		c := qs[1]
		ctrl = append(ctrl, circuit.CX(c, q), circuit.CY(c, q), circuit.CZ(c, q),
			circuit.CH(c, q), circuit.CP(a(), c, q), circuit.CRX(a(), c, q),
			circuit.CRY(a(), c, q), circuit.CRZ(a(), c, q), circuit.CU3(a(), a(), a(), c, q))
		gs = append(gs, circuit.SWAP(q, c), circuit.ISwap(q, c), circuit.FSim(a(), a(), q, c),
			circuit.RZZ(a(), q, c))
	}
	if len(qs) >= 3 {
		ctrl = append(ctrl, circuit.CCX(qs[1], qs[2], q), circuit.CCZ(qs[1], qs[2], q),
			circuit.MCX(qs[1:3], q))
	}
	for _, g := range ctrl {
		for pol := 0; pol < 1<<len(g.Controls); pol++ {
			h := g
			h.Controls = append([]circuit.Control(nil), g.Controls...)
			for i := range h.Controls {
				h.Controls[i].Negative = pol>>i&1 != 0
			}
			gs = append(gs, h)
		}
	}
	return gs
}

// forEachPlacement calls f with every ordered choice of k distinct qubits
// of n.
func forEachPlacement(n, k int, f func(qs []int)) {
	qs := make([]int, 0, k)
	var rec func()
	rec = func() {
		if len(qs) == k {
			f(qs)
			return
		}
		for q := 0; q < n; q++ {
			used := false
			for _, p := range qs {
				used = used || p == q
			}
			if !used {
				qs = append(qs, q)
				rec()
				qs = qs[:len(qs)-1]
			}
		}
	}
	rec()
}

// TestOfMatchesGateDD pins Of to the DD the engine would otherwise build:
// for every library gate kind at every target and control position and
// polarity, on registers up to n = 10, the closed-form K1 of the block
// equals dd.MACCountNode of ddsim.BuildGateDD's DD, and the block agrees
// per entry within 1e-14 with the block read back from that DD. The
// read-back DD is built at tolerance 1e-15: at cnum's default tolerance
// every weight is snapped to a 2^-34 grid, which moves an entry by up to
// 3e-11.
func TestOfMatchesGateDD(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, n := range []int{1, 2, 3, 5, 10} {
		m, fine := dd.New(n), dd.NewWithTolerance(n, 1e-15)
		macs := map[*dd.MNode]int64{}
		checked := 0
		forEachPlacement(n, min(n, Width), func(qs []int) {
			for _, g := range libraryGates(rng, qs) {
				b := Of(&g)
				name := fmt.Sprintf("n=%d %s t%v c%v", n, g.Name, g.Targets, g.Controls)
				if b == nil {
					t.Fatalf("%s: no block", name)
				}
				if got, want := b.MACs(n), dd.MACCountNode(ddsim.BuildGateDD(m, n, &g).N, macs); got != want {
					t.Fatalf("%s: K1 = %d, the DD counts %d", name, got, want)
				}
				want := readBlock(ddsim.BuildGateDD(fine, n, &g), b.Qubits)
				for i := range want {
					if cmplx.Abs(b.U[i]-want[i]) > 1e-14 {
						t.Fatalf("%s: entry (%d, %d) is %v, the DD reads %v", name, i>>len(b.Qubits), i&(1<<len(b.Qubits)-1), b.U[i], want[i])
					}
				}
				checked++
			}
			m.Collect(dd.Roots{})
			fine.Collect(dd.Roots{})
		})
		if checked == 0 {
			t.Fatalf("n=%d: no gate checked", n)
		}
	}
	ctrls := make([]int, Width)
	for i := range ctrls {
		ctrls[i] = i + 1
	}
	if wide := circuit.MCX(ctrls, 0); Of(&wide) != nil {
		t.Fatalf("a gate on %d qubits got a block", Width+1)
	}
}

// TestMulWiderThanWidthPanics pins the cap: a product wider than Width is
// a caller error.
func TestMulWiderThanWidthPanics(t *testing.T) {
	var gs []*Block
	for q := 0; q <= Width; q++ {
		g := circuit.H(q)
		gs = append(gs, Of(&g))
	}
	p := gs[0]
	for _, g := range gs[1:Width] {
		p = Mul(g, p)
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("a product on %d qubits did not panic", Width+1)
		}
	}()
	Mul(gs[Width], p)
}

// fuzzBlock draws a block from data: its qubits (distinct, below n) and
// entries whose parts are multiples of 1/16 in [−1, 1], so that every
// product and sum of two blocks is exact in floating point.
func fuzzBlock(data []byte, n int) (*Block, []byte) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		x := int(data[0])
		data = data[1:]
		return x
	}
	b := &Block{}
	b.Qubits = b.q[:0]
	for k := 1 + next()%Width; len(b.Qubits) < k; {
		q := next() % n
		dup := false
		for _, p := range b.Qubits {
			dup = dup || p == q
		}
		if dup {
			if len(data) == 0 {
				break
			}
			continue
		}
		b.Qubits = append(b.Qubits, q)
	}
	for i := 1; i < len(b.Qubits); i++ {
		for j := i; j > 0 && b.Qubits[j] < b.Qubits[j-1]; j-- {
			b.Qubits[j], b.Qubits[j-1] = b.Qubits[j-1], b.Qubits[j]
		}
	}
	d := 1 << len(b.Qubits)
	b.U = make([]complex128, d*d)
	for i := range b.U {
		b.U[i] = complex(float64(next()%33-16)/16, float64(next()%33-16)/16)
	}
	b.snap()
	return b, data
}

// FuzzComposeBlocks pins Mul to DD matrix-matrix multiplication: the dense
// product of two random blocks equals dd.Manager.MulMM of their DDs, read
// back over the product's support, within 1e-12. The DDs are built at
// tolerance 1e-15, below which cnum's grid cannot move an entry by 1e-12.
func FuzzComposeBlocks(f *testing.F) {
	seed := binary.LittleEndian.AppendUint64(nil, 0x0123456789abcdef)
	f.Add(byte(5), append(seed, seed...))
	f.Add(byte(3), []byte{2, 0, 1, 2, 200, 17, 3})
	f.Add(byte(4), []byte{1, 3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 1, 2, 0})
	f.Fuzz(func(t *testing.T, nb byte, data []byte) {
		n := Width + int(nb)%3
		a, rest := fuzzBlock(data, n)
		b, _ := fuzzBlock(rest, n)
		union := a.Support() | b.Support()
		if bits.OnesCount64(union) > Width {
			return
		}
		p := Mul(a, b)
		if p.Support() != union {
			t.Fatalf("product support %b, want %b", p.Support(), union)
		}
		m := dd.NewWithTolerance(n, 1e-15)
		want := readBlock(m.MulMM(a.DD(m, n), b.DD(m, n)), p.Qubits)
		for i := range want {
			if cmplx.Abs(p.U[i]-want[i]) > 1e-12 {
				t.Fatalf("%v·%v over %v: entry %d is %v, MulMM gives %v", a.Qubits, b.Qubits, p.Qubits, i, p.U[i], want[i])
			}
		}
		nnz := 0
		for _, u := range want {
			if u != 0 {
				nnz++
			}
		}
		if p.nnz != nnz {
			t.Fatalf("%v·%v: %d nonzero entries, MulMM has %d", a.Qubits, b.Qubits, p.nnz, nnz)
		}
	})
}
