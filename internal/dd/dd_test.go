package dd

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"flatdd/internal/obs"
)

const eps = 1e-9

var (
	matH = Matrix2{
		{complex(1/math.Sqrt2, 0), complex(1/math.Sqrt2, 0)},
		{complex(1/math.Sqrt2, 0), complex(-1/math.Sqrt2, 0)},
	}
	matX = Matrix2{{0, 1}, {1, 0}}
	matZ = Matrix2{{1, 0}, {0, -1}}
	matS = Matrix2{{1, 0}, {0, 1i}}
	matT = Matrix2{{1, 0}, {0, cmplx.Exp(1i * math.Pi / 4)}}
)

func approx(a, b complex128) bool { return cmplx.Abs(a-b) < eps }

// denseMulMV multiplies a dense matrix by a dense vector (test oracle).
func denseMulMV(m [][]complex128, v []complex128) []complex128 {
	out := make([]complex128, len(v))
	for i := range m {
		var s complex128
		for j := range v {
			s += m[i][j] * v[j]
		}
		out[i] = s
	}
	return out
}

func denseMulMM(a, b [][]complex128) [][]complex128 {
	n := len(a)
	out := make([][]complex128, n)
	for i := range out {
		out[i] = make([]complex128, n)
		for j := 0; j < n; j++ {
			var s complex128
			for k := 0; k < n; k++ {
				s += a[i][k] * b[k][j]
			}
			out[i][j] = s
		}
	}
	return out
}

func randAmps(rng *rand.Rand, n int) []complex128 {
	amps := make([]complex128, 1<<uint(n))
	var norm float64
	for i := range amps {
		amps[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		norm += real(amps[i])*real(amps[i]) + imag(amps[i])*imag(amps[i])
	}
	norm = math.Sqrt(norm)
	for i := range amps {
		amps[i] /= complex(norm, 0)
	}
	return amps
}

// sparseRandAmps returns a normalized vector with only a few nonzeros, to
// exercise zero-edge paths.
func sparseRandAmps(rng *rand.Rand, n, nnz int) []complex128 {
	amps := make([]complex128, 1<<uint(n))
	for k := 0; k < nnz; k++ {
		amps[rng.Intn(len(amps))] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	var norm float64
	for i := range amps {
		norm += real(amps[i])*real(amps[i]) + imag(amps[i])*imag(amps[i])
	}
	if norm == 0 {
		amps[0] = 1
		norm = 1
	}
	norm = math.Sqrt(norm)
	for i := range amps {
		amps[i] /= complex(norm, 0)
	}
	return amps
}

func TestBasisStateAmplitudes(t *testing.T) {
	m := New(4)
	for idx := uint64(0); idx < 16; idx++ {
		e := m.BasisState(4, idx)
		for j := uint64(0); j < 16; j++ {
			want := complex128(0)
			if j == idx {
				want = 1
			}
			if got := m.Amplitude(e, 4, j); !approx(got, want) {
				t.Fatalf("basis %d amplitude %d = %v, want %v", idx, j, got, want)
			}
		}
	}
}

func TestBasisStatesShareNodes(t *testing.T) {
	m := New(8)
	a := m.ZeroState(8)
	b := m.BasisState(8, 0)
	if a.N != b.N || a.W != b.W {
		t.Fatal("identical basis states are not pointer-equal (canonicity broken)")
	}
}

func TestVectorRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 1; n <= 8; n++ {
		m := New(n)
		amps := randAmps(rng, n)
		e := m.VectorFromAmplitudes(amps)
		got := m.ToArray(e, n)
		for i := range amps {
			if !approx(got[i], amps[i]) {
				t.Fatalf("n=%d round trip mismatch at %d: %v vs %v", n, i, got[i], amps[i])
			}
			if a := m.Amplitude(e, n, uint64(i)); !approx(a, amps[i]) {
				t.Fatalf("n=%d Amplitude(%d) = %v, want %v", n, i, a, amps[i])
			}
		}
	}
}

func TestSparseVectorRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for n := 2; n <= 10; n += 2 {
		m := New(n)
		amps := sparseRandAmps(rng, n, 3)
		e := m.VectorFromAmplitudes(amps)
		got := m.ToArray(e, n)
		for i := range amps {
			if !approx(got[i], amps[i]) {
				t.Fatalf("n=%d sparse round trip mismatch at %d", n, i)
			}
		}
	}
}

func TestVectorCanonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := New(6)
	amps := randAmps(rng, 6)
	e1 := m.VectorFromAmplitudes(amps)
	e2 := m.VectorFromAmplitudes(amps)
	if e1.N != e2.N {
		t.Fatal("same vector built twice yields different nodes")
	}
	if e1.W != e2.W {
		t.Fatalf("same vector built twice yields different weights: %v vs %v", e1.W, e2.W)
	}
	// A globally scaled vector must share the node, differing only in the
	// root weight (normalization pushes scalars to the top).
	scaled := make([]complex128, len(amps))
	for i := range amps {
		scaled[i] = amps[i] * (0.5 - 0.25i)
	}
	e3 := m.VectorFromAmplitudes(scaled)
	if e3.N != e1.N {
		t.Fatal("scaled vector does not share structure")
	}
	if !approx(e3.W, e1.W*(0.5-0.25i)) {
		t.Fatalf("scaled root weight %v, want %v", e3.W, e1.W*(0.5-0.25i))
	}
}

func TestNormInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := New(7)
	amps := randAmps(rng, 7)
	e := m.VectorFromAmplitudes(amps)
	if n := m.Norm(e); math.Abs(n-1) > eps {
		t.Fatalf("norm of normalized vector = %v, want 1", n)
	}
}

func TestHadamardDDMatchesFigure2a(t *testing.T) {
	// Figure 2a: 2-qubit operator H on q1 (identity on q0). Root weight
	// 1/sqrt(2); root children weights 1,1,1,-1 all pointing at the
	// identity node.
	m := New(2)
	e := m.SingleGate(2, matH, 1)
	if !approx(e.W, complex(1/math.Sqrt2, 0)) {
		t.Fatalf("root weight %v, want 1/sqrt2", e.W)
	}
	n := e.N
	wants := [4]complex128{1, 1, 1, -1}
	for i, w := range wants {
		if !approx(n.E[i].W, w) {
			t.Fatalf("child %d weight %v, want %v", i, n.E[i].W, w)
		}
	}
	if n.E[0].N != n.E[1].N || n.E[1].N != n.E[2].N || n.E[2].N != n.E[3].N {
		t.Fatal("children do not share the identity node")
	}
	id := n.E[0].N
	if !approx(id.E[0].W, 1) || !id.E[1].IsZero() || !id.E[2].IsZero() || !approx(id.E[3].W, 1) {
		t.Fatal("inner node is not the 2x2 identity")
	}
	// Check M[0][2] = 1/sqrt2 as computed in the paper.
	if got := m.MatrixEntry(e, 2, 0, 2); !approx(got, complex(1/math.Sqrt2, 0)) {
		t.Fatalf("M[0][2] = %v, want 1/sqrt2", got)
	}
}

func TestSingleGateDense(t *testing.T) {
	m := New(3)
	gates := map[string]Matrix2{"H": matH, "X": matX, "Z": matZ, "S": matS, "T": matT}
	for name, g := range gates {
		for target := 0; target < 3; target++ {
			e := m.SingleGate(3, g, target)
			d := m.ToDense(e, 3)
			for r := 0; r < 8; r++ {
				for c := 0; c < 8; c++ {
					// Dense reference: entry is g[rb][cb] when all other bits
					// agree, else 0.
					rb := r >> uint(target) & 1
					cb := c >> uint(target) & 1
					want := complex128(0)
					if r&^(1<<uint(target)) == c&^(1<<uint(target)) {
						want = g[rb][cb]
					}
					if !approx(d[r][c], want) {
						t.Fatalf("%s target %d entry (%d,%d) = %v, want %v", name, target, r, c, d[r][c], want)
					}
				}
			}
		}
	}
}

func TestControlledGateDense(t *testing.T) {
	m := New(3)
	cases := []struct {
		target   int
		controls []Control
	}{
		{0, []Control{{Qubit: 2}}},
		{2, []Control{{Qubit: 0}}},
		{1, []Control{{Qubit: 0}, {Qubit: 2}}},
		{0, []Control{{Qubit: 1, Negative: true}}},
	}
	for ci, tc := range cases {
		e := m.ControlledGate(3, matX, tc.target, tc.controls)
		d := m.ToDense(e, 3)
		for r := 0; r < 8; r++ {
			for c := 0; c < 8; c++ {
				// Oracle: apply the controlled-X semantics directly.
				trig := true
				for _, ctl := range tc.controls {
					bit := c >> uint(ctl.Qubit) & 1
					if ctl.Negative {
						trig = trig && bit == 0
					} else {
						trig = trig && bit == 1
					}
				}
				want := complex128(0)
				if trig {
					if r == c^1<<uint(tc.target) {
						want = 1
					}
				} else if r == c {
					want = 1
				}
				if !approx(d[r][c], want) {
					t.Fatalf("case %d entry (%d,%d) = %v, want %v", ci, r, c, d[r][c], want)
				}
			}
		}
	}
}

func TestIdentityMulIsNoop(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := New(5)
	v := m.VectorFromAmplitudes(randAmps(rng, 5))
	id := m.Identity(5)
	w := m.MulMV(id, v)
	if w.N != v.N || !approx(w.W, v.W) {
		t.Fatal("identity multiplication changed the vector")
	}
}

func TestMulMVMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for n := 1; n <= 6; n++ {
		m := New(n)
		amps := randAmps(rng, n)
		v := m.VectorFromAmplitudes(amps)
		for trial := 0; trial < 4; trial++ {
			target := rng.Intn(n)
			g := m.SingleGate(n, matH, target)
			gd := m.ToDense(g, n)
			want := denseMulMV(gd, amps)
			got := m.ToArray(m.MulMV(g, v), n)
			for i := range want {
				if !approx(got[i], want[i]) {
					t.Fatalf("n=%d H(%d) result mismatch at %d: %v vs %v", n, target, i, got[i], want[i])
				}
			}
		}
	}
}

func TestMulMMMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for n := 1; n <= 5; n++ {
		m := New(n)
		a := m.SingleGate(n, matH, rng.Intn(n))
		b := m.ControlledGate(n, matX, 0, nil)
		if n > 1 {
			b = m.ControlledGate(n, matX, 0, []Control{{Qubit: n - 1}})
		}
		ab := m.MulMM(a, b)
		want := denseMulMM(m.ToDense(a, n), m.ToDense(b, n))
		got := m.ToDense(ab, n)
		for r := range want {
			for c := range want[r] {
				if !approx(got[r][c], want[r][c]) {
					t.Fatalf("n=%d MM entry (%d,%d): %v vs %v", n, r, c, got[r][c], want[r][c])
				}
			}
		}
	}
}

func TestAddMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	m := New(5)
	a := randAmps(rng, 5)
	b := randAmps(rng, 5)
	ea := m.VectorFromAmplitudes(a)
	eb := m.VectorFromAmplitudes(b)
	sum := m.Add(ea, eb)
	got := m.ToArray(sum, 5)
	for i := range a {
		if !approx(got[i], a[i]+b[i]) {
			t.Fatalf("add mismatch at %d: %v vs %v", i, got[i], a[i]+b[i])
		}
	}
}

func TestAddZeroIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	m := New(4)
	v := m.VectorFromAmplitudes(randAmps(rng, 4))
	z := m.VZeroEdge()
	if got := m.Add(v, z); got != v {
		t.Fatal("v + 0 != v")
	}
	if got := m.Add(z, v); got != v {
		t.Fatal("0 + v != v")
	}
}

func TestMultiQubitGateDense(t *testing.T) {
	// iSWAP on non-adjacent qubits (0, 2) of a 3-qubit register.
	iswap := [][]complex128{
		{1, 0, 0, 0},
		{0, 0, 1i, 0},
		{0, 1i, 0, 0},
		{0, 0, 0, 1},
	}
	m := New(3)
	e := m.MultiQubitGate(3, iswap, []int{0, 2})
	d := m.ToDense(e, 3)
	for r := 0; r < 8; r++ {
		for c := 0; c < 8; c++ {
			// Oracle via bit semantics: qubit order (0,2); gate row index
			// bit0 -> qubit 0, bit1 -> qubit 2.
			ri := r&1 | (r >> 2 & 1 << 1)
			ci := c&1 | (c >> 2 & 1 << 1)
			want := complex128(0)
			if r>>1&1 == c>>1&1 { // spectator qubit 1 must agree
				want = iswap[ri][ci]
			}
			if !approx(d[r][c], want) {
				t.Fatalf("iSWAP entry (%d,%d) = %v, want %v", r, c, d[r][c], want)
			}
		}
	}
}

func TestMACCountFigure8(t *testing.T) {
	// H on the top qubit of 3 has 16 nonzero entries (2 per row over 8
	// rows), reproducing T(m1)=16 from Figure 8.
	m := New(3)
	e := m.SingleGate(3, matH, 2)
	if got := MACCount(e); got != 16 {
		t.Fatalf("MACCount = %d, want 16", got)
	}
	// Identity on n qubits: 2^n nonzero entries.
	for n := 1; n <= 6; n++ {
		if got := MACCount(m.Identity(n)); got != 1<<uint(n) {
			t.Fatalf("MACCount(I_%d) = %d, want %d", n, got, 1<<uint(n))
		}
	}
	if got := MACCount(m.MZeroEdge()); got != 0 {
		t.Fatalf("MACCount(0) = %d, want 0", got)
	}
}

func TestMACCountEqualsDenseNNZ(t *testing.T) {
	m := New(3)
	e := m.ControlledGate(3, matH, 1, []Control{{Qubit: 2}})
	d := m.ToDense(e, 3)
	var nnz int64
	for r := range d {
		for c := range d[r] {
			if cmplx.Abs(d[r][c]) > eps {
				nnz++
			}
		}
	}
	if got := MACCount(e); got != nnz {
		t.Fatalf("MACCount = %d, dense nnz = %d", got, nnz)
	}
}

func TestNNZVector(t *testing.T) {
	m := New(4)
	if got := NNZ(m.BasisState(4, 5)); got != 1 {
		t.Fatalf("NNZ basis = %d, want 1", got)
	}
	if got := NNZ(m.VZeroEdge()); got != 0 {
		t.Fatalf("NNZ zero = %d, want 0", got)
	}
	// Uniform superposition: all 16 entries nonzero.
	amps := make([]complex128, 16)
	for i := range amps {
		amps[i] = 0.25
	}
	if got := NNZ(m.VectorFromAmplitudes(amps)); got != 16 {
		t.Fatalf("NNZ uniform = %d, want 16", got)
	}
}

func TestVSizeRegularVsIrregular(t *testing.T) {
	m := New(10)
	// GHZ-like and uniform states have O(n) nodes.
	uniform := make([]complex128, 1024)
	for i := range uniform {
		uniform[i] = complex(1.0/32, 0)
	}
	regular := m.VSize(m.VectorFromAmplitudes(uniform))
	if regular != 10 {
		t.Fatalf("uniform state size = %d, want 10", regular)
	}
	// A random state needs close to 2^n nodes.
	rng := rand.New(rand.NewSource(23))
	irregular := m.VSize(m.VectorFromAmplitudes(randAmps(rng, 10)))
	if irregular < 500 {
		t.Fatalf("random state size = %d, expected near-maximal", irregular)
	}
}

func TestInnerProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	m := New(5)
	a := randAmps(rng, 5)
	b := randAmps(rng, 5)
	ea := m.VectorFromAmplitudes(a)
	eb := m.VectorFromAmplitudes(b)
	var want complex128
	for i := range a {
		want += cmplx.Conj(a[i]) * b[i]
	}
	if got := m.InnerProduct(ea, eb, 5); !approx(got, want) {
		t.Fatalf("inner product %v, want %v", got, want)
	}
	if got := m.InnerProduct(ea, ea, 5); !approx(got, 1) {
		t.Fatalf("<a|a> = %v, want 1", got)
	}
}

func TestConjTransposeMatchesDense(t *testing.T) {
	m := New(3)
	e := m.ControlledGate(3, matS, 1, []Control{{Qubit: 2}})
	d := m.ToDense(e, 3)
	dt := m.ToDense(m.ConjTranspose(e), 3)
	for r := 0; r < 8; r++ {
		for c := 0; c < 8; c++ {
			if !approx(dt[r][c], cmplx.Conj(d[c][r])) {
				t.Fatalf("dagger entry (%d,%d): %v vs %v", r, c, dt[r][c], cmplx.Conj(d[c][r]))
			}
		}
	}
}

func TestConjTransposeInvolution(t *testing.T) {
	m := New(4)
	e := m.SingleGate(4, matT, 2)
	dd := m.ConjTranspose(m.ConjTranspose(e))
	if dd.N != e.N || !approx(dd.W, e.W) {
		t.Fatal("dagger twice is not the identity operation")
	}
}

func TestUnitaryDaggerIsInverse(t *testing.T) {
	m := New(3)
	u := m.ControlledGate(3, matH, 0, []Control{{Qubit: 1}})
	prod := m.MulMM(m.ConjTranspose(u), u)
	id := m.Identity(3)
	if prod.N != id.N || !approx(prod.W, id.W) {
		t.Fatal("U†·U is not the identity")
	}
}

func TestGCPreservesRoots(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	m := New(6)
	keep := m.VectorFromAmplitudes(randAmps(rng, 6))
	for i := 0; i < 10; i++ {
		m.VectorFromAmplitudes(randAmps(rng, 6)) // garbage
	}
	before := m.NodeCount()
	wantArr := m.ToArray(keep, 6)
	removed := m.Collect(Roots{V: []VEdge{keep}})
	if removed == 0 {
		t.Fatal("GC removed nothing despite garbage")
	}
	if m.NodeCount() >= before {
		t.Fatal("node count did not shrink")
	}
	got := m.ToArray(keep, 6)
	for i := range wantArr {
		if !approx(got[i], wantArr[i]) {
			t.Fatalf("GC corrupted kept vector at %d", i)
		}
	}
	// Rebuild the same vector: must re-canonicalize onto the kept nodes.
	again := m.VectorFromAmplitudes(got)
	if again.N != keep.N {
		t.Fatal("rebuild after GC did not hash-cons onto surviving nodes")
	}
}

func TestCollectIfNeededThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	m := New(6)
	m.SetGCThreshold(1 << 30)
	m.VectorFromAmplitudes(randAmps(rng, 6))
	if removed := m.CollectIfNeeded(Roots{}); removed != 0 {
		t.Fatal("collection ran below threshold")
	}
	m.SetGCThreshold(1)
	if removed := m.CollectIfNeeded(Roots{}); removed == 0 {
		t.Fatal("collection did not run above threshold")
	}
}

func TestUnitaryPreservesNormProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(5)
		m := New(n)
		v := m.VectorFromAmplitudes(randAmps(rng, n))
		// Apply a random sequence of unitaries.
		for g := 0; g < 8; g++ {
			var e MEdge
			switch rng.Intn(4) {
			case 0:
				e = m.SingleGate(n, matH, rng.Intn(n))
			case 1:
				e = m.SingleGate(n, matT, rng.Intn(n))
			case 2:
				e = m.SingleGate(n, matX, rng.Intn(n))
			default:
				tq := rng.Intn(n)
				cq := rng.Intn(n)
				if cq == tq {
					cq = (cq + 1) % n
				}
				if n == 1 {
					e = m.SingleGate(n, matX, 0)
				} else {
					e = m.ControlledGate(n, matX, tq, []Control{{Qubit: cq}})
				}
			}
			v = m.MulMV(e, v)
		}
		if norm := m.Norm(v); math.Abs(norm-1) > 1e-7 {
			t.Fatalf("trial %d: norm drifted to %v", trial, norm)
		}
	}
}

func TestComputeTableEffective(t *testing.T) {
	m := New(8)
	v := m.ZeroState(8)
	for q := 0; q < 8; q++ {
		v = m.MulMV(m.SingleGate(8, matH, q), v)
	}
	// Repeat the same work: compute tables should hit.
	v2 := m.ZeroState(8)
	for q := 0; q < 8; q++ {
		v2 = m.MulMV(m.SingleGate(8, matH, q), v2)
	}
	if v2.N != v.N {
		t.Fatal("repeated computation not canonical")
	}
	_, hits := m.ComputeTableStats()
	if hits == 0 {
		t.Fatal("compute tables never hit")
	}
}

// TestComputeTableStatsSurviveCollect pins ComputeTableStats as lifetime
// totals: a Collect clears the entries but not the counters, so the
// accessor keeps agreeing with the dd.ct.* registry counters.
func TestComputeTableStatsSurviveCollect(t *testing.T) {
	m := New(6)
	reg := obs.New()
	m.SetMetrics(reg)
	v := m.ZeroState(6)
	for round := 0; round < 3; round++ {
		for q := 0; q < 6; q++ {
			v = m.MulMV(m.MulMM(m.SingleGate(6, matH, q), m.SingleGate(6, matT, q)), v)
			v = m.Add(v, v)
		}
		m.Collect(Roots{V: []VEdge{v}})
	}
	lookups, hits := m.ComputeTableStats()
	c := reg.Snapshot().Counters
	var regLookups, regHits int64
	for _, op := range []string{"add", "madd", "mv", "mm"} {
		regLookups += c["dd.ct."+op+".lookups"]
		regHits += c["dd.ct."+op+".hits"]
	}
	if lookups == 0 || hits == 0 {
		t.Fatalf("workload exercised nothing: lookups=%d hits=%d", lookups, hits)
	}
	if int64(lookups) != regLookups || int64(hits) != regHits {
		t.Fatalf("ComputeTableStats = (%d, %d), registry = (%d, %d)", lookups, hits, regLookups, regHits)
	}
}

func TestPanicsOnBadInput(t *testing.T) {
	m := New(3)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("bad target", func() { m.SingleGate(3, matX, 5) })
	mustPanic("control==target", func() { m.ControlledGate(3, matX, 1, []Control{{Qubit: 1}}) })
	mustPanic("bad control", func() { m.ControlledGate(3, matX, 1, []Control{{Qubit: 9}}) })
	mustPanic("bad amp length", func() { m.VectorFromAmplitudes(make([]complex128, 3)) })
	mustPanic("dup qubits", func() {
		m.MultiQubitGate(3, [][]complex128{{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 1, 0}, {0, 0, 0, 1}}, []int{1, 1})
	})
	mustPanic("bad basis index", func() { m.BasisState(2, 7) })
}

func BenchmarkMulMVRegular(b *testing.B) {
	m := New(16)
	v := m.ZeroState(16)
	for q := 0; q < 16; q++ {
		v = m.MulMV(m.SingleGate(16, matH, q), v)
	}
	g := m.SingleGate(16, matH, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulMV(g, v)
	}
}

func BenchmarkVectorFromAmplitudes(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	amps := randAmps(rng, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := New(12)
		m.VectorFromAmplitudes(amps)
	}
}
