package fusion

import (
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"
	"slices"
	"testing"

	"flatdd/internal/block"
	"flatdd/internal/circuit"
	"flatdd/internal/dd"
	"flatdd/internal/ddsim"
	"flatdd/internal/dmav"
	"flatdd/internal/workloads"
)

const eps = 1e-9

func approx(a, b complex128) bool { return cmplx.Abs(a-b) < eps }

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

func gateDDs(m *dd.Manager, c *circuit.Circuit) []dd.MEdge {
	out := make([]dd.MEdge, len(c.Gates))
	for i := range c.Gates {
		out[i] = ddsim.BuildGateDD(m, c.Qubits, &c.Gates[i])
	}
	return out
}

// applySeq multiplies a vector through a gate-DD sequence with DMAV.
func applySeq(m *dd.Manager, n int, gates []dd.MEdge, v []complex128) []complex128 {
	e := dmav.New(m, n, 2, dmav.Auto)
	cur := append([]complex128(nil), v...)
	next := make([]complex128, len(v))
	for _, g := range gates {
		e.Apply(g, cur, next)
		cur, next = next, cur
	}
	return cur
}

func randomCircuit(rng *rand.Rand, n, gates int) *circuit.Circuit {
	c := circuit.New("rand", n)
	for len(c.Gates) < gates {
		switch rng.Intn(5) {
		case 0:
			c.Append(circuit.H(rng.Intn(n)))
		case 1:
			c.Append(circuit.RZ(rng.NormFloat64(), rng.Intn(n)))
		case 2:
			c.Append(circuit.RY(rng.NormFloat64(), rng.Intn(n)))
		case 3:
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				c.Append(circuit.CX(a, b))
			}
		default:
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				c.Append(circuit.CZ(a, b))
			}
		}
	}
	return c
}

func costFn(m *dd.Manager, n int) CostFunc {
	e := dmav.New(m, n, 2, dmav.Auto)
	return func(g dd.MEdge) float64 { return e.EvaluateCost(g).Cost() }
}

func TestFusePreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 6; trial++ {
		n := 3 + rng.Intn(4)
		m := dd.New(n)
		c := randomCircuit(rng, n, 30)
		gates := gateDDs(m, c)
		res := Fuse(m, gates, costFn(m, n))
		v := randAmps(rng, n)
		want := applySeq(m, n, gates, v)
		got := applySeq(m, n, res.Gates, v)
		for i := range want {
			if !approx(got[i], want[i]) {
				t.Fatalf("trial %d: fused sequence diverges at %d: %v vs %v", trial, i, got[i], want[i])
			}
		}
		if len(res.Gates) > len(gates) {
			t.Fatalf("fusion grew the sequence: %d -> %d", len(gates), len(res.Gates))
		}
	}
}

func TestFuseMergesDiagonalGates(t *testing.T) {
	// A run of RZ/CZ diagonal gates on block.Width qubits of a wider
	// register fuses into one matrix: the product of diagonals is diagonal
	// with the same MAC count as one gate. A diagonal gate on one more
	// qubit would widen the product past the cap, so it starts a new one.
	n := 6
	qs := []int{1, 3, 4, 0, 2}[:block.Width]
	m := dd.New(n)
	c := circuit.New("diag", n)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20; i++ {
		if i%3 == 2 {
			a := rng.Intn(len(qs))
			c.Append(circuit.CZ(qs[a], qs[(a+1)%len(qs)]))
		} else {
			c.Append(circuit.RZ(rng.NormFloat64(), qs[rng.Intn(len(qs))]))
		}
	}
	c.Append(circuit.RZ(0.3, 5))
	gates := gateDDs(m, c)
	res := Fuse(m, gates, costFn(m, n))
	if len(res.Gates) != 2 || res.Runs[0] != 20 {
		t.Fatalf("20 diagonal gates on %v and one on qubit 5 fused into %d matrices (runs %v), want 2 (20, 1)",
			qs, len(res.Gates), res.Runs)
	}
	if res.CostAfter >= res.CostBefore {
		t.Fatalf("fusion did not reduce cost: %v -> %v", res.CostBefore, res.CostAfter)
	}
	if res.Fusions != 19 {
		t.Fatalf("fusions = %d, want 19", res.Fusions)
	}
}

func TestFuseAvoidsHarmfulFusion(t *testing.T) {
	// Hadamards on all qubits: each H(q) has 2^(n+1) MACs, and fusing two
	// of them gives a 4·2^n-MAC block, a tie with running them apart.
	// Ties do not merge, and the supports are disjoint, so Algorithm 3
	// must keep all n gates and never multiply.
	n := 8
	m := dd.New(n)
	c := circuit.New("hwall", n)
	for q := 0; q < n; q++ {
		c.Append(circuit.H(q))
	}
	gates := gateDDs(m, c)
	nodes := m.NodeCount()
	res := Fuse(m, gates, costFn(m, n))
	if len(res.Gates) != n || res.Fusions != 0 {
		t.Fatalf("%d disjoint H gates became %d gates with %d fusions, want %d and 0", n, len(res.Gates), res.Fusions, n)
	}
	if res.CostAfter != res.CostBefore {
		t.Fatalf("cost moved without a fusion: %v -> %v", res.CostBefore, res.CostAfter)
	}
	if got := m.NodeCount(); got != nodes {
		t.Fatalf("Fuse built %d nodes for merges it could rule out", got-nodes)
	}
}

func TestFuseTieRule(t *testing.T) {
	const n = 4
	for _, tc := range []struct {
		name  string
		gates []circuit.Gate
		merge bool
	}{
		{"U3·RY on one qubit", []circuit.Gate{circuit.U3(0.3, 0.2, 0.1, 1), circuit.RY(0.7, 1)}, true},
		{"U3·CX sharing a qubit", []circuit.Gate{circuit.U3(0.3, 0.2, 0.1, 1), circuit.CX(1, 2)}, true},
		{"U3·U3 on two qubits", []circuit.Gate{circuit.U3(0.3, 0.2, 0.1, 0), circuit.U3(0.4, 0.5, 0.6, 1)}, false},
	} {
		m := dd.New(n)
		c := circuit.New(tc.name, n)
		c.Append(tc.gates...)
		res := Fuse(m, gateDDs(m, c), MACCost())
		if merged := res.Fusions == 1 && len(res.Gates) == 1; merged != tc.merge {
			t.Errorf("%s: %d gates, %d fusions; want merged=%v", tc.name, len(res.Gates), res.Fusions, tc.merge)
		}
	}
}

// fuseAlwaysMultiply is Algorithm 3 without the disjoint-support skip: it
// multiplies every candidate within the width cap and keeps the product on
// a strict win.
func fuseAlwaysMultiply(m *dd.Manager, G []dd.MEdge, cost CostFunc) Result[dd.MEdge] {
	var res Result[dd.MEdge]
	sup := map[*dd.MNode]uint64{}
	mp, cp := G[0], cost(G[0])
	for _, mi := range G[1:] {
		ci := cost(mi)
		if bits.OnesCount64(dd.SupportNode(mi.N, sup)|dd.SupportNode(mp.N, sup)) > block.Width {
			res.Gates = append(res.Gates, mp)
			mp, cp = mi, ci
			continue
		}
		mip := m.MulMM(mi, mp)
		if cip := cost(mip); cip < ci+cp {
			mp, cp = mip, cip
			res.Fusions++
			continue
		}
		res.Gates = append(res.Gates, mp)
		mp, cp = mi, ci
	}
	res.Gates = append(res.Gates, mp)
	return res
}

// boundCircuit draws the gate mix the skip's bound must hold on: dense
// and diagonal single-qubit gates, positive and negative controls, and a
// two-qubit diagonal.
func boundCircuit(rng *rand.Rand, n, gates int) *circuit.Circuit {
	c := circuit.New("bound", n)
	for len(c.Gates) < gates {
		a, b := rng.Intn(n), rng.Intn(n)
		switch rng.Intn(8) {
		case 0:
			c.Append(circuit.U3(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), a))
		case 1:
			c.Append(circuit.RY(rng.NormFloat64(), a))
		case 2:
			c.Append(circuit.RZ(rng.NormFloat64(), a))
		case 3:
			c.Append(circuit.H(a))
		case 4:
			if a != b {
				c.Append(circuit.CX(a, b))
			}
		case 5:
			if a != b {
				c.Append(circuit.CZ(a, b))
			}
		case 6:
			if a != b {
				g := circuit.CRY(rng.NormFloat64(), a, b)
				g.Controls[0].Negative = true
				c.Append(g)
			}
		default:
			if a != b {
				c.Append(circuit.RZZ(rng.NormFloat64(), a, b))
			}
		}
	}
	return c
}

func TestFuseSkipNeverDeclinesAWinningMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 24; trial++ {
		n := 3 + trial%6
		m := dd.New(n)
		gates := gateDDs(m, boundCircuit(rng, n, 40))
		cost := MACCost()
		got := Fuse(m, gates, cost)
		want := fuseAlwaysMultiply(m, gates, cost)
		if got.Fusions != want.Fusions || len(got.Gates) != len(want.Gates) {
			t.Fatalf("trial %d (n=%d): %d gates / %d fusions, reference %d / %d",
				trial, n, len(got.Gates), got.Fusions, len(want.Gates), want.Fusions)
		}
		for i := range want.Gates {
			if got.Gates[i] != want.Gates[i] {
				t.Fatalf("trial %d (n=%d): gate %d differs from the reference", trial, n, i)
			}
		}
	}
}

func TestFuseEmptyAndSingle(t *testing.T) {
	m := dd.New(3)
	res := Fuse(m, nil, costFn(m, 3))
	if len(res.Gates) != 0 {
		t.Fatal("empty input produced gates")
	}
	g := circuit.H(1)
	one := []dd.MEdge{ddsim.BuildGateDD(m, 3, &g)}
	res = Fuse(m, one, costFn(m, 3))
	if len(res.Gates) != 1 || res.Gates[0] != one[0] {
		t.Fatal("single gate not passed through")
	}
	if res.Fusions != 0 {
		t.Fatal("single gate counted a fusion")
	}
}

func TestKOperationsPreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n := 5
	m := dd.New(n)
	c := randomCircuit(rng, n, 23) // not a multiple of k: tail block
	gates := gateDDs(m, c)
	for _, k := range []int{1, 2, 4, 7} {
		res := KOperations(m, gates, k, costFn(m, n))
		wantLen := (len(gates) + k - 1) / k
		if len(res.Gates) != wantLen {
			t.Fatalf("k=%d: %d fused gates, want %d", k, len(res.Gates), wantLen)
		}
		v := randAmps(rng, n)
		want := applySeq(m, n, gates, v)
		got := applySeq(m, n, res.Gates, v)
		for i := range want {
			if !approx(got[i], want[i]) {
				t.Fatalf("k=%d diverges at %d", k, i)
			}
		}
	}
}

func TestKOperationsBadK(t *testing.T) {
	m := dd.New(3)
	g := circuit.H(0)
	gates := []dd.MEdge{ddsim.BuildGateDD(m, 3, &g)}
	res := KOperations(m, gates, 0, costFn(m, 3))
	if len(res.Gates) != 1 {
		t.Fatal("k=0 not clamped")
	}
}

func TestFuseBeatsKOperationsOnMixedCircuit(t *testing.T) {
	// The DMAV-aware criterion should never end up with higher modeled
	// cost than blind k-operations fusion on the same circuit (it can
	// decline exactly the merges that hurt).
	rng := rand.New(rand.NewSource(40))
	n := 7
	m := dd.New(n)
	c := randomCircuit(rng, n, 60)
	gates := gateDDs(m, c)
	cf := costFn(m, n)
	aware := Fuse(m, gates, cf)
	kops := KOperations(m, gates, 4, cf)
	if aware.CostAfter > kops.CostAfter*1.05 {
		t.Fatalf("DMAV-aware fusion cost %v worse than k-operations %v", aware.CostAfter, kops.CostAfter)
	}
}

// dmavGates returns the DMAV-phase form of c's gates, as core builds it:
// a block for a gate on at most block.Width qubits, a DD otherwise.
func dmavGates(m *dd.Manager, c *circuit.Circuit) []Gate {
	out := make([]Gate, len(c.Gates))
	for i := range c.Gates {
		if b := block.Of(&c.Gates[i]); b != nil {
			out[i] = Gate{Block: b}
		} else {
			out[i] = Gate{DD: ddsim.BuildGateDD(m, c.Qubits, &c.Gates[i])}
		}
	}
	return out
}

// TestFuseGatesPlanEqualsDDFuse pins the block walk to the DD one: at the
// same width cap and cost (K1), FuseGates over dense blocks merges the
// same runs of gates as Fuse over gate DDs, and prices them the same.
func TestFuseGatesPlanEqualsDDFuse(t *testing.T) {
	for _, fam := range []string{"supremacy", "dnn", "qv"} {
		for _, n := range []int{6, 9, 12} {
			for seed := int64(1); seed <= 4; seed++ {
				c, err := workloads.Build(fam, n, seed)
				if err != nil {
					t.Fatal(err)
				}
				m := dd.New(n)
				want := Fuse(m, gateDDs(m, c), MACCost())
				got := FuseGates(n, dmavGates(m, c))
				if got.Fusions != want.Fusions || !slices.Equal(got.Runs, want.Runs) {
					t.Fatalf("%s n=%d seed %d: blocks merge runs %v (%d fusions), DDs %v (%d)",
						fam, n, seed, got.Runs, got.Fusions, want.Runs, want.Fusions)
				}
				if got.CostBefore != want.CostBefore || got.CostAfter != want.CostAfter {
					t.Fatalf("%s n=%d seed %d: block cost %v -> %v, DD cost %v -> %v",
						fam, n, seed, got.CostBefore, got.CostAfter, want.CostBefore, want.CostAfter)
				}
			}
		}
	}
}

// BenchmarkFusePhase is the engine's fuse phase on the benchmark's two
// engine gate lists, both ways: build every gate's DD and run Algorithm 3
// over DDs (dd), or build every gate's block and run it over blocks
// (blocks), which is what core does.
func BenchmarkFusePhase(b *testing.B) {
	for _, w := range []struct {
		family string
		n      int
	}{{"dnn", 15}, {"supremacy", 14}} {
		c, err := workloads.Build(w.family, w.n, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.Name+"/dd", func(b *testing.B) {
			b.ReportAllocs()
			var out int
			for i := 0; i < b.N; i++ {
				m := dd.New(c.Qubits)
				out = len(Fuse(m, gateDDs(m, c), MACCost()).Gates)
			}
			b.ReportMetric(float64(out), "gates_out")
		})
		b.Run(c.Name+"/blocks", func(b *testing.B) {
			b.ReportAllocs()
			var out int
			for i := 0; i < b.N; i++ {
				m := dd.New(c.Qubits)
				out = len(FuseGates(c.Qubits, dmavGates(m, c)).Gates)
			}
			b.ReportMetric(float64(out), "gates_out")
		})
	}
}
