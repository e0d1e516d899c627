package dmav

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"flatdd/internal/block"
	"flatdd/internal/circuit"
	"flatdd/internal/dd"
	"flatdd/internal/statevec"
)

// opGates lists, for an n-qubit register, gates that between them reach
// every plan op kind at every depth: a dense single-qubit gate on each
// qubit (every span length, every rep depth, the level-0 leaf), diagonal
// gates, controls above and below the target, adjacent pairs (the 4×4
// block, at the bottom and higher up) and distant pairs. Between them they
// also reach every in-place kind Step runs: diagonal, monomial with and
// without phases, and single-target with and without controls.
func opGates(n int, positions []int) []circuit.Gate {
	var gs []circuit.Gate
	for _, q := range positions {
		gs = append(gs, circuit.U3(0.4, 1.1, -0.7, q), circuit.RZ(0.9, q))
	}
	lo, mid, hi := 0, n/2, n-1
	gs = append(gs,
		circuit.CX(hi, lo), circuit.CX(lo, hi), // control above / below the target
		circuit.CX(mid+1, mid), circuit.CX(1, 0), circuit.CX(0, 1),
		circuit.CZ(hi, mid), circuit.CZ(1, 0),
		circuit.CP(0.6, lo, hi), circuit.CP(0.6, mid, mid-1),
		circuit.SWAP(lo, hi), circuit.SWAP(mid, mid+1), circuit.SWAP(0, 1),
		circuit.FSim(0.5, 0.2, 1, 0), circuit.FSim(0.5, 0.2, hi, hi-1), circuit.FSim(0.5, 0.2, 2, hi-2),
		circuit.FSim(math.Pi/2, 0.2, mid, 0), circuit.CCX(hi, lo, mid),
		circuit.CRY(0.8, hi, lo), circuit.CH(lo, mid),
	)
	return gs
}

// kindsOf collects the op kinds of a compiled plan tree.
func kindsOf(p *plan, seen map[opKind]bool) {
	seen[p.kind] = true
	for _, c := range p.sub {
		if c != nil {
			kindsOf(c, seen)
		}
	}
}

// denseSupport returns a block dense on three qubits, as DMAV-aware fusion
// composes it from a U3 on each qubit and two fSims, and the gates it
// multiplies.
func denseSupport(q0, q1, q2 int) (*block.Block, []circuit.Gate) {
	gs := []circuit.Gate{
		circuit.U3(0.3, 0.2, 0.1, q0), circuit.U3(1.3, 0.2, 0.1, q1), circuit.U3(2.3, 0.2, 0.1, q2),
		circuit.FSim(0.5, 0.2, q0, q1), circuit.FSim(0.5, 0.2, q1, q2),
	}
	p := block.Of(&gs[0])
	for i := range gs[1:] {
		p = block.Mul(block.Of(&gs[i+1]), p)
	}
	return p, gs
}

// ladder returns the block of a rotation between two CX gates, as
// DMAV-aware fusion composes it from a dnn or supremacy circuit, and the
// gates it multiplies: each row has two nonzero entries, in columns a
// permutation picks, so it runs as butterflies then a move.
func ladder(q0, q1, q2 int) (*block.Block, []circuit.Gate) {
	gs := []circuit.Gate{circuit.CX(q0, q1), circuit.RY(0.3, q1), circuit.CX(q1, q2)}
	p := block.Of(&gs[0])
	for i := range gs[1:] {
		p = block.Mul(block.Of(&gs[i+1]), p)
	}
	return p, gs
}

// TestKernelOpKinds pins the span kernel, Step and StepBlock's in-place
// kinds to the statevec oracle gate by gate: every targeted gate as a DD
// through Apply and Step and as a block through StepBlock, a block dense
// on three qubits, and a dense fused DD, under every cache mode and thread
// count, at n=10 (narrow gates run on the caller, the fused DD forks when
// threads > 1) and n=18 (every gate forks when threads > 1). Whether a
// gate forks follows from its planned work and inlineBelowMACs.
func TestKernelOpKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, n := range []int{10, 18} {
		positions := make([]int, n)
		for q := range positions {
			positions[q] = q
		}
		if n == 18 && testing.Short() {
			positions = []int{0, 1, n / 2, n - 1}
		}
		m := dd.New(n)
		V := randAmps(rng, n)
		W := make([]complex128, len(V))

		type testCase struct {
			name string
			M    dd.MEdge
			b    *block.Block // nil: no block (the fused DD is wider than block.Width)
			want []complex128
		}
		oracle := func(gs ...circuit.Gate) []complex128 {
			sv := statevec.FromAmplitudes(append([]complex128(nil), V...), 2)
			for i := range gs {
				sv.Apply(&gs[i])
			}
			return sv.Amplitudes()
		}
		var cases []testCase
		for _, g := range opGates(n, positions) {
			cases = append(cases, testCase{fmt.Sprintf("%s%v", g.Name, g.Qubits()), gateDD(m, n, g), block.Of(&g), oracle(g)})
		}
		for _, qs := range [][3]int{{0, 1, 2}, {1, n / 2, n - 1}} {
			b, gs := denseSupport(qs[0], qs[1], qs[2])
			cases = append(cases, testCase{fmt.Sprintf("dense%v", qs), b.DD(m, n), b, oracle(gs...)})
			b, gs = ladder(qs[0], qs[1], qs[2])
			cases = append(cases, testCase{fmt.Sprintf("ladder%v", qs), b.DD(m, n), b, oracle(gs...)})
			// CX·CX: a swap and a 4-cycle, rotated in registers.
			gs = []circuit.Gate{circuit.CX(qs[0], qs[1]), circuit.CX(qs[1], qs[2])}
			b = block.Mul(block.Of(&gs[1]), block.Of(&gs[0]))
			cases = append(cases, testCase{fmt.Sprintf("cxcx%v", qs), b.DD(m, n), b, oracle(gs...)})
		}
		fused, gs := fusedAbove(rng, m, n, int64(64)<<uint(n))
		cases = append(cases, testCase{"fused", fused, nil, oracle(gs...)})

		kinds := map[opKind]bool{}
		forked := map[bool]bool{} // by inline
		// In-place kinds; a pairs block counts as ipPairs on one qubit and
		// as ipDense+1 on more (a controlled rotation, fSim).
		ipKinds := map[ipKind]bool{}
		for _, mode := range []Mode{Auto, NeverCache, AlwaysCache} {
			for _, threads := range []int{1, 2, 3} {
				e := New(m, n, threads, mode)
				for _, c := range cases {
					if _, err := e.Apply(c.M, V, W); err != nil {
						t.Fatal(err)
					}
					g := e.gates[c.M.N]
					if want := threads == 1 || e.forkWork(g) < inlineBelowMACs; g.inline != want {
						t.Fatalf("n=%d mode=%v threads=%d %s: inline=%v, want %v", n, mode, threads, c.name, g.inline, want)
					}
					forked[g.inline] = true
					for i := range c.want {
						if !approx(W[i], c.want[i]) {
							t.Fatalf("n=%d mode=%v threads=%d %s: W[%d]=%v want %v",
								n, mode, threads, c.name, i, W[i], c.want[i])
						}
					}
					kindsOf(e.planOf(c.M.N), kinds)

					got, _, err := e.Step(c.M, append([]complex128(nil), V...))
					if err != nil {
						t.Fatal(err)
					}
					for i := range c.want {
						if !approx(got[i], c.want[i]) {
							t.Fatalf("n=%d mode=%v threads=%d %s: Step gives amplitude %d = %v, want %v",
								n, mode, threads, c.name, i, got[i], c.want[i])
						}
					}
					if c.b == nil {
						continue
					}
					got = append(got[:0], V...)
					cost, err := e.StepBlock(c.b, got)
					if err != nil {
						t.Fatal(err)
					}
					if cost.K1 != g.cost.K1 {
						t.Fatalf("n=%d %s: block K1 %d, DD K1 %d", n, c.name, cost.K1, g.cost.K1)
					}
					ip := e.blocks[c.b].ip
					if want := threads == 1 || cost.K1 < inlineBelowMACs; ip.inline != want {
						t.Fatalf("n=%d mode=%v threads=%d %s: in place with inline=%v, want %v", n, mode, threads, c.name, ip.inline, want)
					}
					k := ip.kind
					if k == ipPairs && len(ip.levels) > 1 {
						k = ipDense + 1
					}
					ipKinds[k] = true
					for i := range c.want {
						if !approx(got[i], c.want[i]) {
							t.Fatalf("n=%d mode=%v threads=%d %s: StepBlock gives amplitude %d = %v, want %v",
								n, mode, threads, c.name, i, got[i], c.want[i])
						}
					}
				}
				e.Close()
			}
		}
		if !forked[true] || !forked[false] {
			t.Errorf("n=%d: gates ran inline=%v, want both inline and forked gates", n, forked)
		}
		for k := opSpan; k <= opNode; k++ {
			if !kinds[k] {
				t.Errorf("n=%d: no gate compiled to op kind %d", n, k)
			}
		}
		for k := ipDiag; k <= ipDense+1; k++ {
			if !ipKinds[k] {
				t.Errorf("n=%d: no gate ran in place as kind %d", n, k)
			}
		}
	}
}
