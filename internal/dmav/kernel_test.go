package dmav

import (
	"fmt"
	"math/rand"
	"testing"

	"flatdd/internal/circuit"
	"flatdd/internal/dd"
	"flatdd/internal/statevec"
)

// opGates lists, for an n-qubit register, gates that between them reach
// every plan op kind at every depth: a dense single-qubit gate on each
// qubit (every span length, every rep depth, the level-0 leaf), diagonal
// gates, controls above and below the target, adjacent pairs (the 4×4
// block, at the bottom and higher up) and distant pairs.
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
		circuit.CCX(hi, lo, mid),
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

// TestKernelOpKinds pins the span kernel to the statevec oracle gate by
// gate: every targeted gate and a dense fused block, under every cache
// mode and thread count, at a register below the inline cutoff (n=10,
// every gate runs on the caller) and one above it (n=18, every gate forks
// onto the pool when threads > 1).
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
			cases = append(cases, testCase{fmt.Sprintf("%s%v", g.Name, g.Qubits()), gateDD(m, n, g), oracle(g)})
		}
		fused, gs := fusedAbove(rng, m, n, int64(64)<<uint(n))
		cases = append(cases, testCase{"fused", fused, oracle(gs...)})

		kinds := map[opKind]bool{}
		for _, mode := range []Mode{Auto, NeverCache, AlwaysCache} {
			for _, threads := range []int{1, 2, 3} {
				e := New(m, n, threads, mode)
				for _, c := range cases {
					if _, err := e.Apply(c.M, V, W); err != nil {
						t.Fatal(err)
					}
					if inline := e.gates[c.M.N].inline; inline != (n == 10 || threads == 1) {
						t.Fatalf("n=%d mode=%v threads=%d %s: inline=%v", n, mode, threads, c.name, inline)
					}
					for i := range c.want {
						if !approx(W[i], c.want[i]) {
							t.Fatalf("n=%d mode=%v threads=%d %s: W[%d]=%v want %v",
								n, mode, threads, c.name, i, W[i], c.want[i])
						}
					}
					kindsOf(e.planOf(c.M.N), kinds)
				}
				e.Close()
			}
		}
		for k := opSpan; k <= opNode; k++ {
			if !kinds[k] {
				t.Errorf("n=%d: no gate compiled to op kind %d", n, k)
			}
		}
	}
}
