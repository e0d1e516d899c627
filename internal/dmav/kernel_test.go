package dmav

import (
	"fmt"
	"math"
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

// TestKernelOpKinds pins the span kernel and Step's in-place path to the
// statevec oracle gate by gate: every targeted gate and a dense fused
// block, under every cache mode and thread count, at a register below the
// inline cutoff (n=10, every gate runs on the caller) and one above it
// (n=18, every gate forks onto the pool when threads > 1).
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
		// In-place kinds; a single-target gate counts as ipSingle without
		// controls and as ipSingle+1 with them.
		ipKinds := map[ipKind]bool{}
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

					got, _, err := e.Step(c.M, append([]complex128(nil), V...))
					if err != nil {
						t.Fatal(err)
					}
					if ip := e.gates[c.M.N].ip; ip != nil {
						if ip.inline != (n == 10 || threads == 1) {
							t.Fatalf("n=%d mode=%v threads=%d %s: in place with inline=%v", n, mode, threads, c.name, ip.inline)
						}
						k := ip.kind
						if k == ipSingle && len(ip.levels) > 1 {
							k++
						}
						ipKinds[k] = true
					}
					for i := range c.want {
						if !approx(got[i], c.want[i]) {
							t.Fatalf("n=%d mode=%v threads=%d %s: Step gives amplitude %d = %v, want %v",
								n, mode, threads, c.name, i, got[i], c.want[i])
						}
					}
				}
				e.Close()
			}
		}
		for k := opSpan; k <= opNode; k++ {
			if !kinds[k] {
				t.Errorf("n=%d: no gate compiled to op kind %d", n, k)
			}
		}
		for k := ipDiag; k <= ipSingle+1; k++ {
			if !ipKinds[k] {
				t.Errorf("n=%d: no gate ran in place as kind %d", n, k)
			}
		}
	}
}
