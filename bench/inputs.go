package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"

	"flatdd/internal/circuit"
	"flatdd/internal/core"
	"flatdd/internal/workloads"
)

// engineSpec is one engine workload: four seeded circuits cycled by a
// single closed-loop client through core.New + RunContext + result
// extraction.
type engineSpec struct {
	families []string // cycled to four circuits
	qubits   int
	fusion   core.FusionMode
}

var engineSpecs = map[string]engineSpec{
	"irregular_dmav": {families: []string{"supremacy"}, qubits: 14},
	"fused_deep":     {families: []string{"dnn"}, qubits: 15, fusion: core.DMAVAware},
	"wide_handoff":   {families: []string{"knn", "swaptest"}, qubits: 21},
}

const circuitsPerWorkload = 4

// engineCircuits builds the workload's four circuits. The seed decides
// each circuit's generator seed and nothing else, so the same seed gives
// the same gate streams.
func engineCircuits(spec engineSpec, seed int64) ([]*circuit.Circuit, error) {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*circuit.Circuit, circuitsPerWorkload)
	for i := range out {
		c, err := workloads.Build(spec.families[i%len(spec.families)], spec.qubits, rng.Int63())
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// serveQubits is the register size of every serve_regular job.
const serveQubits = 20

// serveJob is one generated submission with its analytic answer: the
// most probable basis state (as the server renders it: qubit 0 is the
// rightmost character) and that state's probability.
type serveJob struct {
	family    int // index into serveFamilies
	qasm      string
	wantBasis string
	wantProb  float64
}

var serveFamilies = []string{"bv", "ghz_rz", "adder"}

const (
	familyBV = iota
	familyGHZ
	familyAdder
)

func (j serveJob) familyName() string { return serveFamilies[j.family] }

// serveGen hands out the seeded stream of unique serve jobs. The stream
// is a pure function of the seed; which client draws which element
// depends on timing, the set drawn does not.
type serveGen struct {
	mu   sync.Mutex
	rng  *rand.Rand
	n    int
	i    int
	seen map[uint64]bool
}

func newServeGen(seed int64, n int) *serveGen {
	return &serveGen{rng: rand.New(rand.NewSource(seed)), n: n, seen: make(map[uint64]bool)}
}

func (g *serveGen) next() serveJob {
	g.mu.Lock()
	defer g.mu.Unlock()
	fam := g.i % len(serveFamilies)
	g.i++
	switch fam {
	case familyBV:
		return bvJob(g.n, g.unique(g.n-1, 0))
	case familyAdder:
		k := (g.n - 2) / 2
		v := g.unique(2*k, 1)
		return adderJob(g.n, v&(1<<uint(k)-1), v>>uint(k))
	default:
		return ghzJob(g.n, g.rng)
	}
}

// unique draws a fresh value of the given bit width; tag keeps the
// families' value spaces apart in the seen set.
func (g *serveGen) unique(bits int, tag uint64) uint64 {
	for {
		v := uint64(g.rng.Int63()) & (1<<uint(bits) - 1)
		key := v<<1 | tag
		if !g.seen[key] {
			g.seen[key] = true
			return v
		}
	}
}

func qasmHeader(b *strings.Builder, n int) {
	fmt.Fprintf(b, "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[%d];\n", n)
}

func basis(n int, idx uint64) string { return fmt.Sprintf("%0*b", n, idx) }

// bvJob is Bernstein–Vazirani on n-1 data qubits plus an ancilla whose
// final Hadamard returns it to |1>, so the answer is one basis state.
func bvJob(n int, secret uint64) serveJob {
	var b strings.Builder
	qasmHeader(&b, n)
	anc := n - 1
	fmt.Fprintf(&b, "x q[%d];\nh q[%d];\n", anc, anc)
	for q := 0; q < anc; q++ {
		fmt.Fprintf(&b, "h q[%d];\n", q)
	}
	for q := 0; q < anc; q++ {
		if secret>>uint(q)&1 == 1 {
			fmt.Fprintf(&b, "cx q[%d],q[%d];\n", q, anc)
		}
	}
	for q := 0; q <= anc; q++ {
		fmt.Fprintf(&b, "h q[%d];\n", q)
	}
	return serveJob{family: familyBV, qasm: b.String(), wantBasis: basis(n, secret|1<<uint(anc)), wantProb: 1}
}

// ghzJob prepares cos(t/2)|0..0> + sin(t/2)|1..1> with t below pi/2, a
// random RZ on every qubit (phases only) and an X mask, so the most
// probable state is the mask with probability cos^2(t/2).
func ghzJob(n int, rng *rand.Rand) serveJob {
	var b strings.Builder
	qasmHeader(&b, n)
	theta := (0.2 + 0.2*rng.Float64()) * math.Pi
	fmt.Fprintf(&b, "ry(%.17g) q[0];\n", theta)
	for q := 0; q+1 < n; q++ {
		fmt.Fprintf(&b, "cx q[%d],q[%d];\n", q, q+1)
	}
	for q := 0; q < n; q++ {
		fmt.Fprintf(&b, "rz(%.17g) q[%d];\n", 2*math.Pi*rng.Float64(), q)
	}
	mask := uint64(rng.Int63()) & (1<<uint(n) - 1)
	for q := 0; q < n; q++ {
		if mask>>uint(q)&1 == 1 {
			fmt.Fprintf(&b, "x q[%d];\n", q)
		}
	}
	c := math.Cos(theta / 2)
	return serveJob{family: familyGHZ, qasm: b.String(), wantBasis: basis(n, mask), wantProb: c * c}
}

// adderJob is a Cuccaro ripple-carry adder on [cin, a0, b0, a1, b1, ...,
// cout] with k=(n-2)/2 bits per operand; the sum replaces b and cout
// takes the carry.
func adderJob(n int, a, bv uint64) serveJob {
	var b strings.Builder
	qasmHeader(&b, n)
	k := (n - 2) / 2
	qa := func(i int) int { return 1 + 2*i }
	qb := func(i int) int { return 2 + 2*i }
	cout := n - 1
	for i := 0; i < k; i++ {
		if a>>uint(i)&1 == 1 {
			fmt.Fprintf(&b, "x q[%d];\n", qa(i))
		}
		if bv>>uint(i)&1 == 1 {
			fmt.Fprintf(&b, "x q[%d];\n", qb(i))
		}
	}
	maj := func(x, y, z int) {
		fmt.Fprintf(&b, "cx q[%d],q[%d];\ncx q[%d],q[%d];\nccx q[%d],q[%d],q[%d];\n", z, y, z, x, x, y, z)
	}
	uma := func(x, y, z int) {
		fmt.Fprintf(&b, "ccx q[%d],q[%d],q[%d];\ncx q[%d],q[%d];\ncx q[%d],q[%d];\n", x, y, z, z, x, x, y)
	}
	maj(0, qb(0), qa(0))
	for i := 1; i < k; i++ {
		maj(qa(i-1), qb(i), qa(i))
	}
	fmt.Fprintf(&b, "cx q[%d],q[%d];\n", qa(k-1), cout)
	for i := k - 1; i >= 1; i-- {
		uma(qa(i-1), qb(i), qa(i))
	}
	uma(0, qb(0), qa(0))

	sum := a + bv
	var idx uint64
	for i := 0; i < k; i++ {
		idx |= (a >> uint(i) & 1) << uint(qa(i))
		idx |= (sum >> uint(i) & 1) << uint(qb(i))
	}
	idx |= (sum >> uint(k) & 1) << uint(cout)
	return serveJob{family: familyAdder, qasm: b.String(), wantBasis: basis(n, idx), wantProb: 1}
}
