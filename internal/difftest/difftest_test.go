package difftest

import (
	"fmt"
	"testing"
)

// TestCrossEngineDifferential is the headline differential suite: seeded
// random Clifford+T circuits through ddsim, statevec, pure DMAV, and the
// hybrid pipeline, compared amplitude-by-amplitude at Tol. The short
// default runs a handful of (qubits, threads) configurations; raise the
// circuit count with -difftest.n.
func TestCrossEngineDifferential(t *testing.T) {
	type cfg struct {
		qubits, gates, threads int
	}
	cfgs := []cfg{
		{qubits: 5, gates: 40, threads: 1},
		{qubits: 6, gates: 50, threads: 3}, // deliberately not a power of two
		{qubits: 7, gates: 60, threads: 4},
		// A larger register with an odd thread count: its single-qubit
		// gates fork onto the pool. (TestKernelPathMatrix drives every
		// pooled path.)
		{qubits: 12, gates: 30, threads: 3},
	}
	circuits := 2 + *ExtraCircuits
	for _, c := range cfgs {
		c := c
		name := fmt.Sprintf("n%d-g%d-t%d", c.qubits, c.gates, c.threads)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for s := 0; s < circuits; s++ {
				seed := int64(1000*c.qubits + 10*c.threads + s)
				circ := RandomCliffordT(c.qubits, c.gates, seed)
				if err := Check(circ, c.threads); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		})
	}
}

// TestSingleQubit covers the n=1 edge case, where the two-qubit branch of
// the generator must fall back to a single-qubit gate.
func TestSingleQubit(t *testing.T) {
	circ := RandomCliffordT(1, 30, 7)
	if circ.Qubits != 1 || len(circ.Gates) != 30 {
		t.Fatalf("generator produced %d qubits, %d gates; want 1, 30", circ.Qubits, len(circ.Gates))
	}
	if err := Check(circ, 2); err != nil {
		t.Fatal(err)
	}
}

// TestGeneratorDeterministic pins the seeding contract: the same seed
// must yield the same circuit, and different seeds should differ.
func TestGeneratorDeterministic(t *testing.T) {
	a := RandomCliffordT(5, 50, 42)
	b := RandomCliffordT(5, 50, 42)
	if len(a.Gates) != len(b.Gates) {
		t.Fatalf("same seed gave %d and %d gates", len(a.Gates), len(b.Gates))
	}
	for i := range a.Gates {
		if a.Gates[i].Name != b.Gates[i].Name {
			t.Fatalf("same seed diverged at gate %d: %s vs %s", i, a.Gates[i].Name, b.Gates[i].Name)
		}
	}
	c := RandomCliffordT(5, 50, 43)
	same := true
	for i := range a.Gates {
		if a.Gates[i].Name != c.Gates[i].Name {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 produced identical gate sequences")
	}
}

// TestMismatchReported ensures the comparison actually detects
// disagreement (guards against a vacuously-green suite).
func TestMismatchReported(t *testing.T) {
	a := []complex128{1, 0}
	b := []complex128{1, 1e-6}
	if m := compare("a", "b", a, b); m == nil {
		t.Fatal("compare missed a 1e-6 disagreement")
	} else if m.Index != 1 {
		t.Fatalf("mismatch at index %d, want 1", m.Index)
	}
	if m := compare("a", "b", a, []complex128{1}); m == nil {
		t.Fatal("compare missed a length mismatch")
	}
}
