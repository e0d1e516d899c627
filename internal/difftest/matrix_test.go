package difftest

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"flatdd/internal/circuit"
	"flatdd/internal/core"
	"flatdd/internal/dmav"
)

// randomMixed builds a seeded circuit over the gate shapes the DMAV kernel
// distinguishes: dense, diagonal and permutation single-qubit blocks on any
// qubit, controls above and below the target, two-qubit matrices on
// adjacent and distant pairs, and a doubly controlled gate.
func randomMixed(n, gates int, seed int64) *circuit.Circuit {
	rng := rand.New(rand.NewSource(seed))
	c := circuit.New(fmt.Sprintf("mixed-%d", seed), n)
	for q := 0; q < n; q++ {
		c.Append(circuit.H(q)) // leave |0…0> so every amplitude is live
	}
	for len(c.Gates) < gates {
		a, b, d := rng.Intn(n), rng.Intn(n), rng.Intn(n)
		if a == b || a == d || b == d {
			continue
		}
		switch rng.Intn(9) {
		case 0:
			c.Append(circuit.U3(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), a))
		case 1:
			c.Append(circuit.RZ(rng.NormFloat64(), a))
		case 2:
			c.Append(circuit.T(a))
		case 3:
			c.Append(circuit.CX(a, b))
		case 4:
			c.Append(circuit.CZ(a, b))
		case 5:
			c.Append(circuit.CP(rng.NormFloat64(), a, b))
		case 6:
			c.Append(circuit.SWAP(a, b))
		case 7:
			c.Append(circuit.FSim(rng.NormFloat64(), rng.NormFloat64(), a, b))
		default:
			c.Append(circuit.CCX(a, b, d))
		}
	}
	return c
}

// TestKernelPathMatrix generates the engine-configuration matrix — threads
// × cache mode × fusion mode — and pins every point to the state-vector
// oracle at Tol on seeded random circuits. Up to n=14 every gate stays
// under the DMAV inline cutoff (a single-qubit gate reaches it at n=17),
// so the long run adds one n=17 circuit whose gates fork onto the pool;
// internal/dmav's TestKernelOpKinds covers both sides gate by gate.
func TestKernelPathMatrix(t *testing.T) {
	sizes := []struct{ qubits, gates int }{{9, 80}, {14, 120}, {5, 60}, {17, 50}}
	if testing.Short() {
		sizes = sizes[:2]
	}
	for _, sz := range sizes {
		for s := 0; s < 1+*ExtraCircuits; s++ {
			circ := randomMixed(sz.qubits, sz.gates, int64(100*sz.qubits+s))
			want := runStatevec(circ, 1)
			for _, threads := range []int{1, 2, 3} {
				for _, mode := range []dmav.Mode{dmav.Auto, dmav.NeverCache, dmav.AlwaysCache} {
					for _, fuse := range []core.FusionMode{core.NoFusion, core.DMAVAware} {
						name := fmt.Sprintf("n%d-s%d-t%d-%v-%v", sz.qubits, s, threads, mode, fuse)
						sim := core.New(circ.Qubits, core.Options{
							Threads: threads, CacheMode: mode, Fusion: fuse,
							ForceConvertAfter: circ.Qubits, // just past the Hadamard layer
						})
						st, err := sim.RunContext(context.Background(), circ)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if st.ConvertedAtGate < 0 || st.DMAVStats.Gates == 0 {
							t.Fatalf("%s: run never reached the DMAV phase: %+v", name, st)
						}
						if m := compare("statevec", name, want, sim.Amplitudes()); m != nil {
							t.Fatal(m)
						}
					}
				}
			}
		}
	}
}
