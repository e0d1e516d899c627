package core

import (
	"math"
	"testing"

	"flatdd/internal/circuit"
	"flatdd/internal/dd"
	"flatdd/internal/dmav"
	"flatdd/internal/workloads"
)

func TestGateMemoKeysOnMatrixTargetsAndControls(t *testing.T) {
	const n = 3
	m := dd.New(n)
	theta := 1.0
	next := math.Nextafter(theta, 2)
	if a, b := circuit.RZ(theta, 0).U, circuit.RZ(next, 0).U; a[0][0] == b[0][0] && a[1][1] == b[1][1] {
		t.Fatalf("RZ(%v) and RZ(%v) have equal matrices; pick another angle", theta, next)
	}
	negCX := circuit.CX(0, 1)
	negCX.Controls = []circuit.Control{{Qubit: 0, Negative: true}}
	// Each pair differs in one thing only; each must get its own entry.
	for _, tc := range []struct {
		name string
		a, b circuit.Gate
	}{
		{"polarity", circuit.CX(0, 1), negCX},
		{"target order", circuit.CX(0, 1), circuit.CX(1, 0)},
		{"one ulp", circuit.RZ(theta, 0), circuit.RZ(next, 0)},
		{"swap order", circuit.SWAP(0, 2), circuit.SWAP(2, 0)},
	} {
		var b gateMemo
		if _, fresh := b.build(m, n, &tc.a); !fresh {
			t.Fatalf("%s: first build reported a hit", tc.name)
		}
		if _, fresh := b.build(m, n, &tc.b); !fresh {
			t.Fatalf("%s: %v shared %v's entry", tc.name, tc.b, tc.a)
		}
		if len(b.byKey) != 2 {
			t.Fatalf("%s: %d entries, want 2", tc.name, len(b.byKey))
		}
	}

	// Repeated identical gates share one entry and one root, whatever
	// their name.
	var b gateMemo
	h := circuit.H(2)
	first, _ := b.build(m, n, &h)
	for i := 0; i < 5; i++ {
		g := circuit.H(2)
		g.Name = "hadamard"
		e, fresh := b.build(m, n, &g)
		if fresh || e != first {
			t.Fatalf("repeat %d: fresh=%v, root %v want %v", i, fresh, e, first)
		}
	}
	if len(b.byKey) != 1 {
		t.Fatalf("%d entries for one repeated gate, want 1", len(b.byKey))
	}
}

// TestFusionPlanIndependentOfThreads pins that the fusion plan is a
// function of the circuit: the same gates fuse at every thread count, and
// with uncached DMAV (whose rows each have one owner) the amplitudes are
// bit-identical.
func TestFusionPlanIndependentOfThreads(t *testing.T) {
	for _, fam := range []string{"dnn", "supremacy"} {
		for n := 10; n <= 12; n++ {
			c, err := workloads.Build(fam, n, int64(n))
			if err != nil {
				t.Fatal(err)
			}
			var wantGates, wantFusions int
			var want []complex128
			for threads := 1; threads <= 3; threads++ {
				s := New(n, Options{Threads: threads, Fusion: DMAVAware, CacheMode: dmav.NeverCache})
				st, err := s.RunContext(t.Context(), c)
				if err != nil {
					t.Fatal(err)
				}
				if st.FusionResult == nil {
					t.Fatalf("%s n=%d: never reached the fuse phase", fam, n)
				}
				amps := s.Amplitudes()
				if threads == 1 {
					wantGates, wantFusions, want = st.FusedGates, st.FusionResult.Fusions, append([]complex128(nil), amps...)
					continue
				}
				if st.FusedGates != wantGates || st.FusionResult.Fusions != wantFusions {
					t.Fatalf("%s n=%d threads=%d: %d gates / %d fusions, threads=1 gave %d / %d",
						fam, n, threads, st.FusedGates, st.FusionResult.Fusions, wantGates, wantFusions)
				}
				for i := range want {
					if amps[i] != want[i] {
						t.Fatalf("%s n=%d threads=%d: amplitude %d is %v, threads=1 gave %v",
							fam, n, threads, i, amps[i], want[i])
					}
				}
			}
		}
	}
}
