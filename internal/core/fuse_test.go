package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"flatdd/internal/circuit"
	"flatdd/internal/dd"
	"flatdd/internal/dmav"
	"flatdd/internal/ewma"
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
		if b.block(&tc.a) == b.block(&tc.b) || len(b.blocks) != 2 {
			t.Fatalf("%s: %v and %v share a block (%d blocks)", tc.name, tc.a, tc.b, len(b.blocks))
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
	// So do their blocks, which the DMAV engine then compiles once.
	blk := b.block(&h)
	for i := 0; i < 5; i++ {
		g := circuit.H(2)
		g.Name = "hadamard"
		if b.block(&g) != blk {
			t.Fatalf("repeat %d: a second block for one gate", i)
		}
	}
	if wide := circuit.MCX([]int{0, 1, 2}, 3); b.block(&wide) != nil {
		t.Fatal("a four-qubit gate got a block")
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

// TestNarrowGatesBuildNoDDs drives a run's phases one by one and pins that
// the fuse and DMAV phases build no DD node under Auto and NeverCache,
// unfused or DMAV-aware: every dnn and supremacy gate is a block, composed
// and run without a DD. Under AlwaysCache every gate needs its DD, and the
// count grows, which shows the probe sees DD work where there is some.
func TestNarrowGatesBuildNoDDs(t *testing.T) {
	const n = 12
	for _, fam := range []string{"dnn", "supremacy"} {
		c, err := workloads.Build(fam, n, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []dmav.Mode{dmav.Auto, dmav.NeverCache, dmav.AlwaysCache} {
			for _, fuse := range []FusionMode{NoFusion, DMAVAware} {
				s := New(n, Options{Threads: 2, CacheMode: mode, Fusion: fuse, ForceConvertAfter: n})
				r := &run{s: s, c: c, ctx: t.Context(), start: time.Now()}
				s.stats = Stats{Gates: c.GateCount(), ConvertedAtGate: -1}
				r.ctl = ewma.New(s.opts.Beta, s.opts.Epsilon)
				at, err := r.dd()
				if err != nil || at != n {
					t.Fatalf("%s: DD phase ended at gate %d (%v), want %d", fam, at, err, n)
				}
				env, release := s.flatEnv(nil)
				env.Ledger = s.led
				if err := r.convert(env, at); err != nil {
					t.Fatal(err)
				}
				before := s.m.NodeCount()
				gates, err := r.fuse(at)
				if err != nil {
					t.Fatal(err)
				}
				if err := r.dmav(env, gates, at); err != nil {
					t.Fatal(err)
				}
				release()
				after := s.m.NodeCount()
				name := fmt.Sprintf("%s %v %v", fam, mode, fuse)
				if mode == dmav.AlwaysCache {
					if after <= before {
						t.Errorf("%s: %d DD nodes before the fuse phase, %d after DMAV; want growth", name, before, after)
					}
				} else if after != before {
					t.Errorf("%s: %d DD nodes before the fuse phase, %d after DMAV", name, before, after)
				}
			}
		}
	}
}

// BenchmarkFusionRun is the whole engine on the benchmark's two fusion
// circuits at Threads 2, with and without DMAV-aware fusion: the A/B that
// says whether Algorithm 3 pays for itself on wall clock. Reports the
// fuse and DMAV phases per run and the DMAV gate count beside ns/op.
func BenchmarkFusionRun(b *testing.B) {
	for _, w := range []struct {
		family string
		n      int
	}{{"dnn", 15}, {"supremacy", 14}} {
		c, err := workloads.Build(w.family, w.n, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, fuse := range []FusionMode{NoFusion, DMAVAware} {
			b.Run(fmt.Sprintf("%s/%v", c.Name, fuse), func(b *testing.B) {
				var fuseNs, dmavNs time.Duration
				var st Stats
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					st = New(w.n, Options{Threads: 2, Fusion: fuse}).Run(c)
					fuseNs += st.FusionTime
					dmavNs += st.DMAVTime
				}
				b.ReportMetric(float64(st.FusedGates), "gates")
				b.ReportMetric(float64(fuseNs.Microseconds())/float64(b.N)/1e3, "fuse-ms/op")
				b.ReportMetric(float64(dmavNs.Microseconds())/float64(b.N)/1e3, "dmav-ms/op")
			})
		}
	}
}
