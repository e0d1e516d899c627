package core

import (
	"fmt"
	"testing"

	"flatdd/internal/dd"
	"flatdd/internal/dmav"
	"flatdd/internal/obs"
	"flatdd/internal/workloads"
)

// peakFlatBytes is the flat-array high-water a run's ledger recorded:
// state, scratch and the DMAV partial-output buffers.
func peakFlatBytes(r *obs.LedgerSnapshot) uint64 {
	var peak uint64
	for _, pc := range r.Phases {
		peak = max(peak, pc.PeakFlatBytes)
	}
	return peak
}

// TestFlatBytesBoundsAllocation sweeps circuit families, thread counts,
// caching modes and fusion: the flat arrays a run allocates never exceed
// dmav.FlatBytes, and a Threads-8 cached run reaches it, so the bound is
// tight where serve's admission relies on it. The old 48·2^n figure
// fails here: Threads 4 and 8 cached runs allocate 80 and 144 B per
// amplitude. DMAV-aware plans are capped at block.Width qubits, so the
// runs that reach the bound are k-operations ones, whose products are
// not. -short (the race build) keeps two fifths of the matrix.
func TestFlatBytesBoundsAllocation(t *testing.T) {
	const n = 12
	threadCounts := []int{1, 2, 3, 4, 8}
	fusions := []FusionMode{NoFusion, DMAVAware, KOps}
	if testing.Short() {
		threadCounts, fusions = []int{1, 3, 8}, []FusionMode{DMAVAware, KOps}
	}
	reached := false
	for _, family := range []string{"qv", "dnn", "supremacy", "vqe"} {
		c, err := workloads.Build(family, n, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, threads := range threadCounts {
			for _, mode := range []dmav.Mode{dmav.NeverCache, dmav.Auto, dmav.AlwaysCache} {
				for _, fuse := range fusions {
					name := fmt.Sprintf("%s/T%d/%v/%v", family, threads, mode, fuse)
					st := New(n, Options{Threads: threads, CacheMode: mode, Fusion: fuse}).Run(c)
					if st.ConvertedAtGate < 0 {
						t.Fatalf("%s: never converted, so the sweep measures nothing", name)
					}
					got, bound := peakFlatBytes(st.Resources), dmav.FlatBytes(n, threads, mode)
					if got > bound {
						t.Errorf("%s: allocated %d flat bytes (%d B/amp), over FlatBytes %d",
							name, got, got>>n, bound)
					}
					if threads == 8 && mode != dmav.NeverCache && got == bound {
						reached = true
					}
				}
			}
		}
	}
	if !reached {
		t.Error("no Threads-8 cached run reached FlatBytes: the bound is looser than the engine")
	}
}

// TestStatsMemoryCountsPartialBuffers: Stats.MemoryBytes covers the DD
// nodes and every flat array the run allocated, the DMAV partial-output
// buffers included, not just state and scratch.
func TestStatsMemoryCountsPartialBuffers(t *testing.T) {
	const n = 12
	c, err := workloads.Build("supremacy", n, 1)
	if err != nil {
		t.Fatal(err)
	}
	st := New(n, Options{Threads: 8, CacheMode: dmav.AlwaysCache, Fusion: DMAVAware}).Run(c)
	flat := peakFlatBytes(st.Resources)
	if flat <= 32<<n {
		t.Fatalf("run allocated %d flat bytes, want partial buffers beyond state and scratch", flat)
	}
	// An estimate that counts state and scratch but not the partial
	// buffers falls 112·2^n short here.
	if nodes := uint64(st.PeakDDNodes) * dd.NodeBytes; st.MemoryBytes < nodes+flat {
		t.Errorf("MemoryBytes = %d, below the %d DD-node plus %d flat bytes the run allocated",
			st.MemoryBytes, nodes, flat)
	}
}
