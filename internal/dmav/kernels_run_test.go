package dmav_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"flatdd/internal/core"
	"flatdd/internal/dmav"
	"flatdd/internal/workloads"
)

// TestRunsBitEqualOnBothKernelTables runs supremacy n=12 unfused and dnn
// n=12 with DMAV-aware fusion through core under Auto and NeverCache at
// Threads 1 and 2, first on the assembly kernel table and then on the Go
// one, and requires every amplitude bit-equal.
func TestRunsBitEqualOnBothKernelTables(t *testing.T) {
	if !dmav.HasAsmKernels() {
		t.Skip("this build or CPU runs the Go kernels only")
	}
	const n = 12
	type config struct {
		fam     string
		fuse    core.FusionMode
		mode    dmav.Mode
		threads int
	}
	var configs []config
	for _, fc := range []struct {
		fam  string
		fuse core.FusionMode
	}{{"supremacy", core.NoFusion}, {"dnn", core.DMAVAware}} {
		for _, mode := range []dmav.Mode{dmav.Auto, dmav.NeverCache} {
			for _, threads := range []int{1, 2} {
				configs = append(configs, config{fc.fam, fc.fuse, mode, threads})
			}
		}
	}
	run := func(c config) []complex128 {
		circ, err := workloads.Build(c.fam, n, n)
		if err != nil {
			t.Fatal(err)
		}
		sim := core.New(n, core.Options{Threads: c.threads, CacheMode: c.mode, Fusion: c.fuse})
		st, err := sim.RunContext(context.Background(), circ)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if st.DMAVStats.Gates == 0 {
			t.Fatalf("%v: the run never reached the DMAV phase", c)
		}
		return sim.Amplitudes()
	}
	asm := make([][]complex128, len(configs))
	for i, c := range configs {
		asm[i] = run(c)
	}
	dmav.UseGoKernels(t)
	for i, c := range configs {
		name := fmt.Sprintf("%s-%v-%v-t%d", c.fam, c.fuse, c.mode, c.threads)
		for j, want := range run(c) {
			got := asm[i][j]
			if math.Float64bits(real(got)) != math.Float64bits(real(want)) || math.Float64bits(imag(got)) != math.Float64bits(imag(want)) {
				t.Fatalf("%s: amplitude %d is %v on the assembly kernels, %v on the Go ones", name, j, got, want)
			}
		}
	}
}
