package core

import (
	"fmt"
	"sync"
	"testing"

	"flatdd/internal/circuit"
	"flatdd/internal/obs"
	"flatdd/internal/sched"
	"flatdd/internal/workloads"
)

// TestConcurrentSimulatorsShareNothing runs the serve pattern under the
// race detector: several goroutines each own a Simulator (and with it a
// dd.Manager) while sharing one scheduler pool and one metrics registry.
// The DD package has no locks, so any path that let two jobs touch one
// Manager would surface here as a race or as amplitudes that differ from
// the same circuit run alone.
func TestConcurrentSimulatorsShareNothing(t *testing.T) {
	type job struct {
		c       *circuit.Circuit
		convert bool // whether the EWMA controller must leave the DD phase
	}
	jobs := []job{
		{workloads.RandomCliffordT(10, workloads.RandCTGatesFor(10), 1), true},
		{workloads.RandomCliffordT(12, workloads.RandCTGatesFor(12), 1), true},
		{workloads.SupremacyGrid(9, 12, 3), true},
		{workloads.SupremacyGrid(10, 12, 4), true},
		{workloads.GHZ(12), false},
		{workloads.GHZ(16), false},
		{workloads.QFT(10), false},
		{workloads.QFT(12), false},
	}
	pool := sched.New(2)
	defer pool.Close()
	reg := obs.New()
	run := func(j job) ([]complex128, Stats) {
		s := New(j.c.Qubits, Options{Pool: pool, Metrics: reg})
		st := s.Run(j.c)
		return s.Amplitudes(), st
	}

	want := make([][]complex128, len(jobs))
	for i, j := range jobs {
		amps, st := run(j)
		if converted := st.ConvertedAtGate >= 0; converted != j.convert {
			t.Fatalf("%s: converted=%v (at gate %d), want %v", j.c.Name, converted, st.ConvertedAtGate, j.convert)
		}
		want[i] = amps
	}

	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, _ := run(j)
			for k := range want[i] {
				if got[k] != want[i][k] {
					errs[i] = fmt.Errorf("%s amplitude %d: concurrent %v != sequential %v", j.c.Name, k, got[k], want[i][k])
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}
