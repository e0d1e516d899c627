package difftest

// The engines under comparison and the circuits they run.

import (
	"context"
	"flag"
	"fmt"
	"math"

	"flatdd/internal/circuit"
	"flatdd/internal/core"
	"flatdd/internal/dd"
	"flatdd/internal/ddsim"
	"flatdd/internal/dmav"
	"flatdd/internal/statevec"
	"flatdd/internal/workloads"
)

// ExtraCircuits is the -difftest.n flag: how many additional random
// circuits to run per test configuration beyond the short default.
var ExtraCircuits = flag.Int("difftest.n", 0,
	"extra random circuits per difftest configuration (0 = short default only)")

// Tol is the maximum per-amplitude deviation |a-b| tolerated between any
// two engines. All engines compute in complex128, so after a few hundred
// gates the accumulated error is far below this.
const Tol = 1e-9

// RandomCliffordT builds a seeded random circuit over n qubits from the
// Clifford+T gate set (H, S, S†, T, T†, X, Z, CX, CZ). The generator
// lives in internal/workloads (registry name "randct", also used by the
// job service's smoke tests); this wrapper keeps the difftest API.
func RandomCliffordT(n, gates int, seed int64) *circuit.Circuit {
	return workloads.RandomCliffordT(n, gates, seed)
}

// Mismatch describes the worst disagreement found between two engines.
type Mismatch struct {
	EngineA, EngineB string
	Index            uint64
	A, B             complex128
	Dist             float64
}

func (m *Mismatch) Error() string {
	return fmt.Sprintf("difftest: %s vs %s disagree at amplitude %d: %v vs %v (|delta|=%.3g > %.3g)",
		m.EngineA, m.EngineB, m.Index, m.A, m.B, m.Dist, Tol)
}

// Check runs c through every engine with the given thread count and
// returns a *Mismatch error describing the first pair of engines that
// disagree beyond Tol, or nil if all agree. ddsim is the reference; every
// other engine is compared against it.
func Check(c *circuit.Circuit, threads int) error {
	ref := runDDSim(c)
	engines := []struct {
		name string
		run  func(*circuit.Circuit, int) []complex128
	}{
		{"statevec", runStatevec},
		{"dmav", runDMAV},
		{"hybrid", runHybrid},
		{"degraded", runDegraded},
	}
	for _, e := range engines {
		got := e.run(c, threads)
		if m := compare("ddsim", e.name, ref, got); m != nil {
			return m
		}
	}
	return nil
}

func compare(nameA, nameB string, a, b []complex128) *Mismatch {
	if len(a) != len(b) {
		return &Mismatch{EngineA: nameA, EngineB: nameB,
			Dist: math.Inf(1)}
	}
	var worst *Mismatch
	for i := range a {
		d := cmplxAbs(a[i] - b[i])
		if d > Tol && (worst == nil || d > worst.Dist) {
			worst = &Mismatch{EngineA: nameA, EngineB: nameB,
				Index: uint64(i), A: a[i], B: b[i], Dist: d}
		}
	}
	return worst
}

func cmplxAbs(z complex128) float64 {
	return math.Hypot(real(z), imag(z))
}

// runDDSim is the reference: pure decision-diagram simulation, final
// state flattened once at the end.
func runDDSim(c *circuit.Circuit) []complex128 {
	s := ddsim.New(c.Qubits)
	s.Run(c)
	return s.ToArray()
}

// runStatevec applies every gate with dense statevector kernels.
func runStatevec(c *circuit.Circuit, threads int) []complex128 {
	sv := statevec.New(c.Qubits, threads)
	sv.ApplyCircuit(c)
	return sv.Amplitudes()
}

// runDMAV drives the DMAV engine gate-by-gate over a flat array from
// |0...0>, exercising both Algorithm 1 and Algorithm 2 via the cost
// model (Auto mode).
func runDMAV(c *circuit.Circuit, threads int) []complex128 {
	n := c.Qubits
	m := dd.New(n)
	e := dmav.New(m, n, threads, dmav.Auto)
	defer e.Close()
	v := make([]complex128, uint64(1)<<uint(n))
	v[0] = 1
	w := make([]complex128, len(v))
	for i := range c.Gates {
		g := ddsim.BuildGateDD(m, n, &c.Gates[i])
		e.Apply(g, v, w)
		v, w = w, v
	}
	return v
}

// runHybrid runs the full FlatDD pipeline and forces the DD-to-array
// conversion about a third of the way through the circuit, so the run
// exercises the DD phase, the parallel conversion, and the DMAV phase in
// one pass.
func runHybrid(c *circuit.Circuit, threads int) []complex128 {
	fca := len(c.Gates) / 3
	if fca < 1 {
		fca = 1
	}
	s := core.New(c.Qubits, core.Options{Threads: threads, ForceConvertAfter: fca})
	if _, err := s.RunContext(context.Background(), c); err != nil {
		panic(fmt.Sprintf("difftest: hybrid run failed: %v", err))
	}
	return s.Amplitudes()
}

// runDegraded is the graceful-degradation path: conversion is requested
// (same forced trigger as runHybrid) but a one-byte memory budget vetoes
// it, so the run must complete DD-only and still produce exact results.
func runDegraded(c *circuit.Circuit, threads int) []complex128 {
	fca := len(c.Gates) / 3
	if fca < 1 {
		fca = 1
	}
	s := core.New(c.Qubits, core.Options{
		Threads: threads, ForceConvertAfter: fca, MemoryBudget: 1,
	})
	st, err := s.RunContext(context.Background(), c)
	if err != nil {
		panic(fmt.Sprintf("difftest: degraded run failed: %v", err))
	}
	if len(c.Gates) > fca && !st.Degraded {
		panic("difftest: budget-vetoed run did not report degraded")
	}
	if st.ConvertedAtGate != -1 {
		panic(fmt.Sprintf("difftest: degraded run converted at gate %d", st.ConvertedAtGate))
	}
	return s.Amplitudes()
}
