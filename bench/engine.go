package main

import (
	"context"
	"fmt"
	"math/cmplx"
	"math/rand"
	"runtime"
	"time"

	"flatdd/internal/circuit"
	"flatdd/internal/convert"
	"flatdd/internal/core"
	"flatdd/internal/dd"
	"flatdd/internal/ddsim"
	"flatdd/internal/dmav"
	"flatdd/internal/ewma"
	"flatdd/internal/fusion"
	"flatdd/internal/sched"
	"flatdd/internal/statevec"
)

// ampTol is the amplitude agreement every verified job must reach.
const ampTol = 1e-9

// warmupJobs run at the end of every set-up. An untraced run sets up at
// least three times, so its timed loop starts after three or more jobs,
// with warm caches, a grown heap and a settled GC pace.
const warmupJobs = 1

// engineEnv is a set of circuits with the engine options to run them
// under and the checks their results must pass: an engine workload, or
// the sample of serve_regular circuits its traced run takes apart.
type engineEnv struct {
	spec       engineSpec
	threads    int
	shots      int // 0: the job draws no samples
	idBase     int // first span job id, so two probes in one trace do not collide
	circuits   []*circuit.Circuit
	ref        *hostRef
	statevecMS []float64 // single-thread state-vector baseline per circuit
	// checkSim verifies a finished simulator of circuit ci, checkReplay a
	// staged replay of it.
	checkSim    func(ci int, sim *core.Simulator) error
	checkReplay func(ci int, ro *replayOut) error
}

func setupEngine(spec engineSpec, seed int64, threads int, ref *hostRef) (*engineEnv, error) {
	cs, err := engineCircuits(spec, seed)
	if err != nil {
		return nil, err
	}
	e := &engineEnv{spec: spec, threads: threads, shots: 1024, circuits: cs, ref: ref}
	oracle := make([][]complex128, len(cs))
	for i, c := range cs {
		t0 := time.Now()
		sv := statevec.New(c.Qubits, 1)
		sv.SetFastPath(true)
		sv.ApplyCircuit(c)
		e.statevecMS = append(e.statevecMS, ms(time.Since(t0)))
		oracle[i] = sv.Amplitudes()
	}
	e.checkSim = func(ci int, sim *core.Simulator) error { return compareAmps(sim.Amplitudes(), oracle[ci]) }
	e.checkReplay = func(ci int, ro *replayOut) error { return compareAmps(ro.amps, oracle[ci]) }
	for i := 0; i < warmupJobs; i++ {
		if out := e.job(nil, 0, i%len(cs)); !out.ok {
			return nil, fmt.Errorf("warm-up job on %s failed verification: %v", cs[i%len(cs)].Name, out.err)
		}
	}
	return e, nil
}

// jobOut is what one engine job produced and how long its parts took.
type jobOut struct {
	ok               bool
	err              error
	dur              time.Duration // core.New + RunContext + TopAmplitudes(8) + Sample(shots)
	newD, runD, resD time.Duration
	newAlloc         uint64 // heap bytes allocated by core.New (traced jobs only)
	stats            core.Stats
}

// job runs circuit ci once, the way a library user does, then checks the
// result outside the timed span.
func (e *engineEnv) job(tr *tracer, id, ci int) jobOut {
	c := e.circuits[ci]
	var out jobOut
	var a0 uint64

	t0 := time.Now()
	root := tr.start(0, id, "job")
	sp := tr.start(root, id, "core.new")
	if tr != nil {
		a0 = heapAllocBytes()
	}
	sim := core.New(c.Qubits, core.Options{Threads: e.threads, Fusion: e.spec.fusion})
	if tr != nil {
		out.newAlloc = heapAllocBytes() - a0
	}
	tr.end(sp)
	t1 := time.Now()

	sp = tr.start(root, id, "core.run")
	st, err := sim.RunContext(context.Background(), c)
	tr.end(sp)
	t2 := time.Now()

	sp = tr.start(root, id, "core.result")
	top := sim.TopAmplitudes(8)
	sampled := 1
	if e.shots > 0 {
		sampled = len(sim.Sample(rand.New(rand.NewSource(int64(id))), e.shots))
	}
	tr.end(sp)
	tr.end(root)
	t3 := time.Now()

	out.dur, out.newD, out.runD, out.resD = t3.Sub(t0), t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	out.stats = st
	switch {
	case err != nil:
		out.err = err
	case len(top) == 0 || sampled == 0:
		out.err = fmt.Errorf("empty result: %d top amplitudes, %d sampled states", len(top), sampled)
	default:
		out.err = e.checkSim(ci, sim)
	}
	out.ok = out.err == nil
	return out
}

func compareAmps(got, want []complex128) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d amplitudes, oracle has %d", len(got), len(want))
	}
	for i := range got {
		if cmplx.Abs(got[i]-want[i]) > ampTol {
			return fmt.Errorf("amplitude %d is %v, oracle says %v", i, got[i], want[i])
		}
	}
	return nil
}

// loopResult is what a timed closed loop measured.
type loopResult struct {
	durs                       []float64   // ms, verified jobs only
	groups                     [][]float64 // the same, per circuit or family
	refMS                      []float64   // host reference kernel, timed between jobs
	rssMB                      []float64   // resident set after each job
	attempted, failed, refused int
	wall, cpu                  time.Duration // wall excludes the reference kernel
	allocBytes                 uint64
	firstErr                   error
}

// p50 is the job time the workload reports: the median per circuit (or
// family), averaged over them. A plain median over a mix of circuits with
// different costs sits between two modes and jumps with the job count.
func (r *loopResult) p50() float64 {
	var medians []float64
	for _, g := range r.groups {
		if len(g) > 0 {
			medians = append(medians, median(g))
		}
	}
	return mean(medians)
}

func (r *loopResult) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// timedLoop runs untraced jobs back to back, cycling the circuits, until
// the budget has elapsed.
func (e *engineEnv) timedLoop(budget time.Duration) loopResult {
	r := loopResult{groups: make([][]float64, len(e.circuits))}
	runtime.GC()
	cpu0, alloc0, t0 := cpuTime(), heapAllocBytes(), time.Now()
	for i := 0; time.Since(t0) < budget; i++ {
		r.refMS = append(r.refMS, e.ref.run())
		ci := i % len(e.circuits)
		out := e.job(nil, i, ci)
		r.attempted++
		if out.ok {
			r.durs = append(r.durs, ms(out.dur))
			r.groups[ci] = append(r.groups[ci], ms(out.dur))
			r.rssMB = append(r.rssMB, rssMB())
		} else {
			r.fail(out.err)
		}
	}
	r.wall = time.Since(t0) - time.Duration(sum(r.refMS)*float64(time.Millisecond))
	r.cpu, r.allocBytes = cpuTime()-cpu0, heapAllocBytes()-alloc0
	return r
}

// replayOut is what a staged replay of one circuit observed.
type replayOut struct {
	amps        []complex128 // nil when the run never left the DD phase
	top         dd.AmpEntry  // most probable state of a DD-only run
	convertedAt int          // first DMAV gate, -1 if never converted
	firedAt     int          // gate whose size made the controller fire, -1 if it never did
	ddGates     int
	peakNodes   int
	gatesIn     int // gates handed to the fusion stage
	gatesOut    int // gates DMAV executed
	dmav        dmav.Stats
	steals      int64
	idle        time.Duration
}

// replay drives one circuit through the layers' public functions in the
// order core.runContext does, with a span around every call. It is the
// only way to see per-layer time from outside the engine.
func replay(tr *tracer, id int, c *circuit.Circuit, fuse core.FusionMode, threads int) (replayOut, error) {
	n, gates := c.Qubits, c.Gates
	out := replayOut{convertedAt: -1, firedAt: -1}
	root := tr.start(0, id, "replay")
	defer tr.end(root)

	sp := tr.start(root, id, "dd.manager_new")
	m := dd.New(n)
	tr.end(sp)
	sim := ddsim.NewWithManager(m, n)
	ctl := ewma.New(0, 0)

	phase := tr.start(root, id, "replay.dd")
	i := 0
	for ; i < len(gates); i++ {
		sp = tr.start(phase, id, "ddsim.apply")
		size := sim.ApplyGate(&gates[i])
		tr.end(sp)
		if ctl.Observe(size) {
			out.firedAt = i
			if i+1 < len(gates) {
				i++
				break
			}
		}
	}
	tr.end(phase)
	out.ddGates = sim.GatesApplied()
	out.peakNodes = sim.PeakStateSize()
	if i >= len(gates) {
		if top := m.TopAmplitudes(sim.State(), n, 1); len(top) == 1 {
			out.top = top[0]
		}
		return out, nil
	}
	out.convertedAt = i

	pool := sched.New(threads)
	defer pool.Close()

	// Single-thread conversion baseline, on the same state DD.
	sp = tr.start(root, id, "convert.seq")
	convert.Sequential(m, sim.State(), n)
	tr.end(sp)

	sp = tr.start(root, id, "convert.parallel")
	state := make([]complex128, uint64(1)<<uint(n))
	err := convert.ParallelIntoPool(sim.State(), n, pool, state, nil)
	tr.end(sp)
	if err != nil {
		return out, err
	}
	buf := make([]complex128, len(state))
	eng := dmav.New(m, n, threads, dmav.Auto)
	eng.SetPool(pool)
	sim.SetState(m.VZeroEdge())
	m.Collect(dd.Roots{})

	phase = tr.start(root, id, "replay.fuse")
	remaining := make([]dd.MEdge, 0, len(gates)-i)
	roots := dd.Roots{}
	for j := i; j < len(gates); j++ {
		sp = tr.start(phase, id, "dd.build_gate")
		g := ddsim.BuildGateDD(m, n, &gates[j])
		tr.end(sp)
		remaining = append(remaining, g)
		roots.M = append(roots.M, g)
		m.CollectIfNeeded(roots)
	}
	out.gatesIn = len(remaining)
	if fuse == core.DMAVAware {
		sp = tr.start(phase, id, "fusion.fuse")
		res := fusion.Fuse(m, remaining, func(g dd.MEdge) float64 { return eng.EvaluateCost(g).Cost() })
		tr.end(sp)
		remaining = res.Gates
	}
	tr.end(phase)
	out.gatesOut = len(remaining)

	phase = tr.start(root, id, "replay.dmav")
	for _, g := range remaining {
		sp = tr.start(phase, id, "dmav.apply")
		_, err = eng.Apply(g, state, buf)
		tr.end(sp)
		if err != nil {
			tr.end(phase)
			return out, err
		}
		state, buf = buf, state
	}
	tr.end(phase)
	out.dmav = eng.Stats()
	out.amps = state
	for _, w := range pool.Stats() {
		out.steals += w.Steals
		out.idle += w.Idle
	}
	return out, nil
}
