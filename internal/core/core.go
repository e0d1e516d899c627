// Package core implements FlatDD, the hybrid quantum circuit simulator of
// the paper (Figure 3). A simulation starts in the DD phase — a sequential
// DDSIM-style engine whose state vector is a decision diagram — while an
// EWMA controller watches the state-DD size. The first time the size grows
// drastically beyond its moving average, the state is converted to a flat
// array with the parallel DD-to-array algorithm and the remaining gates run
// as parallel DMAV products, optionally after a DMAV-aware gate-fusion
// pass.
package core

import (
	"container/heap"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"flatdd/internal/block"
	"flatdd/internal/circuit"
	"flatdd/internal/convert"
	"flatdd/internal/dd"
	"flatdd/internal/ddsim"
	"flatdd/internal/dmav"
	"flatdd/internal/ewma"
	"flatdd/internal/faults"
	"flatdd/internal/fusion"
	"flatdd/internal/obs"
	"flatdd/internal/sched"
)

// Sentinel errors returned by RunContext when a run terminates early.
// Both wrap their context counterparts, so errors.Is(err, context.Canceled)
// and errors.Is(err, context.DeadlineExceeded) also hold.
var (
	// ErrCanceled reports that the run's context was canceled. The
	// simulator stays queryable: its state is the one left by the last
	// fully applied gate (a partially applied gate is discarded).
	ErrCanceled = fmt.Errorf("core: simulation canceled: %w", context.Canceled)
	// ErrDeadlineExceeded reports that the run context's deadline passed.
	// It plays the role of the paper's 24-hour cutoff.
	ErrDeadlineExceeded = fmt.Errorf("core: simulation deadline exceeded: %w", context.DeadlineExceeded)
	// ErrEngineFault is the sentinel every *EngineFault unwraps to:
	// errors.Is(err, ErrEngineFault) identifies a run terminated by a
	// contained engine panic.
	ErrEngineFault = errors.New("core: engine fault")
	// ErrNumericalDrift is the sentinel every *DriftError unwraps to: the
	// DMAV-phase integrity sweep found NaN/Inf amplitudes or a state norm
	// outside tolerance.
	ErrNumericalDrift = errors.New("core: numerical drift")
)

// EngineFault is the typed error RunContext returns when a panic escapes
// the dd/convert/dmav engines or a scheduler worker. The simulator's
// state after an engine fault is undefined and the result must be
// discarded — but the fault is contained: the panic never crosses
// RunContext, so a job service keeps serving its other jobs.
type EngineFault struct {
	// Value is the recovered panic value (unwrapped from the scheduler's
	// TaskPanic envelope when the panic happened on a pool worker).
	Value any
	// Point is the fault-injection point name when the panic was injected
	// by internal/faults, "" for organic panics.
	Point string
	// Transient marks the fault retry-safe (carried from the injection
	// trigger; organic panics are never transient).
	Transient bool
	// Stack is the panicking goroutine's stack trace.
	Stack string
}

func (e *EngineFault) Error() string {
	if e.Point != "" {
		return fmt.Sprintf("core: engine fault at %s: %v", e.Point, e.Value)
	}
	return fmt.Sprintf("core: engine fault: %v", e.Value)
}

// Unwrap makes errors.Is(err, ErrEngineFault) hold.
func (e *EngineFault) Unwrap() error { return ErrEngineFault }

// IsTransient reports whether err is an engine fault classified
// transient, i.e. safe to retry (the job service's retry policy).
func IsTransient(err error) bool {
	var ef *EngineFault
	return errors.As(err, &ef) && ef.Transient
}

// DriftError is the typed error of a failed integrity sweep.
type DriftError struct {
	Gate int     // index of the last applied gate
	Norm float64 // state norm over the finite amplitudes
	NaNs int     // amplitudes with a NaN component
	Infs int     // amplitudes with an Inf component
}

func (e *DriftError) Error() string {
	return fmt.Sprintf("core: numerical drift after gate %d: norm=%g nan=%d inf=%d",
		e.Gate, e.Norm, e.NaNs, e.Infs)
}

// Unwrap makes errors.Is(err, ErrNumericalDrift) hold.
func (e *DriftError) Unwrap() error { return ErrNumericalDrift }

// newEngineFault classifies a recovered panic value: scheduler TaskPanic
// envelopes are unwrapped, injected faults carry their point name and
// transience, anything else is an organic (non-retryable) fault.
func newEngineFault(r any) *EngineFault {
	ef := &EngineFault{Value: r, Stack: string(debug.Stack())}
	if tp, ok := r.(*sched.TaskPanic); ok {
		ef.Value = tp.Value
		ef.Stack = tp.Stack
	}
	if inj, ok := ef.Value.(*faults.Injected); ok {
		ef.Point = inj.Point
		ef.Transient = inj.Transient
	}
	return ef
}

// Phase identifies which engine produced a result or trace event.
type Phase int

const (
	// PhaseDD is the DDSIM-style front phase.
	PhaseDD Phase = iota
	// PhaseDMAV is the flat-array phase after conversion.
	PhaseDMAV
)

func (p Phase) String() string {
	if p == PhaseDD {
		return "dd"
	}
	return "dmav"
}

// FusionMode selects the gate-fusion pass applied to the DMAV phase.
type FusionMode int

const (
	// NoFusion applies the remaining gates one DMAV at a time.
	NoFusion FusionMode = iota
	// DMAVAware is the paper's Algorithm 3, with merges priced at the
	// one-thread MAC count K1, so the plan does not depend on Threads.
	DMAVAware
	// KOps is the k-operations baseline [100], with blocks of kopsBlock
	// qubits.
	KOps
)

func (f FusionMode) String() string {
	switch f {
	case NoFusion:
		return "none"
	case DMAVAware:
		return "dmav-aware"
	case KOps:
		return "k-operations"
	default:
		return fmt.Sprintf("FusionMode(%d)", int(f))
	}
}

// Options configures a FlatDD simulator. The zero value gives the paper's
// defaults: β=0.9, ε=2, auto caching, no fusion, one thread.
type Options struct {
	// Threads is the worker count for conversion and DMAV. Any positive
	// value is used as given (the DMAV engine caps it at 2^n), not
	// rounded to a power of two. When Pool is set, Threads is ignored:
	// the pool's worker count drives both execution and the cost model
	// (see Pool).
	Threads int
	// Pool, when non-nil, is the scheduler pool conversion and DMAV run
	// on. Its worker count is authoritative: execution happens on the
	// pool, so the cost model's thread count is Pool.Threads() and any
	// Threads value is overwritten with it. The caller keeps ownership
	// of the pool's lifetime. When nil, the run creates a pool of
	// Threads workers for its duration.
	Pool *sched.Pool
	// Beta and Epsilon parameterize the EWMA conversion controller
	// (defaults 0.9 and 2).
	Beta, Epsilon float64
	// CacheMode sets the DMAV caching policy (default: cost-model Auto).
	CacheMode dmav.Mode
	// Fusion selects the gate-fusion pass for the DMAV phase.
	Fusion FusionMode
	// ForceConvertAfter, when positive, forces conversion right after
	// this many gates, bypassing the controller (used by experiments).
	ForceConvertAfter int
	// Trace, when non-nil, receives one event per gate, on the goroutine
	// that called RunContext. It is the engine's only per-gate output
	// (Figures 3 and 11); phase spans travel on the run's context.
	Trace func(TraceEvent)
	// Metrics, when non-nil, wires every engine layer (dd unique/compute
	// tables, cnum, conversion, DMAV, the EWMA controller and this
	// simulator's phase loop) into the registry. When nil, the hot paths
	// pay one pointer check per instrumentation site and nothing else.
	Metrics *obs.Registry
	// MemoryBudget, when positive, caps the flat-array working set in
	// bytes. If dmav.FlatBytes(n, Threads, CacheMode) exceeds the budget
	// when the conversion controller fires, the conversion is suppressed
	// and the run completes in the DD phase — graceful degradation:
	// correct results, recorded in Stats.Degraded and the core.degraded
	// metric, instead of an allocation the host cannot afford.
	MemoryBudget uint64
	// IntegrityEvery, when positive, runs a numerical-integrity sweep
	// (NaN/Inf scan + norm check within integrityTol) over the flat state
	// every IntegrityEvery DMAV gates. A failing sweep aborts the run with
	// ErrNumericalDrift.
	IntegrityEvery int
	// Faults, when non-nil, arms the run's fault-injection hooks
	// (tests only; production runs leave it nil and pay one pointer
	// check per hook site).
	Faults *faults.Registry
	// Ledger, when non-nil, is the resource ledger the run reports into:
	// per-phase CPU time (scheduler busy-ns for pooled phases, wall time
	// for the sequential ones), allocation deltas sampled at phase
	// boundaries, peak DD node count, and live flat-array bytes. When
	// nil, the run creates a private ledger so Stats.Resources is always
	// populated; pass one to observe phase costs live (the serve layer's
	// memory gauges do).
	Ledger *obs.ResourceLedger
}

// The engine's fixed parameters.
const (
	kopsBlock    = 4    // block size k of FusionMode KOps
	integrityTol = 1e-6 // allowed |norm−1| of the integrity sweep
)

// TraceEvent records the execution of one gate (Figures 3 and 11).
type TraceEvent struct {
	GateIndex int
	Phase     Phase
	DDSize    int // state-DD node count after the gate (DD phase only)
	EWMA      float64
	Duration  time.Duration
	// Converted is true on the gate whose size observation made the
	// controller fire AND whose firing actually led to a conversion. The
	// gate itself still ran in the DD phase; the *next* gate is the first
	// DMAV gate, and Stats.ConvertedAtGate names that next index. When the
	// controller fires on the circuit's final gate there is nothing left to
	// run in DMAV: no conversion happens and Converted stays false.
	Converted bool
}

// Stats summarizes one Run.
type Stats struct {
	Gates int
	// ConvertedAtGate is the index of the first gate executed by the DMAV
	// phase, i.e. one past the gate whose size observation triggered the
	// controller; -1 if the run never converted. A controller that fires on
	// the final gate does not convert (there is no remaining gate for DMAV
	// to run), so ConvertedAtGate is never == Gates.
	ConvertedAtGate int
	DDTime          time.Duration
	ConversionTime  time.Duration
	// FusionTime covers preparing the DMAV phase: building the remaining
	// gates' dense blocks (and the DDs of gates wider than block.Width, or
	// of every gate under AlwaysCache or KOps) and, when enabled, the
	// fusion pass itself.
	FusionTime time.Duration
	DMAVTime   time.Duration
	TotalTime  time.Duration

	PeakDDNodes  int
	FusedGates   int // gates executed in the DMAV phase after fusion
	DMAVStats    dmav.Stats
	MemoryBytes  uint64 // working-set estimate (DD nodes + flat arrays)
	FusionResult *fusion.Result[fusion.Gate]
	FinalDDSize  int // state-DD size at conversion (or at the end if never converted)
	TimedOut     bool
	// Degraded reports that the run suppressed its DD→flat conversion and
	// completed DD-only (graceful degradation); DegradedReason says why:
	// "register_too_wide" (more than dmav.MaxQubits qubits),
	// "memory_budget" (flat working set over Options.MemoryBudget) or
	// "alloc_failed" (flat-array allocation failure, injected or real).
	Degraded       bool
	DegradedReason string
	// Resources is the run's resource-ledger snapshot: per-phase CPU
	// time, allocation deltas, and peak DD/flat memory. Populated by
	// RunContext on every terminal path (success, abort, fault).
	Resources *obs.LedgerSnapshot
}

// Simulator is a FlatDD hybrid simulator for one register size.
type Simulator struct {
	n    int
	opts Options

	m   *dd.Manager
	sim *ddsim.Simulator
	eng *dmav.Engine

	phase Phase
	state []complex128 // valid in PhaseDMAV

	// convertAlloc is the simulated-allocation-failure injection point
	// (nil in production).
	convertAlloc *faults.Point

	stats Stats

	// Observability (met is nil when Options.Metrics is unset). led is
	// never nil: New falls back to a private ledger so resource
	// attribution is always available in Stats.Resources.
	met *coreMetrics
	led *obs.ResourceLedger
}

// coreMetrics holds the phase-loop registry handles (metric names in
// DESIGN.md, "Observability").
type coreMetrics struct {
	gatesDD          *obs.Counter
	gatesDMAV        *obs.Counter
	phaseTransitions *obs.Counter
	deadlineAborts   *obs.Counter
	cancelAborts     *obs.Counter
	gateDDNs         *obs.Histogram
	gateDMAVNs       *obs.Histogram
	ddSize           *obs.Gauge
	ewma             *obs.FloatGauge
	convertedAt      *obs.Gauge
	degraded         *obs.Gauge
	engineFaults     *obs.Counter
	driftAborts      *obs.Counter
	integrityChecks  *obs.Counter
}

// New returns a simulator for n qubits.
func New(n int, opts Options) *Simulator {
	o := opts
	if o.Pool != nil {
		// The injected pool's worker count is authoritative: execution
		// runs on the pool, so the cost model must see the same
		// parallelism or its caching decisions model a machine that
		// isn't there.
		o.Threads = o.Pool.Threads()
	}
	o.Threads = max(o.Threads, 1)
	m := dd.New(n)
	s := &Simulator{
		n:    n,
		opts: o,
		m:    m,
		sim:  ddsim.NewWithManager(m, n),
	}
	if r := o.Metrics; r != nil {
		m.SetMetrics(r)
		s.met = &coreMetrics{
			gatesDD:          r.Counter("core.gates.dd"),
			gatesDMAV:        r.Counter("core.gates.dmav"),
			phaseTransitions: r.Counter("core.phase_transitions"),
			deadlineAborts:   r.Counter("core.deadline_aborts"),
			cancelAborts:     r.Counter("core.cancel_aborts"),
			gateDDNs:         r.Histogram("core.gate_ns.dd", obs.DurationBuckets()),
			gateDMAVNs:       r.Histogram("core.gate_ns.dmav", obs.DurationBuckets()),
			ddSize:           r.Gauge("core.dd_size"),
			ewma:             r.FloatGauge("core.ewma"),
			convertedAt:      r.Gauge("core.converted_at_gate"),
			degraded:         r.Gauge("core.degraded"),
			engineFaults:     r.Counter("core.engine_faults"),
			driftAborts:      r.Counter("core.drift_aborts"),
			integrityChecks:  r.Counter("core.integrity_checks"),
		}
		s.met.convertedAt.Set(-1)
	}
	s.convertAlloc = o.Faults.Point(faults.CoreConvertAlloc)
	s.led = o.Ledger
	if s.led == nil {
		s.led = obs.NewResourceLedger()
	}
	return s
}

// Phase returns the current engine phase.
func (s *Simulator) Phase() Phase { return s.phase }

// Run simulates the circuit from |0...0> and returns the final statistics.
// Run may be called once per Simulator. It is RunContext on a background
// context, which never aborts.
func (s *Simulator) Run(c *circuit.Circuit) Stats {
	st, _ := s.RunContext(context.Background(), c)
	return st
}

// RunContext simulates the circuit from |0...0> and returns the final
// statistics. It may be called once per Simulator.
//
// Cancellation is cooperative: the context is checked at every gate
// boundary in both phases, once per leaf task of the parallel DD-to-array
// conversion, and once per chunk inside the DMAV kernels, so an abort is
// observed promptly (bounded by one gate) even mid-conversion or
// mid-multiplication. On abort RunContext returns ErrCanceled or
// ErrDeadlineExceeded together with the statistics gathered so far, and
// the simulator stays queryable: the state is the one left by the last
// fully applied gate (a partially converted array or partially applied
// DMAV gate is discarded).
//
// Fault containment: a panic escaping the dd/convert/dmav engines —
// on the calling goroutine or on a scheduler worker (re-raised by the
// pool as *sched.TaskPanic) — is recovered here and returned as a
// *EngineFault instead of crossing into the caller. The simulator's
// state is then undefined and must be discarded, but the process
// survives: one malformed job cannot take down a serving host.
func (s *Simulator) RunContext(ctx context.Context, c *circuit.Circuit) (st Stats, err error) {
	if c.Qubits != s.n {
		// Caller bug, not an engine fault: panic before the containment
		// barrier is installed.
		panic(fmt.Sprintf("core: circuit on %d qubits, simulator has %d", c.Qubits, s.n))
	}
	r := &run{s: s, c: c, ctx: ctx, done: ctx.Done(), start: time.Now()}
	defer func() {
		if rec := recover(); rec != nil {
			if s.met != nil {
				s.met.engineFaults.Inc()
			}
			st, err = r.end(newEngineFault(rec))
		}
	}()
	return r.runContext()
}

// run is the state of one RunContext call.
type run struct {
	s     *Simulator
	c     *circuit.Circuit
	ctx   context.Context
	done  <-chan struct{} // ctx.Done(); nil for a context that is never canceled
	start time.Time
	// span parents one phase.* span per phase: the span carried on the
	// context (the serve layer's per-attempt "run" span, or a CLI root),
	// or nil, which makes every Child call a no-op.
	span *obs.Span
	ctl  *ewma.Controller
	// suppressConvert pins the run to the DD phase after a degradation
	// decision (the controller may keep firing; it must not re-trigger).
	suppressConvert bool
}

// errAborted is what a phase returns when the run's context is done; end
// maps it onto ErrCanceled or ErrDeadlineExceeded.
var errAborted = errors.New("core: run aborted")

// runContext is RunContext's body; the split keeps the containment
// barrier (and the deferred recover's cost) out of the phase loops. It
// runs the phases of Figure 3 in order — DD, convert, build and fuse,
// DMAV — and every terminal path returns through end.
func (r *run) runContext() (Stats, error) {
	s := r.s
	s.stats = Stats{Gates: r.c.GateCount(), ConvertedAtGate: -1}
	r.span = obs.SpanFromContext(r.ctx)
	r.ctl = ewma.New(s.opts.Beta, s.opts.Epsilon)
	if s.met != nil {
		r.ctl.Gauge = s.met.ewma
	}
	at, err := r.dd()
	if err != nil || at == len(r.c.Gates) {
		return r.end(err)
	}
	// One environment serves the whole flat phase: conversion and every
	// DMAV gate run on one pool, under their phase's span. Its probe is
	// nil for a context that can never be canceled, which lets the
	// conversion and DMAV hot paths skip the per-task probe entirely.
	var probe func() bool
	if r.done != nil {
		probe = r.canceled
	}
	env, release := s.flatEnv(probe)
	defer release()
	env.Ledger = s.led
	if err := r.convert(env, at); err != nil {
		return r.end(err)
	}
	gates, err := r.fuse(at)
	if err != nil {
		return r.end(err)
	}
	return r.end(r.dmav(env, gates, at))
}

// canceled is the run's cancellation probe, polled at every gate
// boundary.
func (r *run) canceled() bool {
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

// openPhase is one open phase of a run: its phase.* span (nil when the
// run is not traced) and its start.
type openPhase struct {
	span  *obs.Span
	start time.Time
}

// beginPhase opens the span name ("phase.<x>") and the ledger section
// <x>.
func (r *run) beginPhase(name string) openPhase {
	span := r.span.Child(name)
	r.s.led.Begin(strings.TrimPrefix(name, "phase."))
	return openPhase{span: span, start: time.Now()}
}

// endPhase closes p and returns its wall time. A sequential phase ran on
// this goroutine alone, so its wall time is credited to the ledger as
// CPU time; a pooled phase's batches credit their own. The span gets the
// ledger's cost attributes and ends.
func (r *run) endPhase(p openPhase, sequential bool) time.Duration {
	d := time.Since(p.start)
	if sequential {
		r.s.led.AddCPU(d.Nanoseconds())
	}
	pc, _ := r.s.led.End()
	if p.span != nil {
		p.span.SetAttr("cpu_ns", pc.CPUNs)
		p.span.SetAttr("alloc_bytes", pc.AllocBytes)
		p.span.End()
	}
	return d
}

// dd runs the DD phase: gates apply to the state DD while the EWMA
// controller watches its size. It
// returns the index of the first gate left for the flat phase.
func (r *run) dd() (int, error) {
	s, gates := r.s, r.c.Gates
	p := r.beginPhase("phase.dd")
	var err error
	i := 0
	for ; i < len(gates); i++ {
		if r.canceled() {
			err = errAborted
			break
		}
		gStart := time.Now()
		size := s.sim.ApplyGate(&gates[i])
		s.led.ObserveDD(int64(size), uint64(size)*dd.NodeBytes)
		convertNow := r.ctl.Observe(size)
		if f := s.opts.ForceConvertAfter; f > 0 {
			convertNow = i+1 >= f
		}
		// A controller firing on the final gate leaves nothing for DMAV.
		convertNow = convertNow && !r.suppressConvert && i+1 < len(gates)
		if convertNow {
			// Graceful degradation: decided at the fire site, before the
			// trace event, so the Converted flag reflects what happened.
			if reason := s.conversionBlocked(); reason != "" {
				r.degrade(reason)
				convertNow = false
			}
		}
		if s.met != nil {
			s.met.gatesDD.Inc()
			s.met.ddSize.Set(int64(size))
			s.met.gateDDNs.Observe(time.Since(gStart).Nanoseconds())
		}
		if s.opts.Trace != nil {
			s.opts.Trace(TraceEvent{
				GateIndex: i, Phase: PhaseDD, DDSize: size, EWMA: r.ctl.Average(),
				Duration: time.Since(gStart), Converted: convertNow,
			})
		}
		if convertNow {
			i++
			break
		}
	}
	s.stats.FinalDDSize = s.sim.StateSize()
	if p.span != nil {
		p.span.SetAttr("gates", i)
		p.span.SetAttr("dd_size", s.stats.FinalDDSize)
		p.span.SetAttr("ewma", r.ctl.Average())
		if s.stats.Degraded {
			p.span.SetAttr("degraded", s.stats.DegradedReason)
		}
	}
	s.stats.DDTime = r.endPhase(p, true)
	return i, err
}

// degrade records the degradation decision and pins the run to the DD
// phase (results stay exact; only the flat-array speedup is lost).
func (r *run) degrade(reason string) {
	r.suppressConvert = true
	r.s.stats.Degraded = true
	r.s.stats.DegradedReason = reason
	if r.s.met != nil {
		r.s.met.degraded.Set(1)
	}
}

// convert expands the state DD into the flat array on env's pool. Once
// the array is complete the simulator is in the DMAV phase from gate at
// on, and the state DD is released.
func (r *run) convert(env sched.Env, at int) error {
	s := r.s
	p := r.beginPhase("phase.convert")
	if p.span != nil {
		p.span.SetAttr("amps", uint64(1)<<uint(s.n))
	}
	s.state = make([]complex128, uint64(1)<<uint(s.n))
	s.led.AddFlat(int64(len(s.state)) * 16)
	var err error
	env.Span = p.span
	ok, cerr := convert.ParallelIntoEnv(s.sim.State(), s.n, s.state, &env)
	if cerr != nil {
		// Internal invariant (we sized the array ourselves), but
		// contain rather than crash: surface it as an engine fault.
		err = newEngineFault(cerr)
	} else if !ok {
		err = errAborted
	}
	if err == nil && r.canceled() {
		err = errAborted
	}
	if p.span != nil {
		p.span.SetAttr("completed", err == nil)
	}
	s.stats.ConversionTime = r.endPhase(p, false)
	if err != nil {
		// Drop the partial array and stay in the DD phase (the state DD
		// is untouched), so the simulator remains queryable.
		s.led.AddFlat(-int64(len(s.state)) * 16)
		s.state = nil
		return err
	}
	s.stats.ConvertedAtGate = at
	if s.met != nil {
		s.met.phaseTransitions.Inc()
		s.met.convertedAt.Set(int64(at))
	}
	s.phase = PhaseDMAV
	s.eng = dmav.New(s.m, s.n, s.opts.Threads, s.opts.CacheMode)

	// Release the DD state: only gate matrices stay live from here on.
	s.sim.SetState(s.m.VZeroEdge())
	s.m.Collect(dd.Roots{})
	nc := s.m.NodeCount()
	s.led.ObserveDD(int64(nc), uint64(nc)*dd.NodeBytes)
	return nil
}

// fuse prepares the gates from index from on for the DMAV phase. A gate
// on at most block.Width qubits becomes its dense block, built from the
// circuit gate and never a DD; a wider gate becomes its DD. DMAV-aware
// fusion runs Algorithm 3 over them, composing blocks densely. Under
// AlwaysCache every gate runs Algorithm 2, which needs DDs: a block then
// gets one, the memoized ddsim.BuildGateDD of its gate or, for a fused
// product, dd.Manager.MultiQubitGate. KOps builds and fuses DDs.
func (r *run) fuse(from int) ([]fusion.Gate, error) {
	s := r.s
	p := r.beginPhase("phase.fuse")
	src := r.c.Gates[from:]
	gates := make([]fusion.Gate, 0, len(src))
	memo := gateMemo{}
	// Only distinct roots are GC roots: memo entries stay live with them.
	roots := dd.Roots{}
	keep := func(g dd.MEdge) dd.MEdge {
		roots.M = append(roots.M, g)
		s.m.CollectIfNeeded(roots)
		nc := s.m.NodeCount()
		s.led.ObserveDD(int64(nc), uint64(nc)*dd.NodeBytes)
		return g
	}
	ddOf := func(g *circuit.Gate) dd.MEdge {
		e, fresh := memo.build(s.m, s.n, g)
		if fresh {
			keep(e)
		}
		return e
	}
	var err error
	for j := range src {
		if r.canceled() {
			err = errAborted
			break
		}
		var b *block.Block
		if s.opts.Fusion != KOps {
			b = memo.block(&src[j])
		}
		if b != nil {
			gates = append(gates, fusion.Gate{Block: b})
		} else {
			gates = append(gates, fusion.Gate{DD: ddOf(&src[j])})
		}
	}
	if err == nil {
		switch s.opts.Fusion {
		case DMAVAware:
			res := fusion.FuseGates(s.n, gates)
			s.stats.FusionResult = &res
			gates = res.Gates
		case KOps:
			// Priced at K1, not at the engine's min(C1, C2): the plan does
			// not depend on the thread count.
			dds := make([]dd.MEdge, len(gates))
			for i, g := range gates {
				dds[i] = g.DD
			}
			kres := fusion.KOperations(s.m, dds, kopsBlock, fusion.MACCost())
			res := fusion.Result[fusion.Gate]{Runs: kres.Runs, CostBefore: kres.CostBefore,
				CostAfter: kres.CostAfter, Fusions: kres.Fusions}
			for _, g := range kres.Gates {
				res.Gates = append(res.Gates, fusion.Gate{DD: g})
			}
			s.stats.FusionResult = &res
			gates = res.Gates
		}
		if s.opts.CacheMode == dmav.AlwaysCache {
			j := 0
			for i, g := range gates {
				run := 1
				if res := s.stats.FusionResult; res != nil {
					run = res.Runs[i]
				}
				switch {
				case g.Block == nil:
				case run == 1:
					gates[i] = fusion.Gate{DD: ddOf(&src[j])}
				default:
					gates[i] = fusion.Gate{DD: keep(g.Block.DD(s.m, s.n))}
				}
				j += run
			}
		}
		s.stats.FusedGates = len(gates)
	}
	if p.span != nil {
		p.span.SetAttr("mode", s.opts.Fusion.String())
		p.span.SetAttr("gates_in", len(src))
		p.span.SetAttr("gates_out", len(gates))
	}
	s.stats.FusionTime = r.endPhase(p, true)
	return gates, err
}

// dmav applies the gates to the flat state on env's pool; gate is the
// circuit index of the first one.
func (r *run) dmav(env sched.Env, gates []fusion.Gate, gate int) error {
	s := r.s
	p := r.beginPhase("phase.dmav")
	env.Span = p.span
	s.eng.SetEnv(env)
	var err error
	sinceSweep := 0
	for _, g := range gates {
		if r.canceled() {
			err = errAborted
			break
		}
		gStart := time.Now()
		// A block runs in place; a DD runs into the engine's scratch
		// vector, which Step swaps with the state.
		out, serr := s.state, error(nil)
		if g.Block != nil {
			_, serr = s.eng.StepBlock(g.Block, s.state)
		} else {
			out, _, serr = s.eng.Step(g.DD, s.state)
		}
		if errors.Is(serr, dmav.ErrCanceled) {
			// Canceled mid-multiplication: the engine kept the pre-gate
			// state and discarded the gate. An in-place gate always
			// completes, so the abort lands at the next gate boundary.
			err = errAborted
			break
		}
		if serr != nil {
			// Caller-error path of Step; unreachable with the vector the
			// run owns, but contain it rather than drop it.
			err = newEngineFault(serr)
			break
		}
		s.state = out
		if s.met != nil {
			s.met.gatesDMAV.Inc()
			s.met.gateDMAVNs.Observe(time.Since(gStart).Nanoseconds())
		}
		if s.opts.Trace != nil {
			s.opts.Trace(TraceEvent{
				GateIndex: gate, Phase: PhaseDMAV, Duration: time.Since(gStart),
			})
		}
		gate++
		if ie := s.opts.IntegrityEvery; ie > 0 {
			sinceSweep++
			if sinceSweep >= ie {
				sinceSweep = 0
				if err = s.integritySweep(gate - 1); err != nil {
					break
				}
			}
		}
	}
	s.stats.DMAVStats = s.eng.Stats()
	if p.span != nil {
		p.span.SetAttr("gates", s.stats.DMAVStats.Gates)
		p.span.SetAttr("cached_gates", s.stats.DMAVStats.CachedGates)
		p.span.SetAttr("cache_hits", s.stats.DMAVStats.CacheHits)
		p.span.SetAttr("aborted", errors.Is(err, errAborted))
	}
	s.stats.DMAVTime = r.endPhase(p, false)
	return err
}

// end finishes the run's statistics on every terminal path — completion,
// abort, drift or engine fault — and returns them with err, where
// errAborted becomes ErrDeadlineExceeded or ErrCanceled by the context's
// cause. Stats.TimedOut is set for deadline aborts.
func (r *run) end(err error) (Stats, error) {
	s := r.s
	if errors.Is(err, errAborted) {
		err = ErrCanceled
		if errors.Is(r.ctx.Err(), context.DeadlineExceeded) {
			err = ErrDeadlineExceeded
			s.stats.TimedOut = true
			if s.met != nil {
				s.met.deadlineAborts.Inc()
			}
		} else if s.met != nil {
			s.met.cancelAborts.Inc()
		}
	}
	s.stats.TotalTime = time.Since(r.start)
	s.stats.PeakDDNodes = s.m.PeakNodeCount()
	s.led.End()
	snap := s.led.Snapshot()
	s.stats.Resources = &snap
	// Working-set estimate: DD nodes at the blended per-node footprint
	// (dd.NodeBytes) plus the flat arrays' high-water — state, scratch
	// and the DMAV partial-output buffers, as the ledger saw them.
	s.stats.MemoryBytes = uint64(s.stats.PeakDDNodes) * dd.NodeBytes
	var flat uint64
	for _, pc := range snap.Phases {
		flat = max(flat, pc.PeakFlatBytes)
	}
	s.stats.MemoryBytes += flat
	return s.stats, err
}

// gateMemo memoizes, for one run, each gate's DD (ddsim.BuildGateDD) and
// its dense block (block.Of). The key is what both depend on: the bits of
// the gate's matrix, its targets in order, and each control's qubit and
// polarity. The gate's name is not in it, so two spellings of one matrix
// share an entry, and two matrices that differ in one bit do not. A
// repeated gate shares one Block, so the DMAV engine compiles it once.
type gateMemo struct {
	byKey  map[string]dd.MEdge
	blocks map[string]*block.Block
	key    []byte
}

// keyOf sets b.key to g's key and returns it.
func (b *gateMemo) keyOf(g *circuit.Gate) []byte {
	k := binary.AppendUvarint(b.key[:0], uint64(len(g.Targets)))
	for _, t := range g.Targets {
		k = binary.AppendUvarint(k, uint64(t))
	}
	k = binary.AppendUvarint(k, uint64(len(g.Controls)))
	for _, c := range g.Controls {
		q := uint64(c.Qubit) << 1
		if c.Negative {
			q |= 1
		}
		k = binary.AppendUvarint(k, q)
	}
	for _, row := range g.U {
		for _, u := range row {
			k = binary.LittleEndian.AppendUint64(k, math.Float64bits(real(u)))
			k = binary.LittleEndian.AppendUint64(k, math.Float64bits(imag(u)))
		}
	}
	b.key = k
	return k
}

// build returns the gate's DD and whether this call built it.
func (b *gateMemo) build(m *dd.Manager, n int, g *circuit.Gate) (dd.MEdge, bool) {
	k := b.keyOf(g)
	if e, ok := b.byKey[string(k)]; ok {
		return e, false
	}
	e := ddsim.BuildGateDD(m, n, g)
	if b.byKey == nil {
		b.byKey = map[string]dd.MEdge{}
	}
	b.byKey[string(k)] = e
	return e, true
}

// block returns the gate's dense block, or nil when the gate acts on more
// than block.Width qubits.
func (b *gateMemo) block(g *circuit.Gate) *block.Block {
	if len(g.Targets)+len(g.Controls) > block.Width {
		return nil
	}
	k := b.keyOf(g)
	if blk, ok := b.blocks[string(k)]; ok {
		return blk
	}
	blk := block.Of(g)
	if b.blocks == nil {
		b.blocks = map[string]*block.Block{}
	}
	b.blocks[string(k)] = blk
	return blk
}

// conversionBlocked decides, at the moment the controller fires, whether
// the DD→flat conversion may proceed. It returns "" to allow it, or the
// degradation reason: "register_too_wide" when the register is above the
// DMAV engine's ceiling (a flat array that size cannot be allocated, and
// the allocation failure would be fatal, not a recoverable error),
// "alloc_failed" when the (injected) flat-array allocation fails,
// "memory_budget" when the flat working set would exceed
// Options.MemoryBudget.
func (s *Simulator) conversionBlocked() string {
	if s.n > dmav.MaxQubits {
		return "register_too_wide"
	}
	if s.convertAlloc.Err() != nil {
		return "alloc_failed"
	}
	if b := s.opts.MemoryBudget; b > 0 && dmav.FlatBytes(s.n, s.opts.Threads, s.opts.CacheMode) > b {
		return "memory_budget"
	}
	return ""
}

// integritySweep scans the flat state for NaN/Inf amplitudes and checks
// the norm against 1 within integrityTol. NaN/Inf amplitudes are excluded
// from the norm and counted separately.
func (s *Simulator) integritySweep(gate int) error {
	if s.met != nil {
		s.met.integrityChecks.Inc()
	}
	var norm float64
	nans, infs := 0, 0
	for _, a := range s.state {
		re, im := real(a), imag(a)
		if math.IsNaN(re) || math.IsNaN(im) {
			nans++
			continue
		}
		if math.IsInf(re, 0) || math.IsInf(im, 0) {
			infs++
			continue
		}
		norm += re*re + im*im
	}
	if nans == 0 && infs == 0 && math.Abs(norm-1) <= integrityTol {
		return nil
	}
	if s.met != nil {
		s.met.driftAborts.Inc()
	}
	return &DriftError{Gate: gate, Norm: norm, NaNs: nans, Infs: infs}
}

// Amplitude returns one amplitude of the final state.
func (s *Simulator) Amplitude(idx uint64) complex128 {
	if s.phase == PhaseDMAV {
		return s.state[idx]
	}
	return s.sim.Amplitude(idx)
}

// Amplitudes returns the full final state vector. In the DD phase the
// state is converted on demand with the parallel algorithm, in the same
// environment as a run's conversion (Options.Pool when set).
func (s *Simulator) Amplitudes() []complex128 {
	if s.phase == PhaseDMAV {
		return s.state
	}
	env, release := s.flatEnv(nil)
	defer release()
	out := make([]complex128, uint64(1)<<uint(s.n))
	// Neither result can report a failure: out has length 2^n and the
	// environment has no cancellation probe.
	_, _ = convert.ParallelIntoEnv(s.sim.State(), s.n, out, &env)
	return out
}

// flatEnv returns the environment the flat phase runs in, carrying the
// run's metrics and faults: Options.Pool when set, otherwise a transient
// pool of Threads workers, which release closes.
func (s *Simulator) flatEnv(cancel func() bool) (env sched.Env, release func()) {
	env = sched.Env{Pool: s.opts.Pool, Cancel: cancel, Metrics: s.opts.Metrics, Faults: s.opts.Faults}
	if env.Pool != nil {
		return env, func() {}
	}
	env.Pool = sched.New(s.opts.Threads)
	return env, env.Pool.Close
}

// TopAmplitudes returns the k largest-magnitude basis states of the final
// state, in descending magnitude order with ties broken by lower index.
// In the DD phase this is a branch-and-bound query on the diagram (no 2^n
// expansion); after conversion it is one pass over the flat array with a
// k-entry heap — O(2^n) time, O(k) memory.
func (s *Simulator) TopAmplitudes(k int) []dd.AmpEntry {
	if s.phase == PhaseDD {
		return s.m.TopAmplitudes(s.sim.State(), s.n, k)
	}
	return topAmplitudes(s.state, k)
}

// topAmplitudes selects the k largest nonzero entries of amps by
// |amplitude|, ties to the lower index. The heap keeps the k best seen so
// far with the worst on top; the scan visits indices in ascending order,
// so an entry displaces the top only when strictly larger.
func topAmplitudes(amps []complex128, k int) []dd.AmpEntry {
	if k <= 0 {
		return nil
	}
	var h ampHeap
	// floor is a cheap lower bound on the squared magnitude an entry needs
	// once the heap is full, so nearly every amplitude is rejected on two
	// multiplies without the exact cmplx.Abs.
	floor := 0.0
	for i, a := range amps {
		if a == 0 || real(a)*real(a)+imag(a)*imag(a) < floor {
			continue
		}
		mag := cmplx.Abs(a)
		switch {
		case len(h.e) < k:
			heap.Push(&h, ampMag{dd.AmpEntry{Index: uint64(i), Amplitude: a}, mag})
		case mag > h.e[0].mag:
			h.e[0] = ampMag{dd.AmpEntry{Index: uint64(i), Amplitude: a}, mag}
			heap.Fix(&h, 0)
		default:
			continue
		}
		if len(h.e) == k {
			floor = h.e[0].mag * h.e[0].mag * (1 - 1e-9)
		}
	}
	sort.Slice(h.e, func(i, j int) bool { return h.Less(j, i) })
	out := make([]dd.AmpEntry, len(h.e))
	for i, e := range h.e {
		out[i] = e.AmpEntry
	}
	return out
}

// ampMag is a heap entry: a basis state with its magnitude computed once.
type ampMag struct {
	dd.AmpEntry
	mag float64
}

// ampHeap is a min-heap of the best entries seen: Less means "ranks
// later", i.e. smaller magnitude, or equal magnitude and higher index.
type ampHeap struct{ e []ampMag }

func (h *ampHeap) Len() int { return len(h.e) }
func (h *ampHeap) Less(i, j int) bool {
	if h.e[i].mag != h.e[j].mag {
		return h.e[i].mag < h.e[j].mag
	}
	return h.e[i].Index > h.e[j].Index
}
func (h *ampHeap) Swap(i, j int)      { h.e[i], h.e[j] = h.e[j], h.e[i] }
func (h *ampHeap) Push(x interface{}) { h.e = append(h.e, x.(ampMag)) }
func (h *ampHeap) Pop() interface{} {
	last := h.e[len(h.e)-1]
	h.e = h.e[:len(h.e)-1]
	return last
}

// Probabilities returns |amplitude|^2 for every basis state.
func (s *Simulator) Probabilities() []float64 {
	amps := s.Amplitudes()
	out := make([]float64, len(amps))
	for i, a := range amps {
		out[i] = real(a)*real(a) + imag(a)*imag(a)
	}
	return out
}

// Sample draws basis states from the final distribution. The shots
// uniforms are drawn first and sorted, then one pass over the amplitudes
// accumulates the cumulative probability in index order and hands every
// draw to the first state whose cumulative value exceeds it (draws at or
// beyond the total fall through to the last state). That is
// O(2^n + shots·log shots) time and O(shots) memory: no probability or
// cumulative array is materialized.
func (s *Simulator) Sample(rng *rand.Rand, shots int) map[uint64]int {
	counts := make(map[uint64]int)
	if shots <= 0 {
		return counts
	}
	xs := make([]float64, shots)
	for k := range xs {
		xs[k] = rng.Float64()
	}
	sort.Float64s(xs)
	amps := s.Amplitudes()
	acc := 0.0
	next := 0
	for i, a := range amps {
		acc += real(a)*real(a) + imag(a)*imag(a)
		if xs[next] < acc {
			first := next
			for next < shots && xs[next] < acc {
				next++
			}
			counts[uint64(i)] += next - first
			if next == shots {
				return counts
			}
		}
	}
	counts[uint64(len(amps)-1)] += shots - next
	return counts
}
