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
	"errors"
	"fmt"
	"io"
	"math"
	"math/cmplx"
	"math/rand"
	"runtime/debug"
	"sort"
	"time"

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
	"flatdd/internal/statevec"
)

// Sentinel errors returned by RunContext when a run terminates early.
// Both wrap their context counterparts, so errors.Is(err, context.Canceled)
// and errors.Is(err, context.DeadlineExceeded) also hold.
var (
	// ErrCanceled reports that the run's context was canceled. The
	// simulator stays queryable: its state is the one left by the last
	// fully applied gate (a partially applied gate is discarded).
	ErrCanceled = fmt.Errorf("core: simulation canceled: %w", context.Canceled)
	// ErrDeadlineExceeded reports that the run's deadline passed (either
	// the context's deadline or the deprecated Options.Deadline). It plays
	// the role of the paper's 24-hour cutoff.
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

// FlatWorkingSetBytes returns the flat-array phase's working set for an
// n-qubit register: state plus scratch vector, 16 bytes per amplitude
// each. This is the figure Options.MemoryBudget is compared against at
// conversion time (the DD-phase node memory is comparatively small and
// already spent by then).
func FlatWorkingSetBytes(n int) uint64 { return 32 << uint(n) }

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
	// DMAVAware is the paper's Algorithm 3.
	DMAVAware
	// KOps is the k-operations baseline [100].
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
	// value is accepted (the DMAV engine caps it at 2^n); it is no
	// longer rounded to a power of two. When Pool is set, Threads is
	// ignored: the pool's worker count drives both execution and the
	// cost model (see Pool).
	Threads int
	// Pool, when non-nil, is the scheduler pool conversion and DMAV run
	// on. Its worker count is authoritative: execution happens on the
	// pool, so the cost model's thread count is derived from
	// Pool.Threads() and any Threads value is overridden — callers no
	// longer need to keep the two fields in sync. The caller keeps
	// ownership of the pool's lifetime. When nil, the run creates a
	// pool of Threads workers for its duration.
	Pool *sched.Pool
	// DDThreads enables task-parallel gate application in the DD phase:
	// when > 1, each gate's DD multiplication is decomposed into
	// independent sub-DD recursions on a scheduler pool (results are
	// bit-identical to the sequential path, see dd.MulMVParallel). When
	// Pool is set it is shared with the DD phase and its worker count is
	// authoritative; otherwise the run creates a DD-phase pool of
	// DDThreads workers. 0 or 1 keeps the DD phase sequential (the
	// default, and the paper's DDSIM-phase behaviour).
	DDThreads int
	// Beta and Epsilon parameterize the EWMA conversion controller
	// (defaults 0.9 and 2).
	Beta, Epsilon float64
	// CacheMode sets the DMAV caching policy (default: cost-model Auto).
	CacheMode dmav.Mode
	// Fusion selects the gate-fusion pass for the DMAV phase.
	Fusion FusionMode
	// K is the block size for FusionMode KOps (default 4).
	K int
	// ForceConvertAfter forces conversion right after this many gates,
	// bypassing the controller (used by experiments). Negative means "use
	// the controller".
	ForceConvertAfter int
	// DisableConversion pins the simulation to the DD phase (the pure
	// DDSIM behaviour), regardless of the controller.
	DisableConversion bool
	// SequentialConversion uses the sequential DDSIM-style DD-to-array
	// conversion instead of the parallel algorithm (Figure 13 ablation).
	SequentialConversion bool
	// Trace, when non-nil, receives one event per gate. It is backed by the
	// same per-gate event stream as TraceJSONL; both may be set.
	Trace func(TraceEvent)
	// TraceJSONL, when non-nil, receives the per-gate event stream as JSON
	// Lines: one {"event":"gate",...} object per gate and a final
	// {"event":"run",...} summary. The schema is documented in DESIGN.md
	// ("Observability"). The writer is flushed when Run returns; closing
	// the underlying file stays the caller's job.
	TraceJSONL io.Writer
	// TraceWriter, when non-nil, receives the per-gate event stream on an
	// existing shared writer instead of wrapping TraceJSONL in a private
	// one. Use it when the same sink also carries request spans (the
	// serve layer, or a CLI tracing whole runs): one writer means one
	// buffer and no interleaving corruption. Takes precedence over
	// TraceJSONL; flushing on run end still happens, closing stays the
	// owner's job.
	TraceWriter *obs.TraceWriter
	// Metrics, when non-nil, wires every engine layer (dd unique/compute
	// tables, cnum, conversion, DMAV, the EWMA controller and this
	// simulator's phase loop) into the registry. When nil, the hot paths
	// pay one pointer check per instrumentation site and nothing else.
	Metrics *obs.Registry
	// Deadline, when non-zero, aborts the run once exceeded.
	//
	// Deprecated: pass a deadline on RunContext's context instead
	// (context.WithDeadline / context.WithTimeout). The field is kept for
	// compatibility and mapped onto the run context internally; a run
	// whose deadline passes returns ErrDeadlineExceeded and sets
	// Stats.TimedOut.
	Deadline time.Time
	// GCThreshold overrides the DD manager's node-count GC trigger.
	GCThreshold int
	// ApproxBudget, when positive, enables DD state approximation [97]
	// during the DD phase: whenever the state DD exceeds ApproxThreshold
	// nodes, edges carrying up to ApproxBudget probability mass are pruned.
	// The cumulative fidelity is reported in Stats.Fidelity. This is an
	// extension beyond the paper (which simulates exactly); it trades
	// bounded fidelity loss for a smaller DD and a later conversion.
	ApproxBudget float64
	// ApproxThreshold is the node count above which approximation kicks in
	// (default 256 when ApproxBudget > 0).
	ApproxThreshold int
	// MemoryBudget, when positive, caps the flat-array working set in
	// bytes. If FlatWorkingSetBytes(n) exceeds the budget when the
	// conversion controller fires, the conversion is suppressed and the
	// run completes in the DD phase — graceful degradation: correct
	// results, recorded in Stats.Degraded and the core.degraded metric,
	// instead of an allocation the host cannot afford.
	MemoryBudget uint64
	// IntegrityEvery, when positive, runs a numerical-integrity sweep
	// (NaN/Inf scan + norm check) over the flat state every IntegrityEvery
	// DMAV gates. A failing sweep aborts the run with ErrNumericalDrift.
	IntegrityEvery int
	// IntegrityTol is the allowed |norm−1| deviation for the sweep
	// (default 1e-6). The norm check is skipped when ApproxBudget > 0,
	// since approximation legitimately sheds probability mass; NaN/Inf
	// detection stays on.
	IntegrityTol float64
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
	// ledger-based admission does).
	Ledger *obs.ResourceLedger
}

func (o *Options) withDefaults() Options {
	v := *o
	if v.Pool != nil {
		// The injected pool's worker count is authoritative: execution
		// runs on the pool, so the cost model must see the same
		// parallelism or its caching decisions model a machine that
		// isn't there.
		v.Threads = v.Pool.Threads()
	}
	if v.Threads < 1 {
		v.Threads = 1
	}
	if v.K < 1 {
		v.K = 4
	}
	if v.ForceConvertAfter == 0 && !v.DisableConversion {
		// Zero value means "controller decides" unless explicitly set; we
		// reserve negative for that and treat 0 as unset.
		v.ForceConvertAfter = -1
	}
	if v.ApproxBudget > 0 && v.ApproxThreshold <= 0 {
		v.ApproxThreshold = 256
	}
	if v.IntegrityEvery > 0 && v.IntegrityTol <= 0 {
		v.IntegrityTol = 1e-6
	}
	return v
}

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
	// run in DMAV, no conversion happens, and Converted stays false — see
	// the `convertNow && i+1 < len(c.Gates)` guard in Run.
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
	// gate matrices as DDs and, when enabled, the fusion pass itself.
	FusionTime time.Duration
	DMAVTime   time.Duration
	TotalTime  time.Duration

	PeakDDNodes   int
	FusedGates    int // gates executed in the DMAV phase after fusion
	DMAVStats     dmav.Stats
	MemoryBytes   uint64 // working-set estimate (DD nodes + flat arrays)
	FusionResult  *fusion.Result
	FinalDDSize   int // state-DD size at conversion (or at the end if never converted)
	ModeledCost   float64
	ControllerEnd float64 // EWMA value when conversion fired
	TimedOut      bool
	// Fidelity is a guaranteed lower bound on |<exact|simulated>|^2 after
	// any state approximations (1 when approximation is off). Per-step
	// fidelities f_i compose through the angle metric:
	// F >= cos^2(sum_i arccos(sqrt(f_i))).
	Fidelity float64
	// Approximations counts how many pruning passes ran.
	Approximations int
	// Degraded reports that the run suppressed its DD→flat conversion and
	// completed DD-only (graceful degradation); DegradedReason says why:
	// "memory_budget" (flat working set over Options.MemoryBudget) or
	// "alloc_failed" (flat-array allocation failure, injected or real).
	Degraded       bool
	DegradedReason string
	// IntegrityChecks counts the DMAV-phase integrity sweeps performed.
	IntegrityChecks int
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
	buf   []complex128

	// approxAngle accumulates arccos(sqrt(f_i)) over approximation steps.
	approxAngle float64

	// suppressConvert pins the run to the DD phase after a degradation
	// decision (the controller may keep firing; it must not re-trigger).
	suppressConvert bool

	// convertAlloc is the simulated-allocation-failure injection point
	// (nil in production).
	convertAlloc *faults.Point

	stats Stats

	// Observability (nil when Options.Metrics / Options.TraceJSONL are
	// unset). led is never nil: New falls back to a private ledger so
	// resource attribution is always available in Stats.Resources.
	met *coreMetrics
	tw  *obs.TraceWriter
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

// traceRecord is the JSONL wire form of one per-gate event.
type traceRecord struct {
	Event      string  `json:"event"` // "gate"
	Gate       int     `json:"gate"`
	Phase      string  `json:"phase"` // "dd" | "dmav"
	DDSize     int     `json:"dd_size"`
	EWMA       float64 `json:"ewma"`
	DurationNs int64   `json:"duration_ns"`
	Converted  bool    `json:"converted"`
}

// runRecord is the JSONL summary line emitted once at the end of a run.
type runRecord struct {
	Event       string  `json:"event"` // "run"
	Gates       int     `json:"gates"`
	ConvertedAt int     `json:"converted_at"`
	FinalPhase  string  `json:"final_phase"`
	TotalNs     int64   `json:"total_ns"`
	PeakDDNodes int     `json:"peak_dd_nodes"`
	TimedOut    bool    `json:"timed_out"`
	Fidelity    float64 `json:"fidelity"`
}

// New returns a simulator for n qubits.
func New(n int, opts Options) *Simulator {
	o := opts.withDefaults()
	m := dd.New(n)
	if o.GCThreshold > 0 {
		m.SetGCThreshold(o.GCThreshold)
	}
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
	if o.TraceWriter != nil {
		s.tw = o.TraceWriter
	} else if o.TraceJSONL != nil {
		s.tw = obs.NewTraceWriter(o.TraceJSONL)
	}
	return s
}

// emitTrace fans one per-gate event out to the callback and the JSONL
// writer (whichever are configured).
func (s *Simulator) emitTrace(ev TraceEvent) {
	if s.opts.Trace != nil {
		s.opts.Trace(ev)
	}
	if s.tw != nil {
		s.tw.Emit(traceRecord{
			Event:      "gate",
			Gate:       ev.GateIndex,
			Phase:      ev.Phase.String(),
			DDSize:     ev.DDSize,
			EWMA:       ev.EWMA,
			DurationNs: ev.Duration.Nanoseconds(),
			Converted:  ev.Converted,
		})
	}
}

// tracing reports whether per-gate events need to be materialized.
func (s *Simulator) tracing() bool { return s.opts.Trace != nil || s.tw != nil }

// Qubits returns the register size.
func (s *Simulator) Qubits() int { return s.n }

// EffectiveThreads returns the thread count the engines and the DMAV cost
// model actually use: Options.Pool's worker count when a pool was
// injected, otherwise max(1, Options.Threads).
func (s *Simulator) EffectiveThreads() int { return s.opts.Threads }

// Phase returns the current engine phase.
func (s *Simulator) Phase() Phase { return s.phase }

// Stats returns the statistics of the last Run.
func (s *Simulator) Stats() Stats { return s.stats }

// Run simulates the circuit from |0...0> and returns the final statistics.
// Run may be called once per Simulator. It is a thin compatibility wrapper
// around RunContext: a run aborted by the deprecated Options.Deadline is
// reported through Stats.TimedOut, exactly as before.
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
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			ef := newEngineFault(r)
			if s.met != nil {
				s.met.engineFaults.Inc()
			}
			s.finishStats(start)
			st, err = s.stats, ef
		}
	}()
	return s.runContext(ctx, c, start)
}

// runContext is RunContext's body; the split keeps the containment
// barrier (and the deferred recover's cost) out of the phase loops.
func (s *Simulator) runContext(ctx context.Context, c *circuit.Circuit, start time.Time) (Stats, error) {
	if !s.opts.Deadline.IsZero() {
		// Deprecated Options.Deadline maps onto the run context.
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, s.opts.Deadline)
		defer cancel()
	}
	done := ctx.Done()
	check := func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	// taskCheck is handed to the conversion planner and the DMAV engine.
	// It is nil for a context that can never be canceled, which lets the
	// hot paths skip the per-task probe entirely.
	var taskCheck func() bool
	if done != nil {
		taskCheck = check
	}
	s.stats = Stats{Gates: c.GateCount(), ConvertedAtGate: -1, Fidelity: 1}
	ctl := ewma.New(s.opts.Beta, s.opts.Epsilon)
	if s.met != nil {
		ctl.Gauge = s.met.ewma
	}

	// Request tracing: a span carried on the context (the serve layer's
	// per-attempt "run" span, or a CLI root) parents one child span per
	// phase. A context without a span makes every Child call a nil no-op,
	// so the tracing-off cost is one context lookup per run.
	span := obs.SpanFromContext(ctx)

	// Phase 1: DD-based simulation with conversion monitoring.
	ddSpan := span.Child("phase.dd")
	s.led.Begin("dd")
	if s.opts.DDThreads > 1 {
		ddPool := s.opts.Pool
		if ddPool == nil {
			ddPool = sched.New(s.opts.DDThreads)
			ddPool.SetMetrics(s.opts.Metrics)
			ddPool.SetFaults(s.opts.Faults)
			defer ddPool.Close()
		}
		if ddPool.Threads() > 1 {
			if ddSpan != nil {
				ddSpan.SetAttr("dd_threads", ddPool.Threads())
			}
			s.sim.SetParallelism(func(tasks []func()) {
				ddPool.RunSpanned(ddSpan, "dd.frontier", tasks)
			}, ddPool.Threads())
		}
	}
	endDD := func(gates int) {
		// The DD loop is sequential on this goroutine, so its CPU time is
		// its wall time (already computed into Stats.DDTime by callers).
		s.led.AddCPU(s.stats.DDTime.Nanoseconds())
		pc, _ := s.led.End()
		if ddSpan == nil {
			return
		}
		ddSpan.SetAttr("gates", gates)
		ddSpan.SetAttr("dd_size", s.stats.FinalDDSize)
		ddSpan.SetAttr("ewma", s.stats.ControllerEnd)
		ddSpan.SetAttr("cpu_ns", pc.CPUNs)
		ddSpan.SetAttr("alloc_bytes", pc.AllocBytes)
		if s.stats.Degraded {
			ddSpan.SetAttr("degraded", s.stats.DegradedReason)
		}
		ddSpan.End()
	}
	i := 0
	for ; i < len(c.Gates); i++ {
		if check() {
			s.stats.DDTime = time.Since(start)
			s.stats.FinalDDSize = s.sim.StateSize()
			s.stats.ControllerEnd = ctl.Average()
			endDD(i)
			return s.abort(ctx, start)
		}
		gStart := time.Now()
		size := s.sim.ApplyGate(&c.Gates[i])
		if s.opts.ApproxBudget > 0 && size > s.opts.ApproxThreshold {
			approx, fid := s.m.Approximate(s.sim.State(), s.n, s.opts.ApproxBudget)
			if fid < 1 {
				s.sim.SetState(approx)
				s.approxAngle += math.Acos(math.Sqrt(math.Max(0, math.Min(1, fid))))
				s.stats.Approximations++
				size = s.m.VSize(approx)
			}
		}
		s.led.ObserveDD(int64(size), uint64(size)*dd.NodeBytes)
		convertNow := ctl.Observe(size)
		if s.opts.DisableConversion || s.suppressConvert {
			convertNow = false
		} else if s.opts.ForceConvertAfter >= 0 {
			convertNow = i+1 >= s.opts.ForceConvertAfter
		}
		if convertNow && i+1 < len(c.Gates) {
			// Graceful degradation: decided at the fire site, before the
			// trace event, so the Converted flag reflects what happened.
			if reason := s.conversionBlocked(); reason != "" {
				s.degrade(reason)
				convertNow = false
			}
		}
		if s.met != nil {
			s.met.gatesDD.Inc()
			s.met.ddSize.Set(int64(size))
			s.met.gateDDNs.Observe(time.Since(gStart).Nanoseconds())
		}
		if s.tracing() {
			s.emitTrace(TraceEvent{
				GateIndex: i, Phase: PhaseDD, DDSize: size, EWMA: ctl.Average(),
				Duration: time.Since(gStart), Converted: convertNow && i+1 < len(c.Gates),
			})
		}
		if convertNow && i+1 < len(c.Gates) {
			i++
			break
		}
	}
	s.stats.DDTime = time.Since(start)
	s.stats.FinalDDSize = s.sim.StateSize()
	s.stats.ControllerEnd = ctl.Average()
	endDD(i)

	if i >= len(c.Gates) {
		// Whole circuit ran in the DD phase.
		s.finishStats(start)
		return s.stats, nil
	}

	// Phase 2: convert the state DD to a flat array.
	// One scheduler pool serves the whole flat-array phase — conversion
	// and every DMAV gate — instead of per-gate goroutine churn.
	pool := s.opts.Pool
	if pool == nil {
		pool = sched.New(s.opts.Threads)
		pool.SetMetrics(s.opts.Metrics)
		pool.SetFaults(s.opts.Faults)
		defer pool.Close()
	}
	convSpan := span.Child("phase.convert")
	if convSpan != nil {
		convSpan.SetAttr("amps", uint64(1)<<uint(s.n))
		convSpan.SetAttr("sequential", s.opts.SequentialConversion)
	}
	s.led.Begin("convert")
	convStart := time.Now()
	s.state = make([]complex128, uint64(1)<<uint(s.n))
	s.led.AddFlat(int64(len(s.state)) * 16)
	converted := true
	if s.opts.SequentialConversion {
		s.m.FillArray(s.sim.State(), s.n, s.state)
		converted = !check()
		s.led.AddCPU(time.Since(convStart).Nanoseconds())
	} else {
		ok, cerr := convert.ParallelIntoPoolTracked(s.sim.State(), s.n, pool, s.state,
			convert.NewMetrics(s.opts.Metrics), taskCheck, convSpan, s.led)
		if cerr != nil {
			// Internal invariant (we sized the array ourselves), but
			// contain rather than crash: surface it as an engine fault.
			s.led.AddFlat(-int64(len(s.state)) * 16)
			s.state = nil
			convSpan.End()
			s.finishStats(start)
			return s.stats, newEngineFault(cerr)
		}
		converted = ok && !check()
	}
	s.stats.ConversionTime = time.Since(convStart)
	convCost, _ := s.led.End()
	if convSpan != nil {
		convSpan.SetAttr("completed", converted)
		convSpan.SetAttr("cpu_ns", convCost.CPUNs)
		convSpan.SetAttr("alloc_bytes", convCost.AllocBytes)
		convSpan.End()
	}
	if !converted {
		// Aborted mid-conversion: drop the partial array and stay in the
		// DD phase (the state DD is untouched), so the simulator remains
		// queryable.
		s.led.AddFlat(-int64(len(s.state)) * 16)
		s.state = nil
		return s.abort(ctx, start)
	}
	s.stats.ConvertedAtGate = i
	if s.met != nil {
		s.met.phaseTransitions.Inc()
		s.met.convertedAt.Set(int64(i))
	}
	s.phase = PhaseDMAV
	s.buf = make([]complex128, len(s.state))
	s.led.AddFlat(int64(len(s.buf)) * 16)
	s.eng = dmav.New(s.m, s.n, s.opts.Threads, s.opts.CacheMode)
	s.eng.SetMetrics(s.opts.Metrics)
	s.eng.SetPool(pool)
	s.eng.SetCancel(taskCheck)
	s.eng.SetFaults(s.opts.Faults)
	s.eng.SetLedger(s.led)

	// Release the DD state: only gate matrices stay live from here on.
	s.sim.SetState(s.m.VZeroEdge())
	s.m.Collect(dd.Roots{})
	nc := s.m.NodeCount()
	s.led.ObserveDD(int64(nc), uint64(nc)*dd.NodeBytes)

	// Phase 3: build (and optionally fuse) the remaining gate matrices.
	fuseSpan := span.Child("phase.fuse")
	s.led.Begin("fuse")
	fuseStart := time.Now()
	remaining := make([]dd.MEdge, 0, len(c.Gates)-i)
	endFuse := func() {
		// The fuse pass is sequential on this goroutine: wall == CPU.
		s.led.AddCPU(s.stats.FusionTime.Nanoseconds())
		pc, _ := s.led.End()
		if fuseSpan == nil {
			return
		}
		fuseSpan.SetAttr("mode", s.opts.Fusion.String())
		fuseSpan.SetAttr("gates_in", len(c.Gates)-i)
		fuseSpan.SetAttr("gates_out", len(remaining))
		fuseSpan.SetAttr("cpu_ns", pc.CPUNs)
		fuseSpan.SetAttr("alloc_bytes", pc.AllocBytes)
		fuseSpan.End()
	}
	roots := dd.Roots{}
	for j := i; j < len(c.Gates); j++ {
		if check() {
			s.stats.FusionTime = time.Since(fuseStart)
			endFuse()
			return s.abort(ctx, start)
		}
		g := ddsim.BuildGateDD(s.m, s.n, &c.Gates[j])
		remaining = append(remaining, g)
		roots.M = append(roots.M, g)
		s.m.CollectIfNeeded(roots)
		nc := s.m.NodeCount()
		s.led.ObserveDD(int64(nc), uint64(nc)*dd.NodeBytes)
	}
	costFn := func(g dd.MEdge) float64 { return s.eng.EvaluateCost(g).Cost() }
	switch s.opts.Fusion {
	case DMAVAware:
		res := fusion.Fuse(s.m, remaining, costFn)
		s.stats.FusionResult = &res
		remaining = res.Gates
	case KOps:
		res := fusion.KOperations(s.m, remaining, s.opts.K, costFn)
		s.stats.FusionResult = &res
		remaining = res.Gates
	}
	s.stats.FusionTime = time.Since(fuseStart)
	s.stats.FusedGates = len(remaining)
	// Projection for admission release: from here to the end of the run
	// the job needs the state+scratch arrays, the DMAV cached path's
	// partial buffers (one register's worth when caching is possible),
	// and the surviving gate-matrix DDs — far below the 48·2^n worst
	// case for most circuits.
	proj := uint64(32) << uint(s.n)
	if s.opts.CacheMode != dmav.NeverCache {
		proj += uint64(16) << uint(s.n)
	}
	proj += uint64(s.m.NodeCount()) * dd.NodeBytes
	s.led.SetProjection(proj)
	endFuse()

	// Phase 4: DMAV over the flat state.
	dmavSpan := span.Child("phase.dmav")
	s.eng.SetSpan(dmavSpan)
	s.led.Begin("dmav")
	dmavStart := time.Now()
	gateIdx := i
	aborted := false
	sinceSweep := 0
	var runErr error
	for _, g := range remaining {
		if check() {
			aborted = true
			break
		}
		gStart := time.Now()
		cost, aerr := s.eng.Apply(g, s.state, s.buf)
		if aerr != nil {
			// Caller-error path of Apply; unreachable with the vectors the
			// run owns, but contain it rather than drop it.
			runErr = newEngineFault(aerr)
			break
		}
		if check() {
			// Canceled mid-multiplication: s.buf holds a partial product,
			// so keep the pre-gate state and discard the gate.
			aborted = true
			break
		}
		s.state, s.buf = s.buf, s.state
		s.stats.ModeledCost += cost.Cost()
		if s.met != nil {
			s.met.gatesDMAV.Inc()
			s.met.gateDMAVNs.Observe(time.Since(gStart).Nanoseconds())
		}
		if s.tracing() {
			s.emitTrace(TraceEvent{
				GateIndex: gateIdx, Phase: PhaseDMAV, Duration: time.Since(gStart),
			})
		}
		gateIdx++
		if ie := s.opts.IntegrityEvery; ie > 0 {
			sinceSweep++
			if sinceSweep >= ie {
				sinceSweep = 0
				if err := s.integritySweep(gateIdx - 1); err != nil {
					runErr = err
					break
				}
			}
		}
	}
	s.stats.DMAVTime = time.Since(dmavStart)
	s.stats.DMAVStats = s.eng.Stats()
	dmavCost, _ := s.led.End()
	if dmavSpan != nil {
		dmavSpan.SetAttr("gates", s.stats.DMAVStats.Gates)
		dmavSpan.SetAttr("cached_gates", s.stats.DMAVStats.CachedGates)
		dmavSpan.SetAttr("cache_hits", s.stats.DMAVStats.CacheHits)
		dmavSpan.SetAttr("aborted", aborted)
		dmavSpan.SetAttr("cpu_ns", dmavCost.CPUNs)
		dmavSpan.SetAttr("alloc_bytes", dmavCost.AllocBytes)
		dmavSpan.End()
	}
	if runErr != nil {
		s.finishStats(start)
		return s.stats, runErr
	}
	if aborted {
		return s.abort(ctx, start)
	}
	s.finishStats(start)
	return s.stats, nil
}

// conversionBlocked decides, at the moment the controller fires, whether
// the DD→flat conversion may proceed. It returns "" to allow it, or the
// degradation reason: "alloc_failed" when the (injected) flat-array
// allocation fails, "memory_budget" when the flat working set would
// exceed Options.MemoryBudget.
func (s *Simulator) conversionBlocked() string {
	if s.convertAlloc.Err() != nil {
		return "alloc_failed"
	}
	if b := s.opts.MemoryBudget; b > 0 && FlatWorkingSetBytes(s.n) > b {
		return "memory_budget"
	}
	return ""
}

// degrade records the degradation decision and pins the run to the DD
// phase (results stay exact; only the flat-array speedup is lost).
func (s *Simulator) degrade(reason string) {
	s.suppressConvert = true
	s.stats.Degraded = true
	s.stats.DegradedReason = reason
	if s.met != nil {
		s.met.degraded.Set(1)
	}
}

// integritySweep scans the flat state for NaN/Inf amplitudes and checks
// the norm against 1 within IntegrityTol. The norm check is skipped when
// approximation is on (pruning legitimately sheds probability mass);
// NaN/Inf amplitudes are excluded from the norm and counted separately.
func (s *Simulator) integritySweep(gate int) error {
	s.stats.IntegrityChecks++
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
	normOK := s.opts.ApproxBudget > 0 || math.Abs(norm-1) <= s.opts.IntegrityTol
	if nans == 0 && infs == 0 && normOK {
		return nil
	}
	if s.met != nil {
		s.met.driftAborts.Inc()
	}
	return &DriftError{Gate: gate, Norm: norm, NaNs: nans, Infs: infs}
}

// abort finalizes the statistics of a context-terminated run and maps the
// context's cause onto the package sentinels. Stats.TimedOut is kept in
// sync for deadline aborts (compatibility with the deprecated
// Options.Deadline flow).
func (s *Simulator) abort(ctx context.Context, start time.Time) (Stats, error) {
	err := ErrCanceled
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		err = ErrDeadlineExceeded
		s.stats.TimedOut = true
		if s.met != nil {
			s.met.deadlineAborts.Inc()
		}
	} else if s.met != nil {
		s.met.cancelAborts.Inc()
	}
	s.finishStats(start)
	return s.stats, err
}

func (s *Simulator) finishStats(start time.Time) {
	s.stats.TotalTime = time.Since(start)
	if s.approxAngle > 0 {
		a := math.Min(s.approxAngle, math.Pi/2)
		c := math.Cos(a)
		s.stats.Fidelity = c * c
	}
	s.stats.PeakDDNodes = s.m.PeakNodeCount()
	// Working-set estimate: DD nodes at the blended per-node footprint
	// (dd.NodeBytes) plus the flat arrays of the DMAV phase.
	mem := uint64(s.stats.PeakDDNodes) * dd.NodeBytes
	if s.phase == PhaseDMAV {
		mem += uint64(len(s.state)) * 16 * 2 // state + scratch
	}
	s.stats.MemoryBytes = mem
	s.led.End()
	snap := s.led.Snapshot()
	s.stats.Resources = &snap
	if s.tw != nil {
		s.tw.Emit(runRecord{
			Event:       "run",
			Gates:       s.stats.Gates,
			ConvertedAt: s.stats.ConvertedAtGate,
			FinalPhase:  s.phase.String(),
			TotalNs:     s.stats.TotalTime.Nanoseconds(),
			PeakDDNodes: s.stats.PeakDDNodes,
			TimedOut:    s.stats.TimedOut,
			Fidelity:    s.stats.Fidelity,
		})
		s.tw.Flush() //nolint:errcheck // trace output is best-effort
	}
}

// Amplitude returns one amplitude of the final state.
func (s *Simulator) Amplitude(idx uint64) complex128 {
	if s.phase == PhaseDMAV {
		return s.state[idx]
	}
	return s.sim.Amplitude(idx)
}

// Amplitudes returns the full final state vector. In the DD phase the
// state is converted on demand (parallel algorithm).
func (s *Simulator) Amplitudes() []complex128 {
	if s.phase == PhaseDMAV {
		return s.state
	}
	return convert.Parallel(s.sim.State(), s.n, s.opts.Threads)
}

// StateDDSize returns the node count of the state DD (0 after conversion).
func (s *Simulator) StateDDSize() int {
	if s.phase == PhaseDMAV {
		return 0
	}
	return s.sim.StateSize()
}

// ProbabilityOfQubit returns P(qubit q = 1) of the current state,
// whichever representation it lives in.
func (s *Simulator) ProbabilityOfQubit(q int) float64 {
	if s.phase == PhaseDD {
		return s.sim.ProbabilityOfQubit(q)
	}
	mask := uint64(1) << uint(q)
	var p1 float64
	for i, a := range s.state {
		if uint64(i)&mask != 0 {
			p1 += real(a)*real(a) + imag(a)*imag(a)
		}
	}
	return p1
}

// MeasureQubit projectively measures one qubit of the final state,
// collapsing it in place, and returns the outcome. In the DD phase the
// collapse operates on the decision diagram; after conversion it operates
// on the flat array.
func (s *Simulator) MeasureQubit(q int, rng *rand.Rand) int {
	if s.phase == PhaseDD {
		return s.sim.MeasureQubit(q, rng)
	}
	sv := statevecView(s.state, s.n)
	return sv.MeasureQubit(q, rng)
}

// statevecView wraps the DMAV-phase amplitude array in a statevec.State so
// the measurement machinery is shared.
func statevecView(amps []complex128, n int) *statevec.State {
	return statevec.FromAmplitudes(amps, 1)
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
