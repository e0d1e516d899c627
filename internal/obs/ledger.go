package obs

import (
	"runtime/metrics"
	"sync"
	"time"
)

// Per-job resource attribution. A ResourceLedger records what one
// simulation actually consumed, per engine phase (dd, convert, fuse,
// dmav): wall time, worker CPU time, allocation deltas, GC cycles, and
// the high-water footprint of the DD node pool and the flat arrays. The
// serve layer reads it for its observed-memory gauges, and the snapshot
// rides on the job result, the flight recorder and /debug/ledger.
//
// The nil *ResourceLedger is a valid no-op, like every other obs handle.

// AllocSample is a point-in-time reading of the process-wide allocation
// counters, taken through runtime/metrics (no stop-the-world, unlike
// runtime.ReadMemStats). Two samples subtract into the bytes/objects
// allocated and GC cycles completed between them.
type AllocSample struct {
	// Bytes is the cumulative total of heap bytes allocated.
	Bytes uint64
	// Objects is the cumulative total of heap objects allocated.
	Objects uint64
	// GCCycles is the number of completed GC cycles.
	GCCycles uint64
}

var allocMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
}

// ReadAllocSample reads the current allocation counters. The cost is a
// handful of atomic loads inside the runtime — cheap enough for phase
// boundaries and benchmark repetitions, where ReadMemStats' world stop
// would perturb the very thing being measured.
func ReadAllocSample() AllocSample {
	s := make([]metrics.Sample, len(allocMetricNames))
	for i, n := range allocMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	out := AllocSample{}
	if s[0].Value.Kind() == metrics.KindUint64 {
		out.Bytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		out.Objects = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		out.GCCycles = s[2].Value.Uint64()
	}
	return out
}

// Sub returns the component-wise delta s − prev (clamped at zero, so a
// stale sample never yields an underflowed unsigned delta).
func (s AllocSample) Sub(prev AllocSample) AllocSample {
	sub := func(a, b uint64) uint64 {
		if a < b {
			return 0
		}
		return a - b
	}
	return AllocSample{
		Bytes:    sub(s.Bytes, prev.Bytes),
		Objects:  sub(s.Objects, prev.Objects),
		GCCycles: sub(s.GCCycles, prev.GCCycles),
	}
}

// PhaseCost is the resource bill of one engine phase.
type PhaseCost struct {
	Phase  string `json:"phase"`
	WallNs int64  `json:"wall_ns"`
	// CPUNs is attributed worker CPU time: scheduler-pool busy time for
	// the pooled phases (convert, dmav), wall time for the sequential
	// ones (dd, fuse) where the run goroutine is the only worker. Pool
	// batches attribute through sched.Env.Run.
	CPUNs int64 `json:"cpu_ns"`
	// AllocBytes/Mallocs/GCCycles are process-wide runtime/metrics
	// deltas sampled at the phase boundaries. With concurrent jobs on
	// one process they over-attribute shared background allocation; the
	// serve layer documents them as an upper bound.
	AllocBytes uint64 `json:"alloc_bytes"`
	Mallocs    uint64 `json:"mallocs"`
	GCCycles   uint64 `json:"gc_cycles"`
	// PeakDDNodes/PeakDDBytes are the phase's live DD high-water.
	PeakDDNodes int64  `json:"peak_dd_nodes,omitempty"`
	PeakDDBytes uint64 `json:"peak_dd_bytes,omitempty"`
	// PeakFlatBytes is the phase's flat-array high-water (state, scratch
	// and the DMAV partial-output buffers).
	PeakFlatBytes uint64 `json:"peak_flat_bytes,omitempty"`
}

// LedgerSnapshot is the frozen state of a ResourceLedger: per-phase
// costs plus run-wide totals and high-water marks.
type LedgerSnapshot struct {
	Phases     []PhaseCost `json:"phases"`
	WallNs     int64       `json:"wall_ns"`
	CPUNs      int64       `json:"cpu_ns"`
	AllocBytes uint64      `json:"alloc_bytes"`
	Mallocs    uint64      `json:"mallocs"`
	GCCycles   uint64      `json:"gc_cycles"`
	// PeakDDNodes is the run's live-DD node high-water as observed by
	// the ledger (phase-boundary and per-gate observations; the engine's
	// Stats.PeakDDNodes from the node manager is authoritative).
	PeakDDNodes int64 `json:"peak_dd_nodes"`
	// PeakBytes is the high-water of the combined footprint estimate
	// (DD bytes + flat bytes) over the run — the observed counterpart of
	// the admission layer's reservation.
	PeakBytes uint64 `json:"peak_bytes"`
	// CurrentBytes is the latest combined footprint estimate.
	CurrentBytes uint64 `json:"current_bytes"`
}

// ResourceLedger accumulates one run's resource bill. Methods are safe
// for concurrent use (the engine writes from the run goroutine, the
// scheduler from batch completions, HTTP handlers snapshot); updates are
// phase- and batch-grained, never per-amplitude, so the mutex is cold.
type ResourceLedger struct {
	mu     sync.Mutex
	phases []PhaseCost
	open   bool // phases[len-1] is still accumulating
	start  time.Time
	alloc0 AllocSample

	ddNodes   int64  // current live DD nodes (last observation)
	ddBytes   uint64 // current live DD bytes
	flatBytes uint64 // current flat-array bytes (sum of AddFlat deltas)

	peakDDNodes int64
	peakBytes   uint64

	onUpdate func(LedgerSnapshot)
}

// NewResourceLedger returns an empty ledger.
func NewResourceLedger() *ResourceLedger { return &ResourceLedger{} }

// OnUpdate installs a hook called with a fresh snapshot whenever a phase
// ends — the serve layer's observed-gauge refresh. The hook runs outside
// the ledger's lock (it may snapshot again).
func (l *ResourceLedger) OnUpdate(f func(LedgerSnapshot)) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.onUpdate = f
	l.mu.Unlock()
}

// Begin opens a new phase. An unclosed previous phase is ended first, so
// a straight-line Begin("dd") … Begin("convert") … sequence needs no
// explicit End calls between phases.
func (l *ResourceLedger) Begin(phase string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.endLocked()
	l.phases = append(l.phases, PhaseCost{
		Phase:       phase,
		PeakDDNodes: l.ddNodes,
		PeakDDBytes: l.ddBytes,
	})
	if f := l.flatBytes; f > 0 {
		l.phases[len(l.phases)-1].PeakFlatBytes = f
	}
	l.open = true
	l.start = time.Now()
	l.alloc0 = ReadAllocSample()
	l.mu.Unlock()
}

// End closes the open phase (no-op when none is open) and returns its
// final cost. The OnUpdate hook fires after a real close.
func (l *ResourceLedger) End() (PhaseCost, bool) {
	if l == nil {
		return PhaseCost{}, false
	}
	l.mu.Lock()
	closed := l.endLocked()
	var pc PhaseCost
	if closed {
		pc = l.phases[len(l.phases)-1]
	}
	hook, snap := l.hookLocked(closed)
	l.mu.Unlock()
	if hook != nil {
		hook(snap)
	}
	return pc, closed
}

// endLocked folds the boundary samples into the open phase. Caller
// holds l.mu; reports whether a phase was actually closed.
func (l *ResourceLedger) endLocked() bool {
	if !l.open {
		return false
	}
	l.open = false
	p := &l.phases[len(l.phases)-1]
	p.WallNs += time.Since(l.start).Nanoseconds()
	d := ReadAllocSample().Sub(l.alloc0)
	p.AllocBytes += d.Bytes
	p.Mallocs += d.Objects
	p.GCCycles += d.GCCycles
	return true
}

// AddCPU attributes worker CPU time to the open phase (dropped when no
// phase is open — a late batch completion after the run finished).
func (l *ResourceLedger) AddCPU(ns int64) {
	if l == nil || ns <= 0 {
		return
	}
	l.mu.Lock()
	if l.open {
		l.phases[len(l.phases)-1].CPUNs += ns
	}
	l.mu.Unlock()
}

// ObserveDD records the current live DD footprint (node count and byte
// estimate), raising the phase and run high-water marks.
func (l *ResourceLedger) ObserveDD(nodes int64, bytes uint64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.ddNodes, l.ddBytes = nodes, bytes
	if nodes > l.peakDDNodes {
		l.peakDDNodes = nodes
	}
	if l.open {
		p := &l.phases[len(l.phases)-1]
		if nodes > p.PeakDDNodes {
			p.PeakDDNodes = nodes
		}
		if bytes > p.PeakDDBytes {
			p.PeakDDBytes = bytes
		}
	}
	l.bumpPeakLocked()
	l.mu.Unlock()
}

// AddFlat adjusts the current flat-array footprint by delta bytes
// (positive on allocation, negative when an array is dropped). Callers
// report deltas, not totals, so the engine's arrays and the DMAV
// engine's partial buffers compose without knowing about each other.
func (l *ResourceLedger) AddFlat(delta int64) {
	if l == nil || delta == 0 {
		return
	}
	l.mu.Lock()
	if delta < 0 && uint64(-delta) > l.flatBytes {
		l.flatBytes = 0
	} else {
		l.flatBytes = uint64(int64(l.flatBytes) + delta)
	}
	if l.open {
		p := &l.phases[len(l.phases)-1]
		if l.flatBytes > p.PeakFlatBytes {
			p.PeakFlatBytes = l.flatBytes
		}
	}
	l.bumpPeakLocked()
	l.mu.Unlock()
}

// bumpPeakLocked raises the combined high-water. Caller holds l.mu.
func (l *ResourceLedger) bumpPeakLocked() {
	if cur := l.ddBytes + l.flatBytes; cur > l.peakBytes {
		l.peakBytes = cur
	}
}

// hookLocked prepares the OnUpdate delivery (hook plus snapshot) when
// fire is true and a hook is installed. Caller holds l.mu and must call
// the returned hook after unlocking.
func (l *ResourceLedger) hookLocked(fire bool) (func(LedgerSnapshot), LedgerSnapshot) {
	if !fire || l.onUpdate == nil {
		return nil, LedgerSnapshot{}
	}
	return l.onUpdate, l.snapshotLocked()
}

// Snapshot freezes the ledger. An open phase is reported with its
// boundary samples taken now (the phase keeps accumulating). A nil
// ledger yields a zero snapshot.
func (l *ResourceLedger) Snapshot() LedgerSnapshot {
	if l == nil {
		return LedgerSnapshot{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.snapshotLocked()
}

func (l *ResourceLedger) snapshotLocked() LedgerSnapshot {
	s := LedgerSnapshot{
		Phases:       make([]PhaseCost, len(l.phases)),
		PeakDDNodes:  l.peakDDNodes,
		PeakBytes:    l.peakBytes,
		CurrentBytes: l.ddBytes + l.flatBytes,
	}
	copy(s.Phases, l.phases)
	if l.open && len(s.Phases) > 0 {
		p := &s.Phases[len(s.Phases)-1]
		p.WallNs += time.Since(l.start).Nanoseconds()
		d := ReadAllocSample().Sub(l.alloc0)
		p.AllocBytes += d.Bytes
		p.Mallocs += d.Objects
		p.GCCycles += d.GCCycles
	}
	for _, p := range s.Phases {
		s.WallNs += p.WallNs
		s.CPUNs += p.CPUNs
		s.AllocBytes += p.AllocBytes
		s.Mallocs += p.Mallocs
		s.GCCycles += p.GCCycles
	}
	return s
}
