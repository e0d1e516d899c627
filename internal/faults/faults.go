// Package faults is a deterministic, seed-driven fault-injection
// registry for exercising the engine's containment and degradation
// paths. Components expose named injection points (the catalog constants
// below); a test arms a point with a Trigger and the component's hook
// fires a panic, an error, a value corruption, or an artificial delay at
// that site.
//
// The design mirrors internal/obs: every handle is nil-safe, a nil
// *Registry hands out nil *Points, and every hook site costs exactly one
// pointer check when injection is off — production code never pays for
// the machinery and never needs build tags.
//
// Determinism: Nth-hit triggers fire on an exact hit count, and
// probability triggers draw from one seeded generator, so a single-
// threaded sequence of hits replays identically for a given seed. (Under
// concurrency the hit *order* is scheduling-dependent, but the fire
// count distribution still is seed-stable.)
package faults

import (
	"math"
	"math/rand"
	"sync"
	"time"
)

// Injection-point catalog. Components register hooks under these names;
// DESIGN.md §9 documents what each one forces.
const (
	// SchedWorkerPanic panics inside a scheduler pool task, killing the
	// task mid-flight on whichever worker picked it up.
	SchedWorkerPanic = "sched.worker.panic"
	// SchedTaskSlow sleeps for the trigger's Delay inside a pool task
	// (artificial stragglers for deadline/backpressure tests).
	SchedTaskSlow = "sched.task.slow"
	// CoreConvertAlloc simulates an allocation failure of the flat array
	// at DD→array conversion time; core degrades to the DD phase.
	CoreConvertAlloc = "core.convert.alloc"
	// DMAVCacheCorrupt corrupts one cached sub-vector entry of the
	// cached DMAV path (Algorithm 2) after a chunk computes it.
	DMAVCacheCorrupt = "dmav.cache.corrupt"
	// DMAVComputeCorrupt corrupts one output amplitude of the uncached
	// DMAV path (Algorithm 1) after a row chunk computes it.
	DMAVComputeCorrupt = "dmav.compute.corrupt"

	// Cluster network-level injection points (internal/cluster). The
	// coordinator checks both the bare point and the per-replica variant
	// "<point>.<replica-name>", so a test can take down one replica or
	// degrade the whole fleet with the same catalog name.

	// ClusterReplicaDown makes coordinator→replica calls (RPCs and health
	// probes alike) fail as if the replica process were unreachable:
	// K consecutive probe failures walk the replica through suspect→dead
	// and trigger failover without killing anything for real.
	ClusterReplicaDown = "cluster.replica.down"
	// ClusterRPCTimeout fails one coordinator→replica RPC with a
	// deadline-style error before it reaches the wire (exercises the
	// retry/backoff path; probes are unaffected, so the replica stays
	// alive: a brown-out, not a death).
	ClusterRPCTimeout = "cluster.rpc.timeout"
	// ClusterRPCSlow delays a coordinator→replica RPC by the trigger's
	// Delay (stragglers for tail-latency tests).
	ClusterRPCSlow = "cluster.rpc.slow"
)

// Injected is the value a firing point produces: the panic value at
// panic sites, the error at error sites. It carries the classification
// the containment layer surfaces (core wraps it into an EngineFault).
type Injected struct {
	// Point is the injection-point name that fired.
	Point string
	// Transient marks the fault retry-safe: the job service re-queues
	// jobs that fail with a transient engine fault.
	Transient bool
	// Delay is the sleep applied by slowness sites.
	Delay time.Duration
	// Factor scales the value at corruption sites; the zero value means
	// "replace with NaN" (the harshest corruption, caught by any sweep).
	Factor complex128
}

// Error makes an Injected usable directly as an error at error sites.
func (e *Injected) Error() string { return "faults: injected fault at " + e.Point }

// Trigger says when an armed point fires.
type Trigger struct {
	// Nth fires on exactly the Nth hit of the point (1-based). Zero
	// disables the hit-count trigger.
	Nth int64
	// Prob fires each hit with this probability, drawn from the
	// registry's seeded generator. Zero disables.
	Prob float64
	// Times caps the total number of fires (0 = unlimited).
	Times int64
	// Transient, Delay and Factor are carried into the Injected value.
	Transient bool
	Delay     time.Duration
	Factor    complex128
}

// Registry owns the injection points of one system under test.
type Registry struct {
	mu     sync.Mutex
	rng    *rand.Rand
	points map[string]*Point
}

// New returns a registry whose probability triggers draw from a
// generator seeded with seed.
func New(seed int64) *Registry {
	return &Registry{
		rng:    rand.New(rand.NewSource(seed)),
		points: make(map[string]*Point),
	}
}

// Point returns the handle for a named injection point, creating it
// unarmed if needed. On a nil registry it returns nil — the nil *Point
// is a valid never-firing hook, which is what production code holds.
func (r *Registry) Point(name string) *Point {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.points[name]
	if !ok {
		p = &Point{name: name, reg: r}
		r.points[name] = p
	}
	return p
}

// Arm installs a trigger on a named point (replacing any previous one)
// and returns the point. Arming a point does not reset its hit counter,
// so Nth counts hits since the registry was created.
func (r *Registry) Arm(name string, t Trigger) *Point {
	p := r.Point(name)
	p.mu.Lock()
	p.trig = t
	p.armed = true
	p.mu.Unlock()
	return p
}

// Disarm removes the trigger from a named point (hit counting continues).
func (r *Registry) Disarm(name string) {
	p := r.Point(name)
	p.mu.Lock()
	p.armed = false
	p.mu.Unlock()
}

// draw returns one uniform float from the seeded generator.
func (r *Registry) draw() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rng.Float64()
}

// Point is one named injection site. All methods are safe on a nil
// receiver (no-ops that never fire), safe for concurrent use, and count
// every hit whether or not a trigger is armed.
type Point struct {
	name string
	reg  *Registry

	mu    sync.Mutex
	trig  Trigger
	armed bool
	hits  int64
	fires int64
}

// Fire records one hit and returns the injected fault if the trigger
// fires, nil otherwise. This is the primitive the typed helpers below
// build on; hook sites that need custom behaviour can use it directly.
func (p *Point) Fire() *Injected {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	p.hits++
	hit := p.hits
	t := p.trig
	fire := false
	if p.armed && (t.Times == 0 || p.fires < t.Times) {
		if t.Nth > 0 && hit == t.Nth {
			fire = true
		}
		prob := t.Prob
		p.mu.Unlock()
		// The registry draw takes its own lock; keep the point unlocked
		// across it so concurrent hitters of different points never
		// contend in lock order.
		if !fire && prob > 0 && p.reg.draw() < prob {
			fire = true
		}
		p.mu.Lock()
	}
	if fire {
		p.fires++
	}
	p.mu.Unlock()
	if !fire {
		return nil
	}
	return &Injected{Point: p.name, Transient: t.Transient, Delay: t.Delay, Factor: t.Factor}
}

// Panic panics with the *Injected value when the point fires. This is
// the hook for "kill the worker mid-task" sites.
func (p *Point) Panic() {
	if f := p.Fire(); f != nil {
		panic(f)
	}
}

// Err returns the *Injected as an error when the point fires, nil
// otherwise. This is the hook for simulated-failure sites (e.g. an
// allocation that "fails").
func (p *Point) Err() error {
	if f := p.Fire(); f != nil {
		return f
	}
	return nil
}

// Sleep blocks for the armed Delay when the point fires (artificial
// slowness sites).
func (p *Point) Sleep() {
	if f := p.Fire(); f != nil && f.Delay > 0 {
		time.Sleep(f.Delay)
	}
}

// Corrupt returns a corrupted version of z and true when the point
// fires: z scaled by the armed Factor, or NaN+NaNi when Factor is zero.
// Otherwise it returns z unchanged and false.
func (p *Point) Corrupt(z complex128) (complex128, bool) {
	f := p.Fire()
	if f == nil {
		return z, false
	}
	if f.Factor == 0 {
		return complex(math.NaN(), math.NaN()), true
	}
	return z * f.Factor, true
}
