// Package sched provides the persistent worker pool that executes the
// flat-array phase: DMAV border tasks, the cached-mode partial-buffer sum,
// and the DD→array conversion walk all run as Task batches on one Pool
// that lives for a whole simulation, instead of spawning fresh goroutines
// per gate.
//
// A batch is cut into one contiguous slice per worker, and every slice is
// claimed front to back through a single atomic cursor. A worker drains
// its own slice, then claims what is left of the other slices the same
// way; each such claim is a steal. The flat phase's batches are regular
// and pre-sized (about eight chunks per worker), so one fetch-and-add per
// task is the whole protocol: owner and thieves take the same path, with
// no lock and no retry.
//
// Between batches a spawned worker spins, then parks. For spinWindow after
// its last batch it polls the pool's batch word, so a batch that follows
// within that window — the next gate of a DMAV stream — starts on it in
// well under a microsecond instead of paying a goroutine wake-up; only
// then does it park on its wake channel. The caller publishes a batch
// with one atomic store and sends a wake only to a worker that has parked,
// taking the worker's parked flag with a compare-and-swap, so a wake is
// never lost and never left over. The caller joins by spinning on the
// count of spawned workers still in the batch.
//
// Any positive worker count is supported; nothing in the pool assumes
// powers of two.
package sched

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"flatdd/internal/faults"
	"flatdd/internal/obs"
)

// TaskPanic is how a panic inside a pool task surfaces: the worker
// recovers it (keeping the worker goroutine and every sibling task
// alive), the batch drains normally, and Run re-raises the first
// recovered panic as a *TaskPanic on the calling goroutine — so fault
// containment composes exactly like an inline panic would, but a
// runaway task can no longer kill an unrelated goroutine's process-wide
// scheduler. core.RunContext recovers it and returns ErrEngineFault.
type TaskPanic struct {
	// Value is the original panic value.
	Value any
	// Stack is the worker's stack at recovery time.
	Stack string
}

func (t *TaskPanic) Error() string { return fmt.Sprintf("sched: task panic: %v", t.Value) }

// Task is one unit of work. Tasks in a batch must be independent: the
// pool runs them in arbitrary order on arbitrary workers.
type Task = func()

// slice is one worker's share of a batch. Any worker claims its next task
// with one atomic add on next; an index past the end means the slice is
// drained for the rest of the batch. A batch installs the slices before it
// wakes the workers and joins them all before the next batch installs
// its own, so tasks is never written while a claim can read it.
type slice struct {
	tasks []Task
	next  atomic.Int64
}

func (s *slice) claim() (Task, bool) {
	i := s.next.Add(1) - 1
	if i >= int64(len(s.tasks)) {
		return nil, false
	}
	return s.tasks[i], true
}

// spinWindow is how long a spawned worker polls for the next batch after
// its last one before it parks: about two single-qubit gates of an n=14
// DMAV stream on the 2-vCPU reference box, so a worker stays awake across
// a gate stream and parks once the stream pauses (see EXPERIMENTS.md,
// "Spin-then-park pool workers").
const spinWindow = 50 * time.Microsecond

// spinYield is how many polls a spinning goroutine makes between
// runtime.Gosched calls (and, for a spawned worker, clock reads): at
// GOMAXPROCS 1 the goroutine it waits for can only run when it yields,
// and under load other goroutines get the processor back within a few
// hundred nanoseconds.
const spinYield = 64

// A batch word packs the batch's generation (high 32 bits) and its active
// worker count (low 32 bits), so a spawned worker learns from one load
// both that a new batch exists and whether it takes part. Reading the
// count separately would let a worker left out of one batch see the next
// batch's count, run that batch under the old generation and count itself
// out of it twice.
const activeMask = 1<<32 - 1

// worker is one pool member. Worker 0 is special: it has no goroutine
// of its own — the caller of Run plays worker 0, so a single-threaded
// pool degenerates to an inline loop.
type worker struct {
	id     int
	share  slice
	wake   chan struct{}
	parked atomic.Bool  // parked on wake; the batch caller CASes it to false before it sends
	tasks  atomic.Int64 // tasks executed (lifetime)
	steals atomic.Int64 // tasks claimed from another worker's slice (lifetime)
	idleNs atomic.Int64 // time spent waiting for the batch's other workers (lifetime)
	busyNs atomic.Int64 // time spent claiming and executing tasks (lifetime)
}

// WorkerStats is one worker's lifetime totals, as returned by Stats.
// Only worker 0, the caller of Run, is ever idle: it waits for the other
// workers to finish the batch, while a spawned worker that finds every
// slice drained leaves the batch and waits for the next one, which is not
// counted.
type WorkerStats struct {
	Tasks  int64
	Steals int64
	Idle   time.Duration
	Busy   time.Duration
}

// Pool is a persistent worker pool. New spawns threads-1 goroutines;
// Run installs a batch, participates as worker 0, and returns when every
// task has finished and every worker has left the batch. A Pool is safe
// for concurrent Run calls (batches serialize on an internal mutex) but
// batches never interleave.
type Pool struct {
	workers []*worker

	mu     sync.Mutex // serializes batches; guards the batch state below
	closed bool
	once   sync.Once
	exited sync.WaitGroup // spawned workers that have not returned

	// batch is the current batch word (generation and active count, see
	// activeMask); pending counts the spawned workers still in the batch;
	// quit tells spinning and parked workers to return.
	batch   atomic.Uint64
	pending atomic.Int64
	quit    atomic.Bool

	// The current batch's Env fault points (nil when off), written before
	// the batch word is published.
	panicPt, slow *faults.Point

	// fault holds the first panic recovered from a task of the current
	// batch and panics counts them all (guarded by faultMu).
	faultMu sync.Mutex
	fault   *TaskPanic
	panics  int64
}

// New returns a pool with max(1, threads) workers. threads-1
// goroutines are spawned immediately and wait for the first batch; the
// remaining worker is the Run caller itself. Call Close when the pool is
// no longer needed: it returns once the spawned goroutines have.
func New(threads int) *Pool {
	if threads < 1 {
		threads = 1
	}
	p := &Pool{workers: make([]*worker, threads)}
	for i := range p.workers {
		p.workers[i] = &worker{id: i, wake: make(chan struct{}, 1)}
	}
	p.exited.Add(len(p.workers) - 1)
	for _, w := range p.workers[1:] {
		go p.workerLoop(w)
	}
	return p
}

// Threads returns the worker count (any positive value), and 1 for a nil
// pool, which Env.Run runs inline.
func (p *Pool) Threads() int {
	if p == nil {
		return 1
	}
	return len(p.workers)
}

// Stats returns each worker's lifetime totals.
func (p *Pool) Stats() []WorkerStats {
	out := make([]WorkerStats, len(p.workers))
	for i, w := range p.workers {
		out[i] = WorkerStats{
			Tasks:  w.tasks.Load(),
			Steals: w.steals.Load(),
			Idle:   time.Duration(w.idleNs.Load()),
			Busy:   time.Duration(w.busyNs.Load()),
		}
	}
	return out
}

// Run executes every task in the batch and returns once all have
// finished. It is a batch on an Env with no span, ledger, registries or
// cancellation probe (see Env.Run).
//
// Fault containment: a panic inside a task never kills its worker.
// exec recovers it, the rest of the batch still runs, and once every
// worker has left the batch Run re-raises the first recovered panic as a
// *TaskPanic on the calling goroutine. The pool stays fully usable for
// the next batch — essential when one Pool is shared across jobs.
func (p *Pool) Run(tasks []Task) { p.run(&Env{Pool: p}, "", tasks) }

// Env is the run environment of the flat phase: the pool its batches run
// on plus the run-scoped concerns that ride along with them. core builds
// one per run and hands it to the conversion and the DMAV engine. Every
// field may be nil, and a nil field costs its user one pointer check.
type Env struct {
	Pool *Pool
	// Cancel is the cooperative cancellation probe, polled at task
	// granularity; a firing probe turns the rest of the work into no-ops.
	Cancel func() bool
	// Span parents every batch Run executes: each appears as a named
	// child carrying the batch's task, worker, steal, idle and busy
	// figures.
	Span *obs.Span
	// Ledger receives each batch's worker busy-ns (CPU participation,
	// summed across workers) on its open phase.
	Ledger *obs.ResourceLedger
	// Metrics and Faults are the registries the engines attach their
	// counters and injection points to. Each batch Run executes adds its
	// figures to Metrics as sched.{batches,tasks,steals,idle_ns,busy_ns,
	// panics} and sets the sched.workers gauge; its tasks fire the
	// sched.worker.panic and sched.task.slow points of Faults.
	Metrics *obs.Registry
	Faults  *faults.Registry
}

// Canceled reports whether the cancellation probe has fired (false for a
// nil Env or a nil probe).
func (e *Env) Canceled() bool { return e != nil && e.Cancel != nil && e.Cancel() }

// Run executes tasks as one batch on e.Pool (see Pool.Run) under a child
// span of e.Span called name, crediting the batch's busy time to e.Ledger
// and its figures to e.Metrics. The figures are measured under the batch
// mutex, so concurrent batches never bleed into each other's attribution.
// A nil Env or Pool runs the tasks inline on the caller.
func (e *Env) Run(name string, tasks []Task) {
	if e == nil || e.Pool == nil {
		for _, t := range tasks {
			t()
		}
		return
	}
	e.Pool.run(e, name, tasks)
}

// run installs the batch as one slice per active worker, publishes it,
// wakes the spawned workers that have parked, participates as worker 0
// and joins them. Only as many workers as there are tasks take part, and
// a closed pool runs the batch on worker 0 alone, so one worker, one task
// or a closed pool publishes nothing.
func (p *Pool) run(env *Env, name string, tasks []Task) {
	if len(tasks) == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var sp *obs.Span
	if env.Span != nil {
		sp = env.Span.Child(name)
		sp.SetAttr("tasks", len(tasks))
		sp.SetAttr("workers", len(p.workers))
	}
	steals0, idle0, busy0 := p.totals()
	p.panicPt = env.Faults.Point(faults.SchedWorkerPanic)
	p.slow = env.Faults.Point(faults.SchedTaskSlow)

	active := min(len(p.workers), len(tasks))
	if p.closed {
		active = 1
	}
	for i, w := range p.workers[:active] {
		w.share.tasks = tasks[i*len(tasks)/active : (i+1)*len(tasks)/active]
		w.share.next.Store(0)
	}
	if active > 1 {
		p.pending.Store(int64(active - 1))
		p.batch.Store((p.batch.Load()>>32+1)<<32 | uint64(active))
		for _, w := range p.workers[1:active] {
			if w.parked.CompareAndSwap(true, false) {
				w.wake <- struct{}{} // empty: the worker consumed its last wake
			}
		}
	}
	w0 := p.workers[0]
	p.runWorker(w0, active)
	waitStart := time.Now()
	for i := 1; p.pending.Load() != 0; i++ {
		if i%spinYield == 0 {
			runtime.Gosched()
		}
	}
	w0.idleNs.Add(int64(time.Since(waitStart)))

	steals1, idle1, busy1 := p.totals()
	steals, idle, busy := steals1-steals0, idle1-idle0, busy1-busy0
	p.faultMu.Lock()
	fault, panics := p.fault, p.panics
	p.fault, p.panics = nil, 0
	p.faultMu.Unlock()
	// The span ends before the panic is re-raised, so a faulted batch
	// still produces a complete span for the flight recorder.
	if sp != nil {
		sp.SetAttr("steals", steals)
		sp.SetAttr("idle_ns", idle)
		sp.SetAttr("busy_ns", busy)
		sp.End()
	}
	env.Ledger.AddCPU(busy)
	if r := env.Metrics; r != nil {
		r.Counter("sched.batches").Inc()
		r.Counter("sched.tasks").Add(int64(len(tasks)))
		r.Counter("sched.steals").Add(steals)
		r.Counter("sched.idle_ns").Add(idle)
		r.Counter("sched.busy_ns").Add(busy)
		r.Counter("sched.panics").Add(panics)
		r.Gauge("sched.workers").Set(int64(len(p.workers)))
	}
	if fault != nil {
		panic(fault)
	}
}

// totals sums the per-worker lifetime steal, idle, and busy counters.
// Called under p.mu with every spawned worker out of the batch, so the
// totals are stable.
func (p *Pool) totals() (steals, idleNs, busyNs int64) {
	for _, w := range p.workers {
		steals += w.steals.Load()
		idleNs += w.idleNs.Load()
		busyNs += w.busyNs.Load()
	}
	return
}

// workerLoop runs a spawned worker: each batch it takes part in, until
// the pool closes.
func (p *Pool) workerLoop(w *worker) {
	defer p.exited.Done()
	var seen uint64 // generation of the last batch published; 0 is none
	for {
		b, ok := p.await(w, seen)
		if !ok {
			return
		}
		seen = b >> 32
		p.runWorker(w, int(b&activeMask))
		p.pending.Add(-1)
	}
}

// await returns the word of the first batch after generation seen that w
// takes part in, or false once the pool is closed. It polls the batch
// word for spinWindow, then parks w on its wake channel: parked is set
// before the batch word is read again, and run publishes the word before
// it reads parked, so either w sees the batch or run sees w parked and
// wakes it. A park that w cancels after run has taken the flag consumes
// the wake run sends.
func (p *Pool) await(w *worker, seen uint64) (uint64, bool) {
	var deadline time.Time
	for i := 1; ; i++ {
		if p.quit.Load() {
			return 0, false
		}
		b := p.batch.Load()
		if b>>32 != seen {
			if int(b&activeMask) > w.id {
				return b, true
			}
			seen = b >> 32 // a batch without w
		}
		if i%spinYield != 0 {
			continue
		}
		runtime.Gosched()
		now := time.Now()
		if deadline.IsZero() {
			deadline = now.Add(spinWindow)
		}
		if now.Before(deadline) {
			continue
		}
		w.parked.Store(true)
		if p.batch.Load()>>32 == seen && !p.quit.Load() {
			<-w.wake // a batch with w, or Close
		} else if !w.parked.CompareAndSwap(true, false) {
			<-w.wake // run took the flag: its wake is on the way
		}
		deadline = time.Time{}
	}
}

// runWorker drains the worker's own slice, then claims what is left of
// the batch's other active slices in turn; every claim outside its own
// slice is a steal. Two clock reads per worker per batch keep CPU
// attribution off the per-task path.
func (p *Pool) runWorker(w *worker, active int) {
	start := time.Now()
	for i := 0; i < active; i++ {
		s := &p.workers[(w.id+i)%active].share
		for t, ok := s.claim(); ok; t, ok = s.claim() {
			if i > 0 {
				w.steals.Add(1)
			}
			p.exec(w, t)
		}
	}
	w.busyNs.Add(int64(time.Since(start)))
}

// exec runs one task. A panicking task is recovered here — the worker
// survives, the batch drains, and Run re-raises the panic on its caller.
// The batch's fault points fire before the task body.
func (p *Pool) exec(w *worker, t Task) {
	defer func() {
		if r := recover(); r != nil {
			p.recordPanic(r)
		}
		w.tasks.Add(1)
	}()
	if p.slow != nil {
		p.slow.Sleep()
	}
	if p.panicPt != nil {
		p.panicPt.Panic()
	}
	t()
}

// recordPanic keeps the first panic of the batch (later ones are
// counted but dropped — one fault fails the batch either way).
func (p *Pool) recordPanic(r any) {
	tp := &TaskPanic{Value: r, Stack: string(debug.Stack())}
	p.faultMu.Lock()
	if p.fault == nil {
		p.fault = tp
	}
	p.panics++
	p.faultMu.Unlock()
}

// Close retires the spawned workers, spinning or parked, and returns once
// their goroutines have. Run calls after Close degrade to inline serial
// execution (a usage error, but a benign one in test teardown orderings).
// Close is idempotent and waits for an in-flight batch.
func (p *Pool) Close() {
	p.once.Do(func() {
		p.mu.Lock()
		p.closed = true
		p.quit.Store(true)
		for _, w := range p.workers[1:] {
			close(w.wake)
		}
		p.mu.Unlock()
		p.exited.Wait()
	})
}
