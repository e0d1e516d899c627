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
// Any positive worker count is supported; nothing in the pool assumes
// powers of two.
package sched

import (
	"fmt"
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

// worker is one pool member. Worker 0 is special: it has no goroutine
// of its own — the caller of Run plays worker 0, so a single-threaded
// pool degenerates to an inline loop.
type worker struct {
	id     int
	share  slice
	wake   chan struct{}
	tasks  atomic.Int64 // tasks executed (lifetime)
	steals atomic.Int64 // tasks claimed from another worker's slice (lifetime)
	idleNs atomic.Int64 // time spent waiting for the batch's other workers (lifetime)
	busyNs atomic.Int64 // time spent claiming and executing tasks (lifetime)
}

// WorkerStats is one worker's lifetime totals, as returned by Stats.
// Only worker 0, the caller of Run, is ever idle: it waits for the other
// workers to finish the batch, while a spawned worker parks as soon as it
// finds every slice drained.
type WorkerStats struct {
	Tasks  int64
	Steals int64
	Idle   time.Duration
	Busy   time.Duration
}

// Pool is a persistent worker pool. New spawns threads-1 parked
// goroutines; Run installs a batch, participates as worker 0, and returns
// when every task has finished and every worker has parked again. A Pool
// is safe for concurrent Run calls (batches serialize on an internal
// mutex) but batches never interleave.
type Pool struct {
	workers []*worker

	mu     sync.Mutex     // serializes batches; guards the batch state below
	join   sync.WaitGroup // spawned workers still in the current batch
	closed bool
	once   sync.Once

	// The current batch: how many slices it has (the workers it wakes,
	// worker 0 included) and its Env's fault points (nil when off).
	active        int
	panicPt, slow *faults.Point

	// fault holds the first panic recovered from a task of the current
	// batch and panics counts them all (guarded by faultMu).
	faultMu sync.Mutex
	fault   *TaskPanic
	panics  int64
}

// New returns a pool with max(1, threads) workers. threads-1
// goroutines are spawned immediately and park until the first batch;
// the remaining worker is the Run caller itself. Call Close when the
// pool is no longer needed.
func New(threads int) *Pool {
	if threads < 1 {
		threads = 1
	}
	p := &Pool{workers: make([]*worker, threads)}
	for i := range p.workers {
		p.workers[i] = &worker{id: i, wake: make(chan struct{}, 1)}
	}
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
// worker has parked Run re-raises the first recovered panic as a
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

// run installs the batch as one slice per active worker, wakes the
// spawned ones, participates as worker 0 and joins them. Only as many
// workers as there are tasks take part, and a closed pool runs the batch
// on worker 0 alone, so one worker, one task or a closed pool wakes
// nobody.
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

	p.active = min(len(p.workers), len(tasks))
	if p.closed {
		p.active = 1
	}
	for i, w := range p.workers[:p.active] {
		w.share.tasks = tasks[i*len(tasks)/p.active : (i+1)*len(tasks)/p.active]
		w.share.next.Store(0)
	}
	p.join.Add(p.active - 1)
	for _, w := range p.workers[1:p.active] {
		w.wake <- struct{}{} // always empty here: the previous batch joined
	}
	w0 := p.workers[0]
	p.runWorker(w0)
	waitStart := time.Now()
	p.join.Wait()
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
// Called under p.mu with all workers parked, so the totals are stable.
func (p *Pool) totals() (steals, idleNs, busyNs int64) {
	for _, w := range p.workers {
		steals += w.steals.Load()
		idleNs += w.idleNs.Load()
		busyNs += w.busyNs.Load()
	}
	return
}

// workerLoop parks a spawned worker between batches.
func (p *Pool) workerLoop(w *worker) {
	for range w.wake {
		p.runWorker(w)
		p.join.Done()
	}
}

// runWorker drains the worker's own slice, then claims what is left of
// the batch's other slices in turn; every claim outside its own slice is
// a steal. Two clock reads per worker per batch keep CPU attribution off
// the per-task path.
func (p *Pool) runWorker(w *worker) {
	start := time.Now()
	for i := 0; i < p.active; i++ {
		s := &p.workers[(w.id+i)%p.active].share
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

// Close retires the spawned workers. Run calls after Close degrade to
// inline serial execution (a usage error, but a benign one in test
// teardown orderings). Close is idempotent and waits for an in-flight
// batch.
func (p *Pool) Close() {
	p.once.Do(func() {
		p.mu.Lock()
		p.closed = true
		for _, w := range p.workers[1:] {
			close(w.wake)
		}
		p.mu.Unlock()
	})
}
