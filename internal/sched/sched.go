// Package sched provides the persistent work-stealing worker pool that
// executes the flat-array phase: DMAV border tasks, the cached-mode
// partial-buffer sum, and the DD→array conversion walk all run as Task
// batches on one Pool that lives for a whole simulation, instead of
// spawning fresh goroutines per gate.
//
// The design is a bounded Arora–Blumofe–Plotkin deque per worker:
// a batch is installed as contiguous slices across the per-worker
// deques, each owner pops its own bottom end lock-free (one atomic
// decrement; a CAS only on the last element), and idle workers steal
// from the top end under a per-deque mutex. Stealing serializes thieves
// against each other but never blocks the owner's fast path, which is
// all a batch-oriented pool needs — the lock-free part matters on the
// owner side where every task passes, not on the steal side where only
// imbalance overflow does.
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

// deque is a single-batch ABP work-stealing deque. The owner pops at
// bottom; thieves take at top. reset installs a new batch: it cannot
// race pops because Run joins every worker before the next batch is
// installed, and it cannot race a straggling thief because both take
// mu.
type deque struct {
	mu     sync.Mutex
	tasks  []Task
	top    atomic.Int64 // next index thieves take
	bottom atomic.Int64 // one past the next index the owner takes
}

func (d *deque) reset(tasks []Task) {
	d.mu.Lock()
	d.tasks = tasks
	d.top.Store(0)
	d.bottom.Store(int64(len(tasks)))
	d.mu.Unlock()
}

// pop takes one task from the owner end. Lock-free: a single atomic
// decrement claims an index, and only the race for the very last
// element needs a CAS against thieves.
func (d *deque) pop() (Task, bool) {
	b := d.bottom.Add(-1)
	t := d.top.Load()
	if b > t {
		return d.tasks[b], true
	}
	if b == t {
		// Last element: win it with the same CAS thieves use.
		won := d.top.CompareAndSwap(t, t+1)
		d.bottom.Store(t + 1)
		if won {
			return d.tasks[b], true
		}
		return nil, false
	}
	// Empty (thieves got ahead); restore the canonical empty state.
	d.bottom.Store(t)
	return nil, false
}

// steal takes one task from the thief end. Thieves serialize on mu;
// the CAS can still lose, but only to the owner taking the last
// element.
func (d *deque) steal() (Task, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	t := d.top.Load()
	if t >= d.bottom.Load() {
		return nil, false
	}
	task := d.tasks[t]
	if d.top.CompareAndSwap(t, t+1) {
		return task, true
	}
	return nil, false
}

// worker is one pool member. Worker 0 is special: it has no goroutine
// of its own — the caller of Run plays worker 0, so a single-threaded
// pool degenerates to an inline loop.
type worker struct {
	id     int
	dq     deque
	wake   chan struct{}
	tasks  atomic.Int64 // tasks executed (lifetime)
	steals atomic.Int64 // successful steals (lifetime)
	idleNs atomic.Int64 // time spent looking for work (lifetime)
	busyNs atomic.Int64 // time spent executing tasks (lifetime)
}

// WorkerStats is one worker's lifetime totals, as returned by Stats.
type WorkerStats struct {
	Tasks  int64
	Steals int64
	Idle   time.Duration
	Busy   time.Duration
}

// Pool is a persistent work-stealing worker pool. New spawns
// threads-1 parked goroutines; Run installs a batch, participates as
// worker 0, and returns when every task has finished and every worker
// has parked again. A Pool is safe for concurrent Run calls (batches
// serialize on an internal mutex) but batches never interleave.
type Pool struct {
	workers []*worker

	mu      sync.Mutex     // serializes batches
	join    sync.WaitGroup // spawned workers still in the current batch
	pending atomic.Int64   // tasks of the current batch not yet finished
	closed  bool
	once    sync.Once

	// fault holds the first panic recovered from a task of the current
	// batch (guarded by faultMu; reset by Run before re-raising).
	faultMu sync.Mutex
	fault   *TaskPanic

	met *poolMetrics
	fts poolFaults
}

// poolFaults holds the pool's fault-injection hooks (nil = injection
// off, the production state; see internal/faults).
type poolFaults struct {
	panicPt *faults.Point // faults.SchedWorkerPanic
	slow    *faults.Point // faults.SchedTaskSlow
}

// poolMetrics holds the pool's registry handles (see DESIGN.md §7 for
// the metric names). last* hold the per-worker totals already
// published, so publish only adds deltas; they are guarded by Pool.mu.
type poolMetrics struct {
	batches    *obs.Counter
	tasks      *obs.Counter
	steals     *obs.Counter
	idleNs     *obs.Counter
	busyNs     *obs.Counter
	panics     *obs.Counter
	perWorker  []workerCounters
	lastTasks  []int64
	lastSteals []int64
	lastIdle   []int64
	lastBusy   []int64
}

type workerCounters struct {
	tasks  *obs.Counter
	steals *obs.Counter
	idleNs *obs.Counter
	busyNs *obs.Counter
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

// Threads returns the worker count (any positive value).
func (p *Pool) Threads() int { return len(p.workers) }

// SetMetrics attaches the pool to a registry (nil detaches). Totals
// appear as sched.{batches,tasks,steals,idle_ns,busy_ns} plus per-worker
// sched.worker.<i>.{tasks,steals,idle_ns,busy_ns}; counters are published at
// the end of each batch so the hot loops stay instrumentation-free.
func (p *Pool) SetMetrics(r *obs.Registry) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if r == nil {
		p.met = nil
		return
	}
	t := len(p.workers)
	m := &poolMetrics{
		batches:    r.Counter("sched.batches"),
		tasks:      r.Counter("sched.tasks"),
		steals:     r.Counter("sched.steals"),
		idleNs:     r.Counter("sched.idle_ns"),
		busyNs:     r.Counter("sched.busy_ns"),
		panics:     r.Counter("sched.panics"),
		perWorker:  make([]workerCounters, t),
		lastTasks:  make([]int64, t),
		lastSteals: make([]int64, t),
		lastIdle:   make([]int64, t),
		lastBusy:   make([]int64, t),
	}
	for i := 0; i < t; i++ {
		m.perWorker[i] = workerCounters{
			tasks:  r.Counter(fmt.Sprintf("sched.worker.%d.tasks", i)),
			steals: r.Counter(fmt.Sprintf("sched.worker.%d.steals", i)),
			idleNs: r.Counter(fmt.Sprintf("sched.worker.%d.idle_ns", i)),
			busyNs: r.Counter(fmt.Sprintf("sched.worker.%d.busy_ns", i)),
		}
	}
	r.Gauge("sched.workers").Set(int64(t))
	// Baseline at the current lifetime totals so batches run before the
	// attach do not appear as a spike.
	for i, w := range p.workers {
		m.lastTasks[i] = w.tasks.Load()
		m.lastSteals[i] = w.steals.Load()
		m.lastIdle[i] = w.idleNs.Load()
		m.lastBusy[i] = w.busyNs.Load()
	}
	p.met = m
}

// SetFaults attaches the pool's fault-injection hooks to a registry
// (nil detaches — the production state). Armed points fire inside exec:
// faults.SchedWorkerPanic panics mid-task and faults.SchedTaskSlow
// sleeps, both before the task body runs.
func (p *Pool) SetFaults(r *faults.Registry) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if r == nil {
		p.fts = poolFaults{}
		return
	}
	p.fts = poolFaults{
		panicPt: r.Point(faults.SchedWorkerPanic),
		slow:    r.Point(faults.SchedTaskSlow),
	}
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
// finished. The calling goroutine participates as worker 0, then joins
// the spawned workers; the join guarantees every worker is parked
// before the next batch's deques are installed, which is what makes
// the owner pop safe without any reset-time synchronization.
//
// Fault containment: a panic inside a task never kills its worker.
// exec recovers it, the rest of the batch still runs, and once every
// worker has parked Run re-raises the first recovered panic as a
// *TaskPanic on the calling goroutine. The pool stays fully usable for
// the next batch — essential when one Pool is shared across jobs.
func (p *Pool) Run(tasks []Task) { p.run(nil, "", nil, tasks) }

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
	// counters and injection points to.
	Metrics *obs.Registry
	Faults  *faults.Registry
}

// Canceled reports whether the cancellation probe has fired (false for a
// nil Env or a nil probe).
func (e *Env) Canceled() bool { return e != nil && e.Cancel != nil && e.Cancel() }

// Run executes tasks as one batch on e.Pool (see Pool.Run) under a child
// span of e.Span called name, crediting the batch's busy time to e.Ledger.
// The steal/idle/busy deltas are measured under the batch mutex, so
// concurrent batches never bleed into each other's attribution. A nil Env
// or Pool runs the tasks inline on the caller.
func (e *Env) Run(name string, tasks []Task) {
	if e == nil || e.Pool == nil {
		for _, t := range tasks {
			t()
		}
		return
	}
	e.Pool.run(e.Span, name, e.Ledger, tasks)
}

func (p *Pool) run(parent *obs.Span, name string, led *obs.ResourceLedger, tasks []Task) {
	if len(tasks) == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var sp *obs.Span
	var steals0, idle0, busy0 int64
	if parent != nil || led != nil {
		if parent != nil {
			sp = parent.Child(name)
			sp.SetAttr("tasks", len(tasks))
			sp.SetAttr("workers", len(p.workers))
		}
		steals0, idle0, busy0 = p.totals()
	}
	w0 := p.workers[0]
	if p.closed || len(p.workers) == 1 || len(tasks) == 1 {
		// Inline: nothing to distribute (or the pool was closed —
		// degrade to serial rather than touching dead channels). The
		// same exec wrapper applies, so panic containment and fault
		// hooks behave identically to the distributed path. Busy time
		// here is the whole loop: worker 0 never goes idle inline.
		p.pending.Store(int64(len(tasks)))
		start := time.Now()
		for _, t := range tasks {
			p.exec(w0, t)
		}
		w0.busyNs.Add(int64(time.Since(start)))
		p.finishBatch(sp, led, steals0, idle0, busy0)
		return
	}
	nt := len(p.workers)
	p.pending.Store(int64(len(tasks)))
	for i, w := range p.workers {
		lo := i * len(tasks) / nt
		hi := (i + 1) * len(tasks) / nt
		w.dq.reset(tasks[lo:hi])
	}
	p.join.Add(nt - 1)
	for _, w := range p.workers[1:] {
		w.wake <- struct{}{} // always empty here: the previous batch joined
	}
	p.runWorker(w0)
	p.join.Wait()
	p.finishBatch(sp, led, steals0, idle0, busy0)
}

// finishBatch publishes metrics, closes the batch span (attributing the
// steal/idle/busy deltas of this batch), credits the batch's busy time
// to the ledger, and re-raises any recorded panic. The span must end
// before rethrow so a faulted batch still produces a complete span for
// the flight recorder.
func (p *Pool) finishBatch(sp *obs.Span, led *obs.ResourceLedger, steals0, idle0, busy0 int64) {
	p.publish()
	if sp != nil || led != nil {
		steals1, idle1, busy1 := p.totals()
		if sp != nil {
			sp.SetAttr("steals", steals1-steals0)
			sp.SetAttr("idle_ns", idle1-idle0)
			sp.SetAttr("busy_ns", busy1-busy0)
			sp.End()
		}
		led.AddCPU(busy1 - busy0)
	}
	p.rethrow()
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

// runWorker drains the worker's own deque, then steals from the others
// until the batch's pending count hits zero. Busy time is participation
// elapsed minus idle — two extra clock reads per worker per batch, which
// is what keeps CPU attribution off the per-task fast path.
func (p *Pool) runWorker(w *worker) {
	start := time.Now()
	for {
		task, ok := w.dq.pop()
		if !ok {
			break
		}
		p.exec(w, task)
	}
	nt := len(p.workers)
	idleStart := time.Now()
	var idle time.Duration
	for p.pending.Load() > 0 {
		stole := false
		for i := 1; i < nt; i++ {
			v := p.workers[(w.id+i)%nt]
			if task, ok := v.dq.steal(); ok {
				w.steals.Add(1)
				idle += time.Since(idleStart)
				p.exec(w, task)
				idleStart = time.Now()
				stole = true
				break
			}
		}
		if !stole {
			runtime.Gosched()
		}
	}
	idle += time.Since(idleStart)
	if idle > 0 {
		w.idleNs.Add(int64(idle))
	}
	if busy := time.Since(start) - idle; busy > 0 {
		w.busyNs.Add(int64(busy))
	}
}

// exec runs one task and retires it from the batch. The pending
// decrement comes after the task body (in the deferred block) so no
// worker can conclude the batch is over while a task is still
// executing. A panicking task is recovered here — the worker survives,
// the batch drains, and Run re-raises the panic on its caller.
func (p *Pool) exec(w *worker, t Task) {
	defer func() {
		if r := recover(); r != nil {
			p.recordPanic(r)
		}
		w.tasks.Add(1)
		p.pending.Add(-1)
	}()
	if p.fts.slow != nil {
		p.fts.slow.Sleep()
	}
	if p.fts.panicPt != nil {
		p.fts.panicPt.Panic()
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
	p.faultMu.Unlock()
	if m := p.met; m != nil {
		m.panics.Inc()
	}
}

// rethrow re-raises the batch's recorded panic, if any, on the calling
// goroutine. Called by Run after every worker has parked.
func (p *Pool) rethrow() {
	p.faultMu.Lock()
	f := p.fault
	p.fault = nil
	p.faultMu.Unlock()
	if f != nil {
		panic(f)
	}
}

// publish pushes the delta since the last publish into the registry.
// Called under p.mu at the end of each batch.
func (p *Pool) publish() {
	m := p.met
	if m == nil {
		return
	}
	m.batches.Inc()
	for i, w := range p.workers {
		if d := w.tasks.Load() - m.lastTasks[i]; d > 0 {
			m.lastTasks[i] += d
			m.tasks.Add(d)
			m.perWorker[i].tasks.Add(d)
		}
		if d := w.steals.Load() - m.lastSteals[i]; d > 0 {
			m.lastSteals[i] += d
			m.steals.Add(d)
			m.perWorker[i].steals.Add(d)
		}
		if d := w.idleNs.Load() - m.lastIdle[i]; d > 0 {
			m.lastIdle[i] += d
			m.idleNs.Add(d)
			m.perWorker[i].idleNs.Add(d)
		}
		if d := w.busyNs.Load() - m.lastBusy[i]; d > 0 {
			m.lastBusy[i] += d
			m.busyNs.Add(d)
			m.perWorker[i].busyNs.Add(d)
		}
	}
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
