package sched

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flatdd/internal/faults"
	"flatdd/internal/obs"
)

// spin burns a little CPU so tasks have measurable, unequal sizes.
func spin(iters int) float64 {
	x := 1.0
	for i := 0; i < iters; i++ {
		x = x*1.0000001 + 0.0000001
	}
	return x
}

func TestRunExecutesEveryTaskOnce(t *testing.T) {
	for _, threads := range []int{1, 2, 3, 5, 8} {
		p := New(threads)
		const n = 500
		counts := make([]atomic.Int32, n)
		tasks := make([]Task, n)
		for i := range tasks {
			i := i
			tasks[i] = func() { counts[i].Add(1) }
		}
		p.Run(tasks)
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Errorf("threads=%d: task %d executed %d times, want 1", threads, i, got)
			}
		}
		p.Close()
	}
}

func TestEmptyAndSingleTaskBatches(t *testing.T) {
	p := New(4)
	defer p.Close()
	p.Run(nil)
	p.Run([]Task{})
	ran := false
	p.Run([]Task{func() { ran = true }})
	if !ran {
		t.Fatal("single-task batch did not run")
	}
}

func TestPoolReusedAcrossBatches(t *testing.T) {
	p := New(3)
	defer p.Close()
	var total atomic.Int64
	for batch := 0; batch < 100; batch++ {
		n := 1 + batch%17
		tasks := make([]Task, n)
		for i := range tasks {
			tasks[i] = func() { total.Add(1) }
		}
		p.Run(tasks)
	}
	want := int64(0)
	for batch := 0; batch < 100; batch++ {
		want += int64(1 + batch%17)
	}
	if got := total.Load(); got != want {
		t.Fatalf("executed %d tasks across batches, want %d", got, want)
	}
}

func TestRunAfterCloseDegradesToInline(t *testing.T) {
	p := New(4)
	p.Close()
	p.Close() // idempotent
	var ran atomic.Int32
	tasks := make([]Task, 10)
	for i := range tasks {
		tasks[i] = func() { ran.Add(1) }
	}
	p.Run(tasks)
	if got := ran.Load(); got != 10 {
		t.Fatalf("post-Close Run executed %d tasks, want 10", got)
	}
}

func TestConcurrentRunCallsSerialize(t *testing.T) {
	p := New(3)
	defer p.Close()
	var total atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for batch := 0; batch < 20; batch++ {
				tasks := make([]Task, 25)
				for i := range tasks {
					tasks[i] = func() { total.Add(1) }
				}
				p.Run(tasks)
			}
		}()
	}
	wg.Wait()
	if got := total.Load(); got != 4*20*25 {
		t.Fatalf("executed %d tasks, want %d", got, 4*20*25)
	}
}

func TestThreadsClampedToPositive(t *testing.T) {
	for _, in := range []int{-5, 0, 1} {
		p := New(in)
		if p.Threads() != 1 {
			t.Errorf("New(%d).Threads() = %d, want 1", in, p.Threads())
		}
		p.Close()
	}
	p := New(7)
	defer p.Close()
	if p.Threads() != 7 {
		t.Errorf("New(7).Threads() = %d, want 7", p.Threads())
	}
}

// TestStressUnderGOMAXPROCS is the scheduler stress test of ISSUE 3:
// randomized task sizes under GOMAXPROCS ∈ {1, 3, 7, 16}, asserting
// completion, no double-execution, and steal-counter sanity.
func TestStressUnderGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	batches := 40
	maxTasks := 300
	if testing.Short() {
		batches = 10
		maxTasks = 100
	}
	for _, procs := range []int{1, 3, 7, 16} {
		runtime.GOMAXPROCS(procs)
		t.Run(goMaxName(procs), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(procs) * 7919))
			p := New(procs)
			defer p.Close()
			var sink atomic.Int64
			totalTasks := 0
			for b := 0; b < batches; b++ {
				n := 1 + rng.Intn(maxTasks)
				totalTasks += n
				counts := make([]atomic.Int32, n)
				tasks := make([]Task, n)
				for i := range tasks {
					i := i
					// Heavily skewed sizes: a few big tasks among many
					// tiny ones, the shape that forces stealing.
					iters := rng.Intn(50)
					if rng.Intn(10) == 0 {
						iters = 5000 + rng.Intn(20000)
					}
					tasks[i] = func() {
						counts[i].Add(1)
						if spin(iters) < 0 {
							sink.Add(1)
						}
					}
				}
				p.Run(tasks)
				for i := range counts {
					if got := counts[i].Load(); got != 1 {
						t.Fatalf("batch %d task %d executed %d times, want exactly 1", b, i, got)
					}
				}
			}
			// Steal-counter sanity: per-worker tasks sum to the total,
			// and steals never exceed tasks executed (every steal
			// yields exactly one execution).
			var sumTasks, sumSteals int64
			for i, ws := range p.Stats() {
				if ws.Tasks < 0 || ws.Steals < 0 || ws.Idle < 0 {
					t.Fatalf("worker %d has negative stats: %+v", i, ws)
				}
				if ws.Steals > ws.Tasks {
					t.Fatalf("worker %d stole %d tasks but only executed %d", i, ws.Steals, ws.Tasks)
				}
				sumTasks += ws.Tasks
				sumSteals += ws.Steals
			}
			if sumTasks != int64(totalTasks) {
				t.Fatalf("workers executed %d tasks total, want %d", sumTasks, totalTasks)
			}
			if sumSteals > sumTasks {
				t.Fatalf("steals (%d) exceed tasks (%d)", sumSteals, sumTasks)
			}
		})
	}
}

func goMaxName(p int) string {
	return "gomaxprocs-" + string(rune('0'+p/10)) + string(rune('0'+p%10))
}

func TestMetricsPublish(t *testing.T) {
	r := obs.New()
	p := New(3)
	defer p.Close()
	env := &Env{Pool: p, Metrics: r}
	const n = 200
	tasks := make([]Task, n)
	var sink atomic.Int64
	for i := range tasks {
		tasks[i] = func() {
			if spin(100) < 0 {
				sink.Add(1)
			}
		}
	}
	env.Run("batch", tasks)
	env.Run("batch", tasks)
	snap := r.Snapshot()
	if got := snap.Counters["sched.tasks"]; got != 2*n {
		t.Fatalf("sched.tasks = %d, want %d", got, 2*n)
	}
	if got := snap.Counters["sched.batches"]; got != 2 {
		t.Fatalf("sched.batches = %d, want 2", got)
	}
	if got := snap.Gauges["sched.workers"]; got != 3 {
		t.Fatalf("sched.workers = %d, want 3", got)
	}
	if got, want := snap.Counters["sched.steals"], steals(p); got != want {
		t.Fatalf("sched.steals %d != the workers' steals %d", got, want)
	}
}

func steals(p *Pool) (n int64) {
	for _, ws := range p.Stats() {
		n += ws.Steals
	}
	return n
}

// TestEnvMetricsAreRunScoped: two runs share one pool but not a registry.
// Each registry counts exactly its own run's batches and tasks, however
// the batches interleave on the pool.
func TestEnvMetricsAreRunScoped(t *testing.T) {
	p := New(2)
	defer p.Close()
	const batches = 50
	sizes := []int{3, 7}
	regs := []*obs.Registry{obs.New(), obs.New()}
	var wg sync.WaitGroup
	for g := range regs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			env := &Env{Pool: p, Metrics: regs[g]}
			tasks := make([]Task, sizes[g])
			for i := range tasks {
				tasks[i] = func() { spin(50) }
			}
			for b := 0; b < batches; b++ {
				env.Run("batch", tasks)
			}
		}()
	}
	wg.Wait()
	for g, r := range regs {
		snap := r.Snapshot()
		if got, want := snap.Counters["sched.tasks"], int64(batches*sizes[g]); got != want {
			t.Errorf("run %d: sched.tasks = %d, want %d", g, got, want)
		}
		if got := snap.Counters["sched.batches"]; got != batches {
			t.Errorf("run %d: sched.batches = %d, want %d", g, got, batches)
		}
	}
}

// TestIdleWorkerClaimsFromAnotherSlice: worker 0's two tasks each wait
// for the other to start, so the batch can finish only if worker 1, done
// with its own slice, claims from worker 0's.
func TestIdleWorkerClaimsFromAnotherSlice(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		t.Run(goMaxName(procs), func(t *testing.T) {
			p := New(2)
			defer p.Close()
			started := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
			var timedOut atomic.Bool
			rendezvous := func(me int) Task {
				return func() {
					close(started[me])
					select {
					case <-started[1-me]:
					case <-time.After(5 * time.Second):
						timedOut.Store(true)
					}
				}
			}
			p.Run([]Task{rendezvous(0), rendezvous(1), func() {}, func() {}})
			if timedOut.Load() {
				t.Fatal("worker 0's tasks never ran together: no worker claimed from another's slice")
			}
			if got := steals(p); got < 1 {
				t.Fatalf("steals = %d, want >= 1", got)
			}
		})
	}
}

func TestTaskPanicContained(t *testing.T) {
	for _, threads := range []int{1, 4} {
		p := New(threads)
		const n = 64
		var ran atomic.Int32
		tasks := make([]Task, n)
		for i := range tasks {
			i := i
			tasks[i] = func() {
				if i == 17 {
					panic("boom-17")
				}
				ran.Add(1)
			}
		}
		var rec any
		func() {
			defer func() { rec = recover() }()
			p.Run(tasks)
		}()
		tp, ok := rec.(*TaskPanic)
		if !ok {
			t.Fatalf("threads=%d: Run recovered %v (%T), want *TaskPanic", threads, rec, rec)
		}
		if tp.Value != "boom-17" {
			t.Fatalf("threads=%d: panic value = %v", threads, tp.Value)
		}
		if tp.Stack == "" {
			t.Fatalf("threads=%d: no stack captured", threads)
		}
		if got := ran.Load(); got != n-1 {
			t.Fatalf("threads=%d: %d sibling tasks ran, want %d", threads, got, n-1)
		}
		// The pool must remain fully usable after a contained panic.
		var again atomic.Int32
		next := make([]Task, 32)
		for i := range next {
			next[i] = func() { again.Add(1) }
		}
		p.Run(next)
		if got := again.Load(); got != 32 {
			t.Fatalf("threads=%d: post-panic batch ran %d tasks, want 32", threads, got)
		}
		p.Close()
	}
}

func TestFaultHookPanicsWorker(t *testing.T) {
	p := New(4)
	defer p.Close()
	reg := faults.New(1)
	reg.Arm(faults.SchedWorkerPanic, faults.Trigger{Nth: 5, Transient: true})
	env := &Env{Pool: p, Faults: reg}
	tasks := make([]Task, 20)
	var ran atomic.Int32
	for i := range tasks {
		tasks[i] = func() { ran.Add(1) }
	}
	var rec any
	func() {
		defer func() { rec = recover() }()
		env.Run("batch", tasks)
	}()
	tp, ok := rec.(*TaskPanic)
	if !ok {
		t.Fatalf("Run recovered %v (%T), want *TaskPanic", rec, rec)
	}
	inj, ok := tp.Value.(*faults.Injected)
	if !ok || inj.Point != faults.SchedWorkerPanic || !inj.Transient {
		t.Fatalf("panic value = %#v", tp.Value)
	}
	if got := ran.Load(); got != 19 {
		t.Fatalf("%d sibling tasks ran, want 19", got)
	}
	// A batch on an Env without the registry runs clean again.
	(&Env{Pool: p}).Run("batch", tasks)
	if got := ran.Load(); got != 39 {
		t.Fatalf("post-disarm batch: ran=%d, want 39", got)
	}
}

func TestFaultHookSlowTask(t *testing.T) {
	p := New(2)
	defer p.Close()
	reg := faults.New(1)
	reg.Arm(faults.SchedTaskSlow, faults.Trigger{Nth: 1, Delay: 30 * time.Millisecond})
	t0 := time.Now()
	(&Env{Pool: p, Faults: reg}).Run("batch", []Task{func() {}})
	if d := time.Since(t0); d < 20*time.Millisecond {
		t.Fatalf("slow-task fault did not delay: batch took %v", d)
	}
}

// TestEnvRunCreditsBusyNs: a batch run through an Env credits the workers'
// busy-ns delta to the ledger's open phase and publishes a non-zero
// sched.busy_ns counter. The credited CPU time must be at least the
// single-task spin time (work happened) and bounded by workers × wall
// time (it is participation, not elapsed time).
func TestEnvRunCreditsBusyNs(t *testing.T) {
	r := obs.New()
	p := New(2)
	defer p.Close()

	led := obs.NewResourceLedger()
	led.Begin("dmav")
	tasks := make([]Task, 16)
	for i := range tasks {
		tasks[i] = func() { time.Sleep(time.Millisecond) }
	}
	t0 := time.Now()
	env := &Env{Pool: p, Ledger: led, Metrics: r}
	env.Run("batch", tasks)
	wall := time.Since(t0)
	led.End()

	snap := led.Snapshot()
	if snap.CPUNs < int64(time.Millisecond) {
		t.Errorf("ledger credited %d ns of CPU, want >= 1ms", snap.CPUNs)
	}
	if max := 2 * wall.Nanoseconds() * 2; snap.CPUNs > max { // 2 workers, 2x slack
		t.Errorf("ledger credited %d ns, more than workers*wall (%d)", snap.CPUNs, max)
	}
	if got := r.Snapshot().Counters["sched.busy_ns"]; got <= 0 {
		t.Errorf("sched.busy_ns = %d, want > 0", got)
	}
	// A nil ledger and span stay valid no-ops, and a nil Env runs inline.
	(&Env{Pool: p}).Run("batch", tasks[:1])
	ran := false
	(*Env)(nil).Run("batch", []Task{func() { ran = true }})
	if !ran || (*Env)(nil).Canceled() {
		t.Error("a nil Env must run its batch inline and never report canceled")
	}
}

// TestSpinParkStressTaskPanic drives the spin-then-park handoff at
// Threads 2 and 3 with a seeded schedule: batches of 1 to threads+1 tasks,
// so workers are left out of some batches, separated by no gap, by gaps
// inside the spin window, and by gaps past it, so workers are caught
// spinning, parking and parked. Every task must run exactly once per
// batch and finish before Run returns, a batch with a panicking task must
// surface it as a *TaskPanic after its siblings ran, and once Close
// returns the pool's goroutines are gone. A batch that does not return
// within the watchdog fails the test instead of hanging it. The seed is 1;
// FLATDD_SCHED_SEED replays another.
func TestSpinParkStressTaskPanic(t *testing.T) {
	seed := int64(1)
	if v := os.Getenv("FLATDD_SCHED_SEED"); v != "" {
		var err error
		if seed, err = strconv.ParseInt(v, 10, 64); err != nil {
			t.Fatalf("FLATDD_SCHED_SEED=%q: %v", v, err)
		}
	}
	batches := 4000
	if testing.Short() {
		batches = 1000
	}
	for _, threads := range []int{2, 3} {
		t.Run(fmt.Sprintf("threads-%d", threads), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed + int64(threads)))
			base := runtime.NumGoroutine()
			p := New(threads)
			for b := 0; b < batches; b++ {
				if err := stressBatch(p, rng, threads); err != nil {
					t.Fatalf("seed %d batch %d: %v", seed, b, err)
				}
				switch rng.Intn(4) {
				case 0: // back to back
				case 1, 2: // inside the spin window
					for end := time.Now().Add(time.Duration(rng.Intn(int(spinWindow/2))) + time.Microsecond); time.Now().Before(end); {
					}
				default: // past it: the workers park
					time.Sleep(spinWindow + time.Duration(rng.Intn(int(4*spinWindow))))
				}
			}
			p.Close()
			// Close waits for the workers; the batches' own callers exit
			// right after handing back their result.
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after Close, %d before New", runtime.NumGoroutine(), base)
				}
			}
		})
	}
}

// stressBatch runs one batch of 1 to threads+1 tasks on p, one of them
// panicking one time in eight, and checks what Run promises.
func stressBatch(p *Pool, rng *rand.Rand, threads int) error {
	n := 1 + rng.Intn(threads+1)
	panicker := -1
	if rng.Intn(8) == 0 {
		panicker = rng.Intn(n)
	}
	runs := make([]atomic.Int32, n)
	done := make([]atomic.Bool, n)
	tasks := make([]Task, n)
	for i := range tasks {
		iters := rng.Intn(3000)
		tasks[i] = func() {
			runs[i].Add(1)
			spin(iters)
			done[i].Store(true)
			if i == panicker {
				panic(i)
			}
		}
	}
	ret := make(chan any, 1)
	go func() {
		defer func() { ret <- recover() }()
		p.Run(tasks)
	}()
	var rec any
	select {
	case rec = <-ret:
	case <-time.After(10 * time.Second):
		return errors.New("Run did not return")
	}
	for i := range tasks {
		if got := runs[i].Load(); got != 1 {
			return fmt.Errorf("task %d of %d ran %d times", i, n, got)
		}
		if !done[i].Load() {
			return fmt.Errorf("Run returned before task %d of %d finished", i, n)
		}
	}
	tp, ok := rec.(*TaskPanic)
	switch {
	case panicker < 0 && rec != nil:
		return fmt.Errorf("Run panicked with %v", rec)
	case panicker >= 0 && (!ok || tp.Value != panicker):
		return fmt.Errorf("Run recovered %v (%T), want a *TaskPanic of task %d", rec, rec, panicker)
	}
	return nil
}
