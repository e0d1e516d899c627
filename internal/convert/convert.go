// Package convert implements the conversion of a state vector from
// decision-diagram to flat-array representation (Section 3.1.2 of the
// FlatDD paper).
//
// Sequential is the DDSIM-style baseline: a depth-first traversal writing
// one amplitude per nonzero path. ParallelIntoEnv adds the paper's two
// optimizations:
//
//   - load balancing (Figure 4a): when one outgoing edge of a node is
//     zero, the whole sub-range collapses onto the nonzero edge, so no
//     worker idles on a zero sub-tree — with region-based chunking this
//     falls out naturally, because chunks are cut from nonzero regions
//     only;
//   - scalar multiplication (Figure 4b): when a node's two children are
//     the same node, the second half of the output region is the first
//     half scaled by the ratio of the edge weights — the first half is
//     converted once and the second filled with a SIMD-style scalar
//     multiply, parallelized across the available threads.
//
// The parallel walk is planned, not spawned: planConv cuts the DD into
// region-sized leaf tasks plus an ordered list of scale operations, the
// tasks run as one batch on an internal/sched worker pool, and
// the scales follow innermost-first (an outer scale reads regions an
// inner scale fills). ParallelIntoEnv runs it in a run's environment
// (pool, cancellation, span, ledger, metrics); ParallelIntoPool is the
// same walk on a bare pool.
package convert

import (
	"fmt"
	"sync"
	"time"

	"flatdd/internal/dd"
	"flatdd/internal/obs"
	"flatdd/internal/sched"
)

// minLeaf is the smallest output region worth a separate task; below
// it, scheduling overhead beats the parallelism.
const minLeaf = 128

// metrics holds the conversion counters (see DESIGN.md, "Observability").
// A nil *metrics disables instrumentation at the cost of one pointer check
// per task creation.
type metrics struct {
	runs         *obs.Counter    // conversions performed
	wallNs       *obs.Counter    // total wall time across conversions
	workerBusyNs *obs.Counter    // summed busy time of conversion tasks
	tasks        *obs.Counter    // conversion tasks scheduled
	efficiency   *obs.FloatGauge // busy/(threads*wall) of the last conversion
}

// newMetrics returns the conversion handles of a registry (nil for a nil
// registry, keeping the disabled path allocation-free).
func newMetrics(r *obs.Registry) *metrics {
	if r == nil {
		return nil
	}
	return &metrics{
		runs:         r.Counter("convert.runs"),
		wallNs:       r.Counter("convert.wall_ns"),
		workerBusyNs: r.Counter("convert.worker_busy_ns"),
		tasks:        r.Counter("convert.tasks"),
		efficiency:   r.FloatGauge("convert.efficiency"),
	}
}

// Sequential converts a state DD to a flat array with the sequential
// depth-first algorithm (the conversion baseline of Figure 13).
func Sequential(m *dd.Manager, e dd.VEdge, n int) []complex128 {
	return m.ToArray(e, n)
}

// ParallelIntoPool is ParallelIntoEnv on a bare pool, recording into the
// registry r when it is non-nil.
func ParallelIntoPool(e dd.VEdge, n int, p *sched.Pool, out []complex128, r *obs.Registry) error {
	_, err := ParallelIntoEnv(e, n, out, &sched.Env{Pool: p, Metrics: r})
	return err
}

// ParallelIntoEnv converts a state DD into out on env.Pool. out must have
// length 2^n and be zeroed (freshly allocated or cleared): entries under
// zero edges are skipped, exactly like the sequential algorithm. A wrong
// length is a caller error and returned as one. Every field of env is
// optional:
//
//   - Pool runs the leaf tasks and large scale operations; without one
//     they run inline on the caller;
//   - Cancel is polled once per leaf task and once per scale operation;
//     a firing probe makes the remaining work return immediately (each
//     leaf covers at most ~len(out)/(8·threads) amplitudes). A nil probe
//     keeps the leaf tasks probe-free;
//   - Span receives the plan shape (task and scale-op counts) and parents
//     the leaf batch as a "convert.batch" child;
//   - Ledger is credited with the conversion's worker CPU time;
//   - Metrics records wall time, task count, busy time and a parallelism
//     efficiency gauge (busy/(threads·wall); 1.0 means every worker was
//     busy for the whole conversion).
//
// It reports whether the conversion ran to completion; after a false
// return, out holds a partial, unusable state and must be discarded.
func ParallelIntoEnv(e dd.VEdge, n int, out []complex128, env *sched.Env) (bool, error) {
	if uint64(len(out)) != uint64(1)<<uint(n) {
		return false, fmt.Errorf("convert: output length %d, want %d", len(out), uint64(1)<<uint(n))
	}
	if e.IsZero() {
		return true, nil
	}
	m := newMetrics(env.Metrics)
	threads := env.Pool.Threads()
	var start time.Time
	var busyBefore int64
	if m != nil {
		start = time.Now()
		busyBefore = m.workerBusyNs.Value()
	}
	minChunk := len(out) / (8 * threads)
	if minChunk < minLeaf {
		minChunk = minLeaf
	}
	var tasks []sched.Task
	var scales []scaleOp
	planConv(e.N, e.W, out, minChunk, &tasks, &scales, m)
	if env.Cancel != nil {
		for i, t := range tasks {
			tasks[i] = func() {
				if !env.Canceled() {
					t()
				}
			}
		}
	}
	env.Span.SetAttr("tasks", len(tasks))
	env.Span.SetAttr("scales", len(scales))
	env.Run("convert.batch", tasks)
	completed := !env.Canceled()
	// Innermost-first: a scale discovered later lies inside the source
	// region of one discovered earlier (DFS order), never the other way
	// round, so the reverse order guarantees every source is complete
	// before it is read.
	for i := len(scales) - 1; i >= 0 && completed; i-- {
		runScale(env, scales[i], m)
		completed = !env.Canceled()
	}
	if m != nil {
		wall := time.Since(start).Nanoseconds()
		m.runs.Inc()
		m.wallNs.Add(wall)
		if wall > 0 {
			busy := m.workerBusyNs.Value() - busyBefore
			eff := float64(busy) / (float64(threads) * float64(wall))
			if eff > 1 {
				eff = 1
			}
			m.efficiency.Set(eff)
		}
	}
	return completed, nil
}

// scaleOp is one deferred Figure 4b shortcut: dst = src * f, recorded
// during planning and executed after the leaf tasks.
type scaleOp struct {
	dst, src []complex128
	f        complex128
}

// planConv cuts the sub-vector of node nd (reached with weight product
// w) into leaf tasks of at most minChunk elements. Zero edges collapse
// the region (load balancing: no task is ever created for a zero
// sub-tree), and the e0.N == e1.N shortcut is recorded as a scaleOp
// instead of descending twice.
func planConv(nd *dd.VNode, w complex128, out []complex128, minChunk int, tasks *[]sched.Task, scales *[]scaleOp, m *metrics) {
	for {
		if len(out) <= minChunk || nd.Level == dd.TerminalLevel {
			nd, w, out := nd, w, out
			*tasks = append(*tasks, timedTask(m, func() { convSeq(nd, w, out) }))
			return
		}
		half := len(out) / 2
		e0, e1 := nd.E[0], nd.E[1]
		switch {
		case e0.IsZero() && e1.IsZero():
			return
		case e1.IsZero():
			w *= e0.W
			nd = e0.N
			out = out[:half]
		case e0.IsZero():
			w *= e1.W
			nd = e1.N
			out = out[half:]
		case e0.N == e1.N:
			*scales = append(*scales, scaleOp{dst: out[half:], src: out[:half], f: e1.W / e0.W})
			w *= e0.W
			nd = e0.N
			out = out[:half]
		default:
			planConv(e0.N, w*e0.W, out[:half], minChunk, tasks, scales, m)
			w *= e1.W
			nd = e1.N
			out = out[half:]
		}
	}
}

// timedTask wraps a task with busy-time accounting when metrics are on.
func timedTask(m *metrics, f func()) sched.Task {
	if m == nil {
		return f
	}
	m.tasks.Inc()
	return func() {
		t0 := time.Now()
		f()
		m.workerBusyNs.Add(time.Since(t0).Nanoseconds())
	}
}

// runScale executes one scaleOp, split across the pool when the region
// is large enough to be worth it. Scale batches carry no span of their
// own: their cost shows in the enclosing phase span.
func runScale(env *sched.Env, s scaleOp, m *metrics) {
	n := len(s.dst)
	threads := min(env.Pool.Threads(), n)
	if threads <= 1 || n < 1024 {
		t0 := time.Now()
		timedTask(m, func() { scalarMul(s.dst, s.src, s.f) })()
		env.Ledger.AddCPU(time.Since(t0).Nanoseconds())
		return
	}
	tasks := make([]sched.Task, 0, threads)
	chunk := n / threads
	for i := 0; i < threads; i++ {
		lo := i * chunk
		hi := lo + chunk
		if i == threads-1 {
			hi = n
		}
		tasks = append(tasks, timedTask(m, func() { scalarMul(s.dst[lo:hi], s.src[lo:hi], s.f) }))
	}
	untraced := *env
	untraced.Span = nil
	untraced.Run("", tasks)
}

// convSeq is the single-threaded conversion of a sub-tree: no goroutines,
// no scheduling, but still applying the scalar-multiplication shortcut.
func convSeq(nd *dd.VNode, w complex128, out []complex128) {
	for {
		if nd.Level == dd.TerminalLevel {
			out[0] = w
			return
		}
		half := len(out) / 2
		e0, e1 := nd.E[0], nd.E[1]
		switch {
		case e0.IsZero() && e1.IsZero():
			return
		case e1.IsZero():
			w *= e0.W
			nd = e0.N
			out = out[:half]
		case e0.IsZero():
			w *= e1.W
			nd = e1.N
			out = out[half:]
		case e0.N == e1.N:
			convSeq(e0.N, w*e0.W, out[:half])
			scalarMul(out[half:], out[:half], e1.W/e0.W)
			return
		default:
			convSeq(e0.N, w*e0.W, out[:half])
			w *= e1.W
			nd = e1.N
			out = out[half:]
		}
	}
}

// ParallelNaiveInto is the ablation variant of ParallelIntoEnv: threads are
// divided blindly across both outgoing edges of every node (threads routed
// to a zero edge idle, Figure 4a's problem) and the scalar-multiplication
// shortcut is disabled. It quantifies what the two optimizations buy.
// It intentionally keeps the old spawn-per-split implementation — it is
// the baseline the scheduled version is measured against.
func ParallelNaiveInto(e dd.VEdge, n, threads int, out []complex128) {
	if uint64(len(out)) != uint64(1)<<uint(n) {
		panic(fmt.Sprintf("convert: output length %d, want %d", len(out), uint64(1)<<uint(n)))
	}
	if threads < 1 {
		threads = 1
	}
	if e.IsZero() {
		return
	}
	var wg sync.WaitGroup
	naiveRec(e.N, e.W, out, threads, &wg)
	wg.Wait()
}

func naiveRec(nd *dd.VNode, w complex128, out []complex128, budget int, wg *sync.WaitGroup) {
	if nd.Level == dd.TerminalLevel {
		out[0] = w
		return
	}
	half := len(out) / 2
	e0, e1 := nd.E[0], nd.E[1]
	if budget <= 1 {
		if !e0.IsZero() {
			naiveRec(e0.N, w*e0.W, out[:half], 1, wg)
		}
		if !e1.IsZero() {
			naiveRec(e1.N, w*e1.W, out[half:], 1, wg)
		}
		return
	}
	// Blind split: half the threads to each edge, zero or not.
	b0 := budget / 2
	b1 := budget - b0
	if !e0.IsZero() {
		lo := out[:half]
		e0w := w * e0.W
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sub sync.WaitGroup
			naiveRec(e0.N, e0w, lo, b0, &sub)
			sub.Wait()
		}()
	}
	if !e1.IsZero() {
		naiveRec(e1.N, w*e1.W, out[half:], b1, wg)
	}
}

// scalarMul is the unrolled scaling kernel (the SIMD stand-in).
func scalarMul(dst, src []complex128, f complex128) {
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		dst[i] = src[i] * f
		dst[i+1] = src[i+1] * f
		dst[i+2] = src[i+2] * f
		dst[i+3] = src[i+3] * f
	}
	for ; i < len(dst); i++ {
		dst[i] = src[i] * f
	}
}
