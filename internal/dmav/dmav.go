// Package dmav implements DMAV, the paper's core contribution:
// multiplication of a DD-represented gate matrix with a flat-array state
// vector, parallelized over a persistent work-stealing pool
// (internal/sched).
//
// Two execution modes exist, selected per gate by the MAC-operation cost
// model of Section 3.2.3:
//
//   - without caching (Algorithm 1): the amplitude range is split in row
//     space into ~8×threads chunks sized by the MAC-count cost model, so
//     a heavy sub-block splits finer than a sparse one; each chunk runs
//     the span kernel over the sub-blocks that land in its rows;
//   - with caching (Algorithm 2): AssignCache splits in column space
//     into a power-of-two chunk count (the border-level split must stay
//     aligned with the DD), chunks with non-overlapping partial outputs
//     share buffers, each chunk computes the result sub-vector of every
//     distinct border node once, and a repeated node is reused through
//     one scalar multiplication instead of a full multiply. The final
//     partial-buffer sum runs as row-range tasks on the same pool.
//
// Both run one kernel (plan.go): every gate-DD node is compiled once into
// a plan that acts on whole sub-blocks — a contiguous span for an identity
// block, a strided loop for a run of I⊗child levels, a 2×2 butterfly over
// identity children, a four-child descent otherwise — with constant-time
// indexing along the DD structure and no per-amplitude recursion. What a
// gate needs beyond its node plans (cost, chunk lists, pool batch, whether
// it is worth a fork-join at all) is a pure function of the root node and
// the engine shape and is memoized per root, so a repeated gate costs a
// map lookup and a loop.
//
// Any positive thread count is supported; chunks are distributed over
// the pool and re-balanced by stealing, so worker count and chunk
// shape no longer need to match.
package dmav

import (
	"fmt"
	"math/bits"
	"time"

	"flatdd/internal/dd"
	"flatdd/internal/faults"
	"flatdd/internal/obs"
	"flatdd/internal/sched"
)

// DefaultSIMDWidth is the default d of Equation 6 — the number of data
// elements a SIMD lane processes at once (AVX2 in the paper; the unrolled
// Go kernels in kernels.go play that role here).
const DefaultSIMDWidth = 4

// chunksPerThread is the target over-decomposition factor: the uncached
// path aims for about this many row chunks per worker so the
// work-stealing pool has slack to re-balance a skewed MAC distribution.
const chunksPerThread = 8

// inlineBelowMACs is the planned work — multiply-accumulates of the chosen
// algorithm, counting a copied or scaled element as one — under which a
// gate runs on the calling goroutine instead of forking onto the pool.
// It rests on two measurements on the 2-vCPU reference box (go1.24; see
// EXPERIMENTS.md, "DMAV span kernel"). First, the cost of a fork-join:
// sched.batch_us_p50 is 1.8 µs for back-to-back empty batches, whose
// workers never stop spinning, but inside a gate stream the second worker
// has parked by the time the next gate arrives, and the same gate forced
// onto the pool takes 11–40 µs longer than inline at n=12–14. Second, span
// throughput: one thread sustains 0.4 (fSim) to 1.4 (single-qubit) G
// MACs/s inline. A second worker saves at most half the run time, so the
// fork cannot pay below 2 × 40 µs × 1.4 G/s ≈ 2^17 MACs; measured, two
// threads lose up to n=16 (≤ 2^17 MACs per gate: the supremacy n=14
// stream takes 176 ms forked, 105 ms inline), tie at n=17 and win 1.1–1.6×
// at n=18 (2^18–2^19), so the cutoff sits at 2^18. Beyond two vCPUs the
// crossover is unmeasured.
const inlineBelowMACs = 1 << 18

// Mode selects the caching policy of an Engine.
type Mode int

const (
	// Auto picks caching per gate with the cost model (the paper's FlatDD).
	Auto Mode = iota
	// NeverCache always runs Algorithm 1.
	NeverCache
	// AlwaysCache always runs Algorithm 2.
	AlwaysCache
)

func (m Mode) String() string {
	switch m {
	case Auto:
		return "auto"
	case NeverCache:
		return "never"
	case AlwaysCache:
		return "always"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// task is one sub-block of the gate matrix met while splitting it: its DD
// edge, the start index of the paired sub-vector of V (row splitting) or
// of its output segment (column splitting), and the weight product
// accumulated between the root node and the edge (exclusive of both the
// root edge's and this edge's own weight).
type task struct {
	edge dd.MEdge
	idx  uint64
	f    complex128
}

// rowItem is one compiled sub-block of a row chunk: W[rows] += f·P·V[iv:].
// f is the weight product below the root edge, the item's own edge
// included; Apply multiplies the root weight in.
type rowItem struct {
	p  *plan
	iv uint64
	f  complex128
}

// rowChunk is one schedulable unit of the uncached path: the sub-blocks
// whose outputs land in the size rows starting at ir. Chunks partition row
// space, so they write disjoint slices of W and need no synchronization.
// A chunk without items is a row range the matrix leaves zero.
type rowChunk struct {
	ir, size uint64
	items    []rowItem
}

// colTask is one compiled border task of the cached path: the ch rows at
// idx of the chunk's buffer receive f·P·V[chunk columns] — computed, or,
// when an earlier task of the chunk already computed the same node (hit),
// copied from that task's rows at src scaled by the ratio of the weights.
type colTask struct {
	p     *plan
	idx   uint64
	f     complex128
	hit   bool
	src   uint64
	ratio complex128
}

// colChunk is one schedulable unit of the cached path: the border tasks of
// column block u, all writing into partial-output buffer buf.
type colChunk struct {
	u, buf int
	tasks  []colTask
}

// bufSeg is a ch-row segment of a partial-output buffer.
type bufSeg struct {
	buf int
	idx uint64
}

// GateCost is the cost-model evaluation of one gate matrix (Section 3.2.3).
type GateCost struct {
	K1      int64   // MACs without caching
	K2      int64   // MACs unrelated to caching (unique border subtrees)
	Hits    int64   // H: cache hits across all chunks
	Buffers int     // b: shared partial-output buffers
	C1      float64 // Equation 5
	C2      float64 // Equation 6
}

// UseCache reports whether the model prefers Algorithm 2 (C1 > C2).
func (c GateCost) UseCache() bool { return c.C1 > c.C2 }

// Cost returns min(C1, C2), the modeled cost of the DMAV.
func (c GateCost) Cost() float64 {
	if c.C2 < c.C1 {
		return c.C2
	}
	return c.C1
}

// Stats accumulates per-engine counters.
type Stats struct {
	Gates       int
	CachedGates int
	CacheHits   int64
	MACsModeled float64 // sum of min(C1,C2) over applied gates
	MACsC1      float64 // sum of C1 (Equation 5) — the no-caching cost
}

// gatePlan is what the engine knows about one distinct gate root. The cost
// is filled by the first EvaluateCost; the execution half (everything
// below built) by the first Apply, for the one algorithm the engine's mode
// and the cost pick — both are pure functions of the root node and the
// engine shape.
type gatePlan struct {
	cost GateCost

	built  bool
	cached bool // Algorithm 2
	// inline: run on the caller, no fork-join. Fixed per root, so the
	// load accounting below never sees a plan-shape change.
	inline bool
	rows   []rowChunk   // uncached: row-space chunks
	cols   []colChunk   // cached: non-empty column chunks
	gaps   []bufSeg     // cached: buffer segments no task writes
	batch  []sched.Task // the pool batch over rows or cols (nil if inline)

	// Load of one Apply, for the metrics: schedulable chunks, sub-blocks
	// executed, multiply-accumulates performed (a cache hit costs ch
	// scalar multiplies) and cache misses.
	chunks, tasks, macs, misses int64
}

// Engine executes DMAV products over a fixed register size. It reuses its
// buffers across gates; an Engine is not safe for concurrent use (the
// parallelism is internal).
type Engine struct {
	m    *dd.Manager
	n    int
	dim  uint64
	mode Mode

	threads int // any positive count, capped at 2^n
	simd    int

	// Cached-path (Algorithm 2) column-space partition: a power-of-two
	// chunk count so the border-level split stays aligned with the DD.
	cchunks int    // nextPow2(threads), <= 2^n
	clogT   uint   // log2(cchunks)
	ch      uint64 // 2^n / cchunks: rows/cols per cached chunk

	// Memo tables, keyed by gate-DD node. Keys keep the nodes alive,
	// bounded by the distinct gates evaluated (macMemo, gates) or applied
	// (plans).
	macMemo map[*dd.MNode]int64 // dd.MACCountNode
	plans   map[*dd.MNode]*plan
	gates   map[*dd.MNode]*gatePlan

	// Scratch of assignCache, reused across roots: per-chunk border
	// tasks, chunk -> buffer, buffer count, per-buffer segment occupancy
	// (a bit per segment) and the first task index of each node.
	tasks   [][]task
	bufOf   []int
	nBuf    int
	occ     []uint64
	firstOf map[*dd.MNode]int

	buffers [][]complex128 // partial-output buffers 1, 2, … (0 is W), grown on demand

	// pool executes chunk batches. Either injected via SetPool (caller
	// owns its lifetime) or created lazily on the first multi-threaded
	// Apply (released by Close).
	pool     *sched.Pool
	ownPool  bool
	sumTasks []sched.Task // the buffer-sum batch, built once

	// cur is the multiplication in flight: the memoized batches read
	// their operands here, so a repeated gate allocates nothing.
	cur struct {
		mul
		f complex128 // the root edge's weight
		g *gatePlan
	}

	// noBufferShare disables the shared-partial-output optimization of
	// Algorithm 2 (every chunk gets a private buffer); used by the
	// ablation experiments.
	noBufferShare bool

	// cancel, when non-nil, is a cooperative cancellation probe polled
	// once per chunk (row chunks, cached column chunks, and buffer-sum
	// ranges). A firing probe makes the rest of the Apply a no-op; the
	// output vector is then partial and must be discarded by the caller.
	cancel func() bool

	// span, when non-nil, parents the engine's pool batches so the
	// scheduler attributes per-batch steal/idle deltas to this gate
	// stream. Nil (the default) keeps the batches span-free.
	span *obs.Span

	// led, when non-nil, receives the engine's resource attribution:
	// pool-batch busy-ns via the scheduler and partial-buffer bytes as
	// they are allocated. Nil (the default) keeps batches ledger-free.
	led *obs.ResourceLedger

	stats Stats

	// met is nil when metrics are off: Apply gates all instrumentation
	// behind this one pointer check.
	met *engMetrics

	// fts holds the fault-injection hooks; nil points in production, so
	// each hook site costs one pointer check.
	fts engFaults
}

// engFaults are the engine's injection points (see internal/faults).
type engFaults struct {
	cacheCorrupt   *faults.Point
	computeCorrupt *faults.Point
}

// engMetrics holds the engine's registry handles (see DESIGN.md,
// "Observability", for the metric names).
type engMetrics struct {
	gates         *obs.Counter
	cachedGates   *obs.Counter
	uncachedGates *obs.Counter // cost model (or mode) bypassed the cache
	cacheHits     *obs.Counter
	cacheMisses   *obs.Counter
	macsModeled   *obs.Counter
	macsExec      *obs.Counter
	tasks         *obs.Counter
	chunks        *obs.Counter
	applyNs       *obs.Histogram
}

// New returns a DMAV engine for n qubits running max(1, threads)
// workers, capped at 2^n. Any positive thread count is supported: the
// uncached path sizes its row chunks by the MAC cost model, and the
// cached path partitions column space into the next power of two ≥
// threads, with the work-stealing pool re-balancing either shape across
// the actual workers.
func New(m *dd.Manager, n, threads int, mode Mode) *Engine {
	if n < 1 || n > 34 {
		panic(fmt.Sprintf("dmav: unsupported qubit count %d", n))
	}
	if threads < 1 {
		threads = 1
	}
	dim := uint64(1) << uint(n)
	if uint64(threads) > dim {
		threads = int(dim)
	}
	cchunks := 1
	for cchunks < threads {
		cchunks <<= 1
	}
	e := &Engine{
		m:       m,
		n:       n,
		dim:     dim,
		mode:    mode,
		threads: threads,
		cchunks: cchunks,
		clogT:   uint(bits.TrailingZeros(uint(cchunks))),
		simd:    DefaultSIMDWidth,
		macMemo: make(map[*dd.MNode]int64),
		plans:   make(map[*dd.MNode]*plan),
		gates:   make(map[*dd.MNode]*gatePlan),
		firstOf: make(map[*dd.MNode]int),
	}
	e.ch = e.dim >> e.clogT
	e.tasks = make([][]task, cchunks)
	e.bufOf = make([]int, cchunks)
	e.occ = make([]uint64, cchunks*e.occWords())
	return e
}

// occWords is the length in words of one buffer's segment-occupancy set.
func (e *Engine) occWords() int { return (e.cchunks + 63) / 64 }

// Threads returns the effective worker count: max(1, requested), capped
// at 2^n. Unlike earlier versions, the count is no longer rounded to a
// power of two — New(m, n, 3, mode).Threads() == 3.
func (e *Engine) Threads() int { return e.threads }

// CacheChunks returns the cached-path column-space chunk count: the next
// power of two ≥ Threads(), capped at 2^n.
func (e *Engine) CacheChunks() int { return e.cchunks }

// Mode returns the caching policy.
func (e *Engine) Mode() Mode { return e.mode }

// SetPool injects a shared scheduler pool (core.Run uses this so one
// pool serves conversion and every DMAV gate). The caller keeps
// ownership of the pool's lifetime. Passing nil reverts to a lazily
// created engine-owned pool.
func (e *Engine) SetPool(p *sched.Pool) {
	if e.ownPool {
		e.pool.Close()
		e.ownPool = false
	}
	e.pool = p
}

// Close releases the engine-owned pool, if one was created. Engines
// given a pool via SetPool are not affected.
func (e *Engine) Close() {
	if e.ownPool {
		e.pool.Close()
		e.pool = nil
		e.ownPool = false
	}
}

// ensurePool lazily creates an engine-owned pool for engines not wired
// into a shared one.
func (e *Engine) ensurePool() {
	if e.pool == nil {
		e.pool = sched.New(e.threads)
		e.ownPool = true
	}
}

// SetCancel installs a cooperative cancellation probe (nil removes it).
// The probe is polled at chunk granularity inside Apply — cheap enough to
// leave no trace on the kernels (one call per ~8×threads chunks per
// gate), frequent enough that an abort is observed well within one gate.
// Once the probe fires, Apply returns early with a partial output vector
// and without updating Stats; the caller is expected to discard the
// output and stop applying gates. core.RunContext wires the run context's
// doneness in here.
func (e *Engine) SetCancel(f func() bool) { e.cancel = f }

// cancelled reports whether the installed probe has fired.
func (e *Engine) cancelled() bool { return e.cancel != nil && e.cancel() }

// SetSpan installs the tracing span under which the engine's pool
// batches run (nil removes it — the production default). Batches appear
// as "dmav.rows" / "dmav.chunks" / "dmav.sum" children carrying the
// scheduler's per-batch attribution; the span collector's cap bounds
// how many are retained per trace. Like SetCancel, it is set per run,
// not per gate.
func (e *Engine) SetSpan(s *obs.Span) { e.span = s }

// SetLedger installs the resource ledger the engine reports into (nil
// removes it — the production default). Pool batches credit their
// worker busy-ns to the ledger's open phase, a gate that runs inline
// credits its wall time, and the cached path's shared partial-output
// buffers are counted as live flat-array bytes when (re)allocated. Like
// SetSpan, it is set per run, not per gate.
func (e *Engine) SetLedger(l *obs.ResourceLedger) { e.led = l }

// SetBufferSharing enables or disables the shared partial-output buffers
// of Algorithm 2 (enabled by default; disabling is for ablation studies).
func (e *Engine) SetBufferSharing(on bool) {
	e.noBufferShare = !on
	clear(e.gates) // costs and buffer assignments depend on it
}

// SetSIMDWidth overrides the d parameter of Equation 6.
func (e *Engine) SetSIMDWidth(d int) {
	if d < 1 {
		d = 1
	}
	e.simd = d
	clear(e.gates) // costs, and so the cache decisions, depend on it
}

// Stats returns the accumulated counters.
func (e *Engine) Stats() Stats { return e.stats }

// SetMetrics attaches the engine to a registry (nil detaches). Aggregate
// load shows up as dmav.tasks (border tasks executed), dmav.chunks
// (schedulable chunks built) and dmav.macs.executed (multiply-
// accumulates performed: the exact path count of each executed sub-tree,
// plus one scalar multiply per cached element on reuse); per-worker
// attribution lives with the scheduler (sched.worker.<i>.*). It must be
// called before Apply.
func (e *Engine) SetMetrics(r *obs.Registry) {
	if r == nil {
		e.met = nil
		return
	}
	e.met = &engMetrics{
		gates:         r.Counter("dmav.gates"),
		cachedGates:   r.Counter("dmav.gates.cached"),
		uncachedGates: r.Counter("dmav.gates.uncached"),
		cacheHits:     r.Counter("dmav.cache.hits"),
		cacheMisses:   r.Counter("dmav.cache.misses"),
		macsModeled:   r.Counter("dmav.macs.modeled"),
		macsExec:      r.Counter("dmav.macs.executed"),
		tasks:         r.Counter("dmav.tasks"),
		chunks:        r.Counter("dmav.chunks"),
		applyNs:       r.Histogram("dmav.apply_ns", obs.DurationBuckets()),
	}
}

// SetFaults wires the engine's injection points to a fault registry
// (nil detaches; production engines never call this). Must be called
// before Apply, like SetMetrics.
func (e *Engine) SetFaults(r *faults.Registry) {
	if r == nil {
		e.fts = engFaults{}
		return
	}
	e.fts = engFaults{
		cacheCorrupt:   r.Point(faults.DMAVCacheCorrupt),
		computeCorrupt: r.Point(faults.DMAVComputeCorrupt),
	}
}

// borderLevel is n - log2(cchunks) - 1 (Section 3.2.1): AssignCache
// stops there and the kernel starts there.
func (e *Engine) borderLevel() int { return e.n - int(e.clogT) - 1 }

// Apply computes W = M·V, choosing the execution mode per the engine
// policy. V and W must have length 2^n and must not alias — violations
// are caller errors and reported as such (internal invariants still
// panic). It returns the cost-model evaluation used for the decision.
func (e *Engine) Apply(M dd.MEdge, V, W []complex128) (GateCost, error) {
	if uint64(len(V)) != e.dim || uint64(len(W)) != e.dim {
		return GateCost{}, fmt.Errorf("dmav: vector length %d/%d, want %d", len(V), len(W), e.dim)
	}
	if len(V) > 0 && &V[0] == &W[0] {
		return GateCost{}, fmt.Errorf("dmav: V and W must not alias")
	}
	if M.IsZero() {
		clear(W)
		return GateCost{}, nil
	}
	var start time.Time
	if e.met != nil {
		start = time.Now()
	}
	g := e.gate(M.N)
	if !g.built {
		e.build(g, M.N)
	}
	// Inline execution never touches the pool, so its CPU time would be
	// invisible to the ledger's batch-level busy accounting; credit the
	// apply wall time instead (single-threaded, so wall == CPU).
	var ledStart time.Time
	if e.led != nil && g.inline {
		ledStart = time.Now()
	}
	e.cur.V, e.cur.W, e.cur.f, e.cur.g = V, W, M.W, g
	if g.cached {
		e.applyCached(g)
	} else {
		e.applyUncached(g)
	}
	if !ledStart.IsZero() {
		e.led.AddCPU(time.Since(ledStart).Nanoseconds())
	}
	cost := g.cost
	if e.cancelled() {
		// Aborted mid-gate: W is partial and the caller discards it, so
		// neither Stats nor the metrics count this Apply.
		return cost, nil
	}
	if g.cached {
		e.stats.CachedGates++
		e.stats.CacheHits += cost.Hits
	}
	e.stats.Gates++
	e.stats.MACsModeled += cost.Cost()
	e.stats.MACsC1 += cost.C1
	if met := e.met; met != nil {
		met.applyNs.Observe(time.Since(start).Nanoseconds())
		met.gates.Inc()
		met.macsModeled.Add(int64(cost.Cost()))
		if g.cached {
			met.cachedGates.Inc()
			met.cacheHits.Add(cost.Hits)
			met.cacheMisses.Add(g.misses)
		} else {
			met.uncachedGates.Inc()
		}
		// The exact load of the Apply that just ran, memoized with the
		// plan; per-worker attribution comes from the scheduler's own
		// counters, since stealing makes the worker→chunk mapping dynamic.
		met.tasks.Add(g.tasks)
		met.macsExec.Add(g.macs)
		met.chunks.Add(g.chunks)
	}
	return cost, nil
}

// EvaluateCost runs the Section 3.2.3 cost model on a gate matrix without
// executing the multiplication. The evaluation is memoized per root node.
func (e *Engine) EvaluateCost(M dd.MEdge) GateCost {
	if M.IsZero() {
		return GateCost{}
	}
	return e.gate(M.N).cost
}

// gate returns the memo entry of a gate root, evaluating its cost on
// first sight.
func (e *Engine) gate(root *dd.MNode) *gatePlan {
	g, ok := e.gates[root]
	if !ok {
		g = &gatePlan{cost: e.evaluate(root)}
		e.gates[root] = g
	}
	return g
}

// evaluate is the cost model proper: K1 from the MAC count, and K2, H and
// b from a dry run of the caching assignment.
func (e *Engine) evaluate(root *dd.MNode) GateCost {
	var c GateCost
	c.K1 = dd.MACCountNode(root, e.macMemo)
	c.C1 = float64(c.K1) / float64(e.threads)

	e.assignCache(root)
	for _, ts := range e.tasks {
		clear(e.firstOf)
		for i, tk := range ts {
			if _, ok := e.firstOf[tk.edge.N]; ok {
				c.Hits++
				continue
			}
			e.firstOf[tk.edge.N] = i
			c.K2 += dd.MACCountNode(tk.edge.N, e.macMemo)
		}
	}
	c.Buffers = e.nBuf
	t := float64(e.threads)
	d := float64(e.simd)
	c.C2 = float64(c.K2)/t + float64(e.dim)/(d*t)*(float64(c.Hits)/t+float64(c.Buffers))
	return c
}

// build fills the execution half of a gate's memo entry: which algorithm
// runs, its chunk lists with every sub-block compiled to a plan, whether
// the gate is worth a fork-join, and the pool batch if it is.
func (e *Engine) build(g *gatePlan, root *dd.MNode) {
	g.built = true
	g.cached = g.cost.UseCache()
	switch e.mode {
	case NeverCache:
		g.cached = false
	case AlwaysCache:
		g.cached = true
	}
	work := g.cost.K1
	if g.cached {
		// Algorithm 2 forks twice — the chunks, then the sum — so each
		// batch carries about half of its work (a cached top-qubit gate,
		// forked vs inline: 744 vs 302 µs at n=16, 772 vs 799 at n=17,
		// 1250 vs 1535 at n=18).
		work = (g.cost.K2 + g.cost.Hits*int64(e.ch) + int64(g.cost.Buffers)*int64(e.dim)) / 2
	}
	g.inline = e.threads == 1 || work < inlineBelowMACs
	if g.cached {
		e.buildCols(g, root)
	} else {
		e.buildRows(g, root)
	}
	if g.inline {
		return
	}
	if g.cached {
		for i := range g.cols {
			c := &g.cols[i]
			g.batch = append(g.batch, func() { e.runCol(c) })
		}
	} else {
		for i := range g.rows {
			c := &g.rows[i]
			g.batch = append(g.batch, func() { e.runRow(c) })
		}
	}
}

// applyUncached is Algorithm 1: DMAV without caching. Row chunks are
// sized by the MAC cost model (buildRows) and executed as one pool
// batch; chunks write disjoint row ranges of W, so tasks need no
// synchronization among themselves.
func (e *Engine) applyUncached(g *gatePlan) {
	if g.inline {
		for i := range g.rows {
			e.runRow(&g.rows[i])
		}
		return
	}
	e.ensurePool()
	e.pool.RunTracked(e.span, "dmav.rows", e.led, g.batch)
}

// runRow executes one row chunk of the multiplication in flight. The
// chunk's first sub-block writes its rows, the rest accumulate, so W is
// never zeroed beforehand.
func (e *Engine) runRow(c *rowChunk) {
	if e.cancelled() {
		return
	}
	x := &e.cur
	if len(c.items) == 0 {
		clear(x.W[c.ir : c.ir+c.size])
	}
	for i := range c.items {
		it := &c.items[i]
		x.exec(it.p, it.iv, c.ir, x.f*it.f, i == 0)
	}
	e.corruptRow(x.W, c.ir)
}

// buildRows builds the uncached path's row-space chunk plan: starting
// from the whole matrix, any row range whose modeled MAC count exceeds
// K1/(chunksPerThread·threads) is split in half (descending one DD
// level), so dense sub-blocks decompose into many small chunks while
// sparse ones stay whole. The result is ~chunksPerThread×threads chunks
// whose sizes track actual work, which is what gives the stealing pool
// something useful to balance. An inline gate is one chunk: there is
// nothing to balance.
func (e *Engine) buildRows(g *gatePlan, root *dd.MNode) {
	budget := g.cost.K1 / int64(chunksPerThread*e.threads)
	if g.inline {
		budget = g.cost.K1
	}
	if budget < 1 {
		budget = 1
	}
	memo := e.macMemo
	var rec func(items []task, l int, ir uint64)
	rec = func(items []task, l int, ir uint64) {
		if l >= 0 {
			var cost int64
			for _, it := range items {
				cost += dd.MACCountNode(it.edge.N, memo)
			}
			if cost > budget {
				lo := make([]task, 0, len(items))
				hi := make([]task, 0, len(items))
				for _, it := range items {
					fw := it.f * it.edge.W
					for j := 0; j < 2; j++ {
						if c := it.edge.N.Child(0, j); !c.IsZero() {
							lo = append(lo, task{c, it.idx + uint64(j)<<uint(l), fw})
						}
						if c := it.edge.N.Child(1, j); !c.IsZero() {
							hi = append(hi, task{c, it.idx + uint64(j)<<uint(l), fw})
						}
					}
				}
				rec(lo, l-1, ir)
				rec(hi, l-1, ir+uint64(1)<<uint(l))
				return
			}
		}
		c := rowChunk{ir: ir, size: uint64(1) << uint(l+1), items: make([]rowItem, len(items))}
		for i, it := range items {
			c.items[i] = rowItem{e.planOf(it.edge.N), it.idx, it.f * it.edge.W}
		}
		g.rows = append(g.rows, c)
		g.tasks += int64(len(items))
	}
	rec([]task{{dd.MEdge{W: 1, N: root}, 0, 1}}, e.n-1, 0)
	g.chunks = int64(len(g.rows))
	g.macs = g.cost.K1 // the chunks partition the matrix's nonzero paths
	if len(g.rows) == 1 {
		g.inline = true
	}
}

// applyCached is Algorithm 2: DMAV with caching. Column-space chunks run
// as one pool batch (chunks sharing a buffer write disjoint row
// segments, so they may run concurrently), then the partial buffers are
// summed into W by a second batch of row-range tasks. W itself serves as
// partial-output buffer 0, so a gate with b buffers allocates b-1 and a
// gate with one needs no sum at all.
func (e *Engine) applyCached(g *gatePlan) {
	for len(e.buffers) < g.cost.Buffers-1 {
		e.buffers = append(e.buffers, make([]complex128, e.dim))
		e.led.AddFlat(int64(e.dim) * 16)
	}
	// Every task writes its whole segment; only the segments no task
	// owns must be cleared before the sum.
	for _, s := range g.gaps {
		clear(e.partial(s.buf)[s.idx : s.idx+e.ch])
	}
	if g.inline {
		for i := range g.cols {
			e.runCol(&g.cols[i])
		}
	} else {
		e.ensurePool()
		e.pool.RunTracked(e.span, "dmav.chunks", e.led, g.batch)
	}
	if g.cost.Buffers > 1 {
		e.sumBuffers(g)
	}
}

// partial returns partial-output buffer b of the multiplication in flight.
func (e *Engine) partial(b int) []complex128 {
	if b == 0 {
		return e.cur.W
	}
	return e.buffers[b-1]
}

// runCol executes one column chunk of the multiplication in flight.
func (e *Engine) runCol(c *colChunk) {
	if e.cancelled() {
		return
	}
	x := mul{V: e.cur.V, W: e.partial(c.buf)}
	buf := x.W
	iv := uint64(c.u) * e.ch // the chunk's column block in V
	for i := range c.tasks {
		tk := &c.tasks[i]
		if tk.hit {
			// Reuse: the repeated node's result is the cached sub-vector
			// scaled by the ratio of full weights.
			scalarMulInto(buf[tk.idx:tk.idx+e.ch], buf[tk.src:tk.src+e.ch], tk.ratio)
			continue
		}
		x.exec(tk.p, iv, tk.idx, e.cur.f*tk.f, true)
		if e.fts.cacheCorrupt != nil {
			if z, ok := e.fts.cacheCorrupt.Corrupt(buf[tk.idx]); ok {
				buf[tk.idx] = z
			}
		}
	}
}

// buildCols compiles the caching assignment of a root into column chunks:
// per chunk, which tasks compute and which reuse an earlier result, and
// which buffer segments stay empty.
func (e *Engine) buildCols(g *gatePlan, root *dd.MNode) {
	e.assignCache(root)
	for u, ts := range e.tasks {
		if len(ts) == 0 {
			continue
		}
		c := colChunk{u: u, buf: e.bufOf[u], tasks: make([]colTask, len(ts))}
		clear(e.firstOf)
		for i, tk := range ts {
			ct := colTask{p: e.planOf(tk.edge.N), idx: tk.idx, f: tk.f * tk.edge.W}
			if j, ok := e.firstOf[tk.edge.N]; ok {
				ct.hit, ct.src, ct.ratio = true, c.tasks[j].idx, ct.f/c.tasks[j].f
			} else {
				e.firstOf[tk.edge.N] = i
				g.misses++
			}
			c.tasks[i] = ct
		}
		g.cols = append(g.cols, c)
		g.tasks += int64(len(ts))
	}
	words := e.occWords()
	for b := 0; b < e.nBuf; b++ {
		for s := 0; s < e.cchunks; s++ {
			if e.occ[b*words+s/64]>>(uint(s)%64)&1 == 0 {
				g.gaps = append(g.gaps, bufSeg{b, uint64(s) * e.ch})
			}
		}
	}
	g.chunks = int64(len(g.cols))
	g.macs = g.cost.K2 + g.cost.Hits*int64(e.ch)
}

// corruptRow is the uncached path's corruption hook: after a row chunk
// computes, the armed fault flips the chunk's first output amplitude
// (chunks own disjoint row ranges, so the write races with nothing).
func (e *Engine) corruptRow(W []complex128, ir uint64) {
	if e.fts.computeCorrupt == nil {
		return
	}
	if z, ok := e.fts.computeCorrupt.Corrupt(W[ir]); ok {
		W[ir] = z
	}
}

// sumBuffers adds the partial-output buffers beyond the first (W itself)
// into W as ~chunksPerThread×threads row-range tasks on the pool (each task
// owns a disjoint row range across all buffers, so the writes race with
// nothing).
func (e *Engine) sumBuffers(g *gatePlan) {
	const minRows = 1024
	chunks := chunksPerThread * e.threads
	if m := int(e.dim / minRows); chunks > m {
		chunks = m
	}
	if g.inline || chunks <= 1 {
		e.sumRange(0, e.dim)
		return
	}
	if e.sumTasks == nil {
		for i := 0; i < chunks; i++ {
			lo := uint64(i) * e.dim / uint64(chunks)
			hi := uint64(i+1) * e.dim / uint64(chunks)
			e.sumTasks = append(e.sumTasks, func() { e.sumRange(lo, hi) })
		}
	}
	e.ensurePool()
	e.pool.RunTracked(e.span, "dmav.sum", e.led, e.sumTasks)
}

// sumRange completes rows [lo, hi) of the multiplication in flight.
func (e *Engine) sumRange(lo, hi uint64) {
	if e.cancelled() {
		return
	}
	W := e.cur.W[lo:hi]
	for b := 1; b < e.cur.g.cost.Buffers; b++ {
		addInto(W, e.buffers[b-1][lo:hi])
	}
}

// assignCache fills the scratch e.tasks with the column-space border tasks
// of a root (AssignCache of Algorithm 2) and assigns each chunk a
// partial-output buffer (e.bufOf, e.nBuf, e.occ), sharing buffers between
// chunks whose output row segments do not overlap.
func (e *Engine) assignCache(root *dd.MNode) {
	for u := range e.tasks {
		e.tasks[u] = e.tasks[u][:0]
	}
	border := e.borderLevel()
	var rec func(edge dd.MEdge, f complex128, u int, ip uint64, l int)
	rec = func(edge dd.MEdge, f complex128, u int, ip uint64, l int) {
		if edge.IsZero() {
			return
		}
		if l == border {
			e.tasks[u] = append(e.tasks[u], task{edge, ip, f})
			return
		}
		// Splitting factor cchunks / 2^(n-l): at the top level each
		// column bit selects one half of the chunks, one quarter a level
		// below, ...
		step := e.cchunks >> uint(e.n-l)
		// Column-major: the column bit j selects the chunk, the row bit i
		// the partial-output segment.
		for j := 0; j < 2; j++ {
			for i := 0; i < 2; i++ {
				rec(edge.N.Child(i, j), f*edge.W, u+j*step, ip+uint64(i)<<uint(l), l-1)
			}
		}
	}
	rec(dd.MEdge{W: 1, N: root}, 1, 0, 0, e.n-1)

	// Greedy buffer sharing: quantum gate matrices are sparse, so the
	// partial outputs of different chunks frequently occupy disjoint row
	// segments and can live in one buffer. A chunk goes into the first
	// buffer none of whose occupied segments it would write.
	words := e.occWords()
	segShift := uint(e.n) - e.clogT
	clear(e.occ)
	e.nBuf = 0
	for u, ts := range e.tasks {
		placed := u
		if !e.noBufferShare {
			placed = 0
			for ; placed < e.nBuf; placed++ {
				occ := e.occ[placed*words : (placed+1)*words]
				conflict := false
				for _, tk := range ts {
					s := tk.idx >> segShift
					if occ[s/64]>>(s%64)&1 != 0 {
						conflict = true
						break
					}
				}
				if !conflict {
					break
				}
			}
		}
		if placed >= e.nBuf {
			e.nBuf = placed + 1
		}
		for _, tk := range ts {
			s := tk.idx >> segShift
			e.occ[placed*words+int(s/64)] |= 1 << (s % 64)
		}
		e.bufOf[u] = placed
	}
}
