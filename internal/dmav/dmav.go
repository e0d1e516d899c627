// Package dmav implements DMAV, the paper's core contribution:
// multiplication of a DD-represented gate matrix with a flat-array state
// vector, parallelized over a persistent worker pool
// (internal/sched).
//
// Two execution modes exist, selected per gate by the MAC-operation cost
// model of Section 3.2.3:
//
//   - without caching (Algorithm 1): the amplitude range is split in row
//     space into ~16 chunks sized by the MAC-count cost model, so a heavy
//     sub-block splits finer than a sparse one; each chunk runs the span
//     kernel over the sub-blocks that land in its rows. The layout does
//     not depend on the thread count, so neither do the amplitudes;
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
// gate needs beyond its node plans (cost, chunk lists, whether it is worth
// a fork-join at all) is a pure function of the root node and the engine
// shape and is memoized per root, so a repeated gate costs a map lookup
// and a loop.
//
// A gate forks onto the pool once its planned work reaches
// inlineBelowMACs = 2^14 multiply-accumulates, which at n=13 and up is
// every single-qubit gate. The pool's workers spin for a while after each
// batch, so inside a gate stream a fork costs about 2 µs and the second
// vCPU shares even the small gates of an n=14 stream. The pool runs the
// engine's own tasks, one per chunk index, which read the gate in flight
// from the engine: forking a gate allocates nothing.
//
// A gate on at most block.Width qubits reaches the engine as a dense block
// (internal/block), never as a DD, and StepBlock runs it in place on the
// caller's state vector (inplace.go) with Algorithm 1, whatever the mode:
// the identity rows of unsatisfied controls are skipped, and the rest runs
// as in-place multiplies, swaps, cycles or butterflies (for a fused
// product, butterflies then one permutation) with bit-insertion indexing,
// or, for a block none of these fit, as a small sparse gemv over runs of
// its 2^k column amplitudes copied to a stack temporary. A wider gate, or
// any gate of a run that caches every gate, is a DD: Step runs it with
// Apply into an engine-owned scratch vector, allocated on first need,
// which it swaps with the state. Apply keeps the out-of-place W = M·V.
//
// The inner loops of the in-place ops and of the span and row kernels run
// through one kernel table (kernels.go): AVX2 assembly on amd64 CPUs that
// have it, bit-identical Go loops elsewhere and under the purego build tag.
//
// Any positive thread count is supported; chunks are distributed over
// the pool and re-balanced by stealing, so worker count and chunk shape
// need not match.
package dmav

import (
	"errors"
	"fmt"
	"math/bits"
	"time"

	"flatdd/internal/block"
	"flatdd/internal/dd"
	"flatdd/internal/faults"
	"flatdd/internal/obs"
	"flatdd/internal/sched"
)

// DefaultSIMDWidth is the d of Equation 6 — the number of data
// elements one SIMD instruction processes: four float64 in an AVX2
// register, as in the paper. The AVX2 kernels (kernels_amd64.s) hold two
// complex128 amplitudes per register; the cost model uses the constant
// whichever kernel table runs.
const DefaultSIMDWidth = 4

// chunksPerThread is the target over-decomposition factor of the
// in-place and buffer-sum batches: about this many chunks per worker, so
// the pool has slack to re-balance a skewed load.
const chunksPerThread = 8

// rowChunks is how many row chunks Algorithm 1 cuts a gate into, at any
// thread count and inline or forked: a chunk's first sub-block writes its
// rows and the rest accumulate, so the chunk layout fixes the order in
// which a row's products are multiplied and summed. Keeping it a function
// of the register and the gate alone makes uncached amplitudes bit-equal
// across thread counts. 16 is chunksPerThread per worker on the 2-vCPU
// reference box.
const rowChunks = 16

// inlineBelowMACs is the planned work — multiply-accumulates of the chosen
// algorithm, counting a copied or scaled element as one — under which a
// gate runs on the calling goroutine instead of forking onto the pool.
// The pool's workers spin between batches (internal/sched), so inside a
// gate stream a fork costs about 2 µs (sched.batch_us_p50), while with the
// AVX2 kernels a single-qubit gate at n=14 (2^15 MACs) takes 10–15 µs
// inline. The cutoff is the best of 2^12, 2^13 and 2^14 on the supremacy
// DMAV phase at Threads 2 (2-vCPU reference box, go1.24, median of nine
// runs; EXPERIMENTS.md, "AVX2 kernels"): at n=12 2^14 runs 12.5 ms against
// 20.0 at 2^13, which forks the single-qubit gates (Threads 1: 11.6); at
// n=11, 13 and 14 the two fork the same gates (n=14: 43.7 and 44.2 ms;
// Threads 1: 45.5). At n=13 the forked single-qubit gates (2^14 MACs) lose
// to Threads 1 (27.4 against 20.1 ms), but a cutoff of 2^15 that runs
// them inline also inlines n=14's CZ and T gates, 2^14 MACs too, and
// makes n=14 slower (48.2 ms): one MAC count cannot tell the two apart,
// because the op kinds run at different rates per MAC. Beyond two vCPUs
// the crossover is unmeasured.
const inlineBelowMACs = 1 << 14

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

// batchKind is what the engine's pool tasks run: chunk i of the gate in
// flight's row or column chunk list, or range i of parts equal ranges of
// the buffer sum or of an in-place gate.
type batchKind uint8

const (
	batchRows    batchKind = iota // Algorithm 1: cur.g.rows
	batchCols                     // Algorithm 2: cur.g.cols
	batchSum                      // Algorithm 2's partial-buffer sum over rows
	batchInPlace                  // an in-place gate over its elements j
)

// Stats accumulates per-engine counters.
type Stats struct {
	Gates       int
	CachedGates int
	CacheHits   int64
	MACsModeled float64 // sum of min(C1,C2) over applied gates
	MACsC1      float64 // sum of C1 (Equation 5) — the no-caching cost
}

// gatePlan is what the engine knows about one distinct gate root or block.
// The cost and the algorithm the engine's mode and the cost pick are
// filled on first sight, and the execution half (everything below built)
// by the first Apply that needs it — all pure functions of the root node
// and the engine shape. A block's plan holds its cost and its compiled
// in-place form alone.
type gatePlan struct {
	cost   GateCost
	cached bool // Algorithm 2

	ip *inPlace // a block's in-place form

	built bool
	// inline: run on the caller, no fork-join. Fixed per root, so the
	// load accounting below never sees a plan-shape change.
	inline bool
	rows   []rowChunk // uncached: row-space chunks
	cols   []colChunk // cached: non-empty column chunks
	gaps   []bufSeg   // cached: buffer segments no task writes

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

	// Cached-path (Algorithm 2) column-space partition: a power-of-two
	// chunk count so the border-level split stays aligned with the DD.
	cchunks int    // nextPow2(threads), <= 2^n
	clogT   uint   // log2(cchunks)
	ch      uint64 // 2^n / cchunks: rows/cols per cached chunk

	// Memo tables, keyed by gate-DD node or block. Keys keep the nodes
	// alive, bounded by the distinct gates evaluated (macMemo, gates) or
	// applied (plans, blocks).
	macMemo map[*dd.MNode]int64 // dd.MACCountNode
	plans   map[*dd.MNode]*plan
	gates   map[*dd.MNode]*gatePlan
	blocks  map[*block.Block]*gatePlan

	// Scratch of assignCache, reused across roots: per-chunk border
	// tasks, chunk -> buffer, buffer count, per-buffer segment occupancy
	// (a bit per segment) and the first task index of each node.
	tasks   [][]task
	bufOf   []int
	nBuf    int
	occ     []uint64
	firstOf map[*dd.MNode]int

	buffers [][]complex128 // partial-output buffers 1, 2, … (0 is W), grown on demand

	// scratch is Step's output vector, allocated on the first gate DD
	// Step runs; each of them swaps it with the caller's state vector.
	scratch []complex128

	// env is the run environment: env.Pool executes chunk batches under
	// env.Span, crediting env.Ledger, and env.Cancel is polled once per
	// chunk (row chunks, cached column chunks, and buffer-sum ranges). The
	// pool is either injected via SetEnv/SetPool (caller owns its
	// lifetime) or created lazily on the first multi-threaded Apply
	// (ownPool; released by Close).
	env     sched.Env
	ownPool bool

	// split and rowEnds are buildRows' scratch, reused across roots.
	split   []task
	rowEnds []int

	// forks holds one pool task per chunk index, grown to the largest
	// batch forked: task i runs chunk i of the batch in flight (cur), so
	// a gate's batch is a prefix of forks and forking allocates nothing.
	forks []sched.Task

	// cur is the multiplication in flight: the engine's tasks read their
	// operands and chunk lists here.
	cur struct {
		mul
		f     complex128 // the root edge's weight
		g     *gatePlan
		ip    *inPlace  // batchInPlace: the gate in flight
		batch batchKind // which chunks a fork runs
		parts uint64    // batchSum, batchInPlace: equal ranges the work is cut into
	}

	// noBufferShare disables the shared-partial-output optimization of
	// Algorithm 2 (every chunk gets a private buffer); used by the
	// ablation experiments.
	noBufferShare bool

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
	inPlaceGates  *obs.Counter // blocks StepBlock ran in place
	cacheHits     *obs.Counter
	cacheMisses   *obs.Counter
	macsModeled   *obs.Counter
	macsExec      *obs.Counter
	tasks         *obs.Counter
	chunks        *obs.Counter
	applyNs       *obs.Histogram
}

// MaxQubits is the largest register the engine simulates: its state and
// scratch vectors take up to 32·2^n bytes, 512 GiB at n = 34.
const MaxQubits = 34

// cacheChunks is the cached path's column-space chunk count for n
// qubits and threads workers: the next power of two ≥ threads, capped at
// 2^n. It is also the most partial-output buffers a gate can use.
func cacheChunks(n, threads int) int {
	c := 1
	for c < threads && c < 1<<uint(n) {
		c <<= 1
	}
	return c
}

// FlatBytes is the most the flat-array phase of an n-qubit run on
// threads workers allocates under mode: the state and scratch vectors,
// plus, when caching is possible, up to CacheChunks()−1 partial-output
// buffers (W itself is buffer 0), 16 B per amplitude each. It is the one
// figure memory budgets compare: core's degradation check and the serve
// layer's admission and dispatch. n must be at most MaxQubits. It is a
// bound, not the usual cost: Step allocates the scratch vector only for a
// gate DD, so a run whose gates are all blocks allocates the state alone.
func FlatBytes(n, threads int, mode Mode) uint64 {
	arrays := uint64(2)
	if mode != NeverCache {
		arrays = 1 + uint64(cacheChunks(n, threads))
	}
	return arrays * 16 << uint(n)
}

// New returns a DMAV engine for n qubits running max(1, threads)
// workers, capped at 2^n. Any positive thread count is supported: the
// uncached path sizes its row chunks by the MAC cost model, and the
// cached path partitions column space into the next power of two ≥
// threads, with the pool re-balancing either shape across
// the actual workers.
func New(m *dd.Manager, n, threads int, mode Mode) *Engine {
	if n < 1 || n > MaxQubits {
		panic(fmt.Sprintf("dmav: unsupported qubit count %d", n))
	}
	threads = min(max(threads, 1), 1<<uint(n))
	cchunks := cacheChunks(n, threads)
	e := &Engine{
		m:       m,
		n:       n,
		dim:     uint64(1) << uint(n),
		mode:    mode,
		threads: threads,
		cchunks: cchunks,
		clogT:   uint(bits.TrailingZeros(uint(cchunks))),
		macMemo: make(map[*dd.MNode]int64),
		plans:   make(map[*dd.MNode]*plan),
		gates:   make(map[*dd.MNode]*gatePlan),
		blocks:  make(map[*block.Block]*gatePlan),
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
// at 2^n and not rounded to a power of two — New(m, n, 3, mode).Threads()
// == 3.
func (e *Engine) Threads() int { return e.threads }

// CacheChunks returns the cached-path column-space chunk count: the next
// power of two ≥ Threads(), capped at 2^n.
func (e *Engine) CacheChunks() int { return e.cchunks }

// Mode returns the caching policy.
func (e *Engine) Mode() Mode { return e.mode }

// SetPool injects a shared scheduler pool, leaving the rest of the
// environment as it is. The caller keeps ownership of the pool's
// lifetime. Passing nil reverts to a lazily created engine-owned pool.
func (e *Engine) SetPool(p *sched.Pool) {
	if e.ownPool {
		e.env.Pool.Close()
		e.ownPool = false
	}
	e.env.Pool = p
}

// SetEnv installs the run environment (core.RunContext wires one per run;
// every field may be nil, which is the production default for all but
// the pool). It must be called before Apply.
//
//   - Pool is installed as by SetPool.
//   - Cancel is polled at chunk granularity inside Apply: cheap enough to
//     leave no trace on the kernels (one call per ~8×threads chunks per
//     gate), frequent enough that an abort is observed well within one
//     gate. Once it fires, Apply returns early with a partial output
//     vector and without updating Stats; the caller discards the output
//     and stops applying gates. StepBlock never polls it: a gate that
//     writes the state itself must finish, or the state is torn. Step
//     returns ErrCanceled with the state intact.
//   - Span parents the pool batches, which appear as "dmav.rows" /
//     "dmav.chunks" / "dmav.sum" / "dmav.inplace" children carrying the
//     scheduler's per-batch attribution.
//   - Ledger receives the pool batches' worker busy-ns, the wall time of
//     a gate that runs inline, and the cached path's shared partial-output
//     buffers as live flat-array bytes when (re)allocated.
//   - Metrics shows aggregate load as dmav.tasks (border tasks executed),
//     dmav.chunks (schedulable chunks built) and dmav.macs.executed
//     (multiply-accumulates performed: the exact path count of each
//     executed sub-tree, plus one scalar multiply per cached element on
//     reuse); the pool batches add the scheduler's sched.* figures, and
//     per-worker totals are the pool's Stats.
//   - Faults wires the engine's injection points.
func (e *Engine) SetEnv(env sched.Env) {
	e.SetPool(env.Pool)
	e.env = env
	e.met = newEngMetrics(env.Metrics)
	e.fts = engFaults{
		cacheCorrupt:   env.Faults.Point(faults.DMAVCacheCorrupt),
		computeCorrupt: env.Faults.Point(faults.DMAVComputeCorrupt),
	}
}

// Close releases the engine-owned pool, if one was created. Engines
// given a pool via SetEnv or SetPool are not affected.
func (e *Engine) Close() {
	if e.ownPool {
		e.env.Pool.Close()
		e.env.Pool = nil
		e.ownPool = false
	}
}

// ensurePool lazily creates an engine-owned pool for engines not wired
// into a shared one.
func (e *Engine) ensurePool() {
	if e.env.Pool == nil {
		e.env.Pool = sched.New(e.threads)
		e.ownPool = true
	}
}

// SetBufferSharing enables or disables the shared partial-output buffers
// of Algorithm 2 (enabled by default; disabling is for ablation studies).
func (e *Engine) SetBufferSharing(on bool) {
	e.noBufferShare = !on
	clear(e.gates) // costs and buffer assignments depend on it
}

// Stats returns the accumulated counters.
func (e *Engine) Stats() Stats { return e.stats }

// newEngMetrics returns the engine's handles of a registry (nil for a nil
// registry).
func newEngMetrics(r *obs.Registry) *engMetrics {
	if r == nil {
		return nil
	}
	return &engMetrics{
		gates:         r.Counter("dmav.gates"),
		cachedGates:   r.Counter("dmav.gates.cached"),
		uncachedGates: r.Counter("dmav.gates.uncached"),
		inPlaceGates:  r.Counter("dmav.gates.inplace"),
		cacheHits:     r.Counter("dmav.cache.hits"),
		cacheMisses:   r.Counter("dmav.cache.misses"),
		macsModeled:   r.Counter("dmav.macs.modeled"),
		macsExec:      r.Counter("dmav.macs.executed"),
		tasks:         r.Counter("dmav.tasks"),
		chunks:        r.Counter("dmav.chunks"),
		applyNs:       r.Histogram("dmav.apply_ns", obs.DurationBuckets()),
	}
}

// borderLevel is n - log2(cchunks) - 1 (Section 3.2.1): AssignCache
// stops there and the kernel starts there.
func (e *Engine) borderLevel() int { return e.n - int(e.clogT) - 1 }

// ErrCanceled is Step's error for a gate that the run's
// cancel probe stopped midway: the state vector passed in is unchanged.
var ErrCanceled = errors.New("dmav: gate canceled")

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
	cost, _ := e.apply(M, V, W)
	return cost, nil
}

// Step applies the gate DD M to the state vector V and returns the vector
// that holds the result: M runs Apply into the engine's scratch vector,
// allocated on the first such gate, and Step returns the scratch and keeps
// V as the next scratch: the caller must not use V again. A gate the
// probe stops midway returns V, unchanged, with ErrCanceled; its partial
// product stays in the scratch.
func (e *Engine) Step(M dd.MEdge, V []complex128) ([]complex128, GateCost, error) {
	if uint64(len(V)) != e.dim {
		return V, GateCost{}, fmt.Errorf("dmav: vector length %d, want %d", len(V), e.dim)
	}
	if e.scratch != nil && &V[0] == &e.scratch[0] {
		return V, GateCost{}, fmt.Errorf("dmav: V is the engine's scratch vector")
	}
	if M.IsZero() {
		clear(V)
		return V, GateCost{}, nil
	}
	if e.scratch == nil {
		e.scratch = make([]complex128, e.dim)
		e.env.Ledger.AddFlat(int64(e.dim) * 16)
	}
	W := e.scratch
	cost, ok := e.apply(M, V, W)
	if !ok {
		return V, cost, ErrCanceled
	}
	e.scratch = V
	return W, cost, nil
}

// StepBlock applies block b to the state vector V in place with Algorithm
// 1, under every mode: a block has no cached form. Its cost is K1 =
// 2^(n−k)·nnz, and C2 is not evaluated (it reads as C1). The block is
// compiled on first use and memoized by pointer, so a run shares one
// Block per distinct gate. StepBlock does not poll the cancel probe: a
// gate that writes the state itself must finish, or the state is torn.
func (e *Engine) StepBlock(b *block.Block, V []complex128) (GateCost, error) {
	if uint64(len(V)) != e.dim {
		return GateCost{}, fmt.Errorf("dmav: vector length %d, want %d", len(V), e.dim)
	}
	g, ok := e.blocks[b]
	if !ok {
		k1 := b.MACs(e.n)
		c1 := float64(k1) / float64(e.threads)
		g = &gatePlan{cost: GateCost{K1: k1, C1: c1, C2: c1}, ip: e.compileBlock(b, k1)}
		e.blocks[b] = g
	}
	e.applyInPlace(g, g.ip, V)
	return g.cost, nil
}

// apply is Apply on checked vectors. It reports false when the cancel
// probe fired during the multiplication: W is then partial, and neither
// Stats nor the metrics count the gate.
func (e *Engine) apply(M dd.MEdge, V, W []complex128) (GateCost, bool) {
	if M.IsZero() {
		clear(W)
		return GateCost{}, true
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
	if e.env.Ledger != nil && g.inline {
		ledStart = time.Now()
	}
	e.cur.V, e.cur.W, e.cur.f, e.cur.g = V, W, M.W, g
	if g.cached {
		e.applyCached(g)
	} else {
		e.applyUncached(g)
	}
	if !ledStart.IsZero() {
		e.env.Ledger.AddCPU(time.Since(ledStart).Nanoseconds())
	}
	if e.env.Canceled() {
		return g.cost, false
	}
	e.record(g, start, g.tasks, g.chunks, g.macs)
	return g.cost, true
}

// record counts one applied gate in Stats and the metrics: its modeled
// cost, which is the same whichever path ran it, and the load that path
// executed (start is zero when metrics are off).
func (e *Engine) record(g *gatePlan, start time.Time, tasks, chunks, macs int64) {
	cost := g.cost
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
		// The exact load of the gate that just ran, memoized with its
		// plan; per-worker attribution comes from the scheduler's own
		// counters, since stealing makes the worker→chunk mapping dynamic.
		met.tasks.Add(tasks)
		met.macsExec.Add(macs)
		met.chunks.Add(chunks)
	}
}

// EvaluateCost runs the Section 3.2.3 cost model on a gate matrix without
// executing the multiplication. The evaluation is memoized per root node.
func (e *Engine) EvaluateCost(M dd.MEdge) GateCost {
	if M.IsZero() {
		return GateCost{}
	}
	return e.gate(M.N).cost
}

// gate returns the memo entry of a gate root, evaluating its cost and
// picking its algorithm on first sight.
func (e *Engine) gate(root *dd.MNode) *gatePlan {
	g, ok := e.gates[root]
	if !ok {
		g = &gatePlan{cost: e.evaluate(root)}
		g.cached = e.mode == AlwaysCache || e.mode == Auto && g.cost.UseCache()
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
	d := float64(DefaultSIMDWidth)
	c.C2 = float64(c.K2)/t + float64(e.dim)/(d*t)*(float64(c.Hits)/t+float64(c.Buffers))
	return c
}

// build fills the execution half of a gate's memo entry for the algorithm
// gate picked: its chunk lists with every sub-block compiled to a plan, and
// whether the gate is worth a fork-join.
func (e *Engine) build(g *gatePlan, root *dd.MNode) {
	g.built = true
	g.inline = e.threads == 1 || e.forkWork(g) < inlineBelowMACs
	if g.cached {
		e.buildCols(g, root)
	} else {
		e.buildRows(g, root)
	}
}

// forkWork is the planned work of one pool batch of a gate, which
// inlineBelowMACs bounds: K1 for Algorithm 1. Algorithm 2 forks twice —
// the chunks, then the sum — so each batch carries about half of its work
// (a cached top-qubit gate, forked vs inline: 744 vs 302 µs at n=16, 772
// vs 799 at n=17, 1250 vs 1535 at n=18).
func (e *Engine) forkWork(g *gatePlan) int64 {
	if !g.cached {
		return g.cost.K1
	}
	return (g.cost.K2 + g.cost.Hits*int64(e.ch) + int64(g.cost.Buffers)*int64(e.dim)) / 2
}

// fork runs chunks [0, n) of the gate in flight as one pool batch: the
// engine's tasks, one per chunk index, read what to run from cur.
func (e *Engine) fork(name string, kind batchKind, n int) {
	e.cur.batch = kind
	for i := len(e.forks); i < n; i++ {
		e.forks = append(e.forks, func() { e.runChunk(i) })
	}
	e.ensurePool()
	e.env.Run(name, e.forks[:n])
}

// runChunk runs chunk i of the batch in flight.
func (e *Engine) runChunk(i int) {
	x := &e.cur
	switch x.batch {
	case batchRows:
		e.runRow(&x.g.rows[i])
	case batchCols:
		e.runCol(&x.g.cols[i])
	case batchSum:
		e.sumRange(uint64(i)*e.dim/x.parts, uint64(i+1)*e.dim/x.parts)
	case batchInPlace:
		e.runInPlace(x.ip, uint64(i)*x.ip.total/x.parts, uint64(i+1)*x.ip.total/x.parts)
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
	e.fork("dmav.rows", batchRows, len(g.rows))
}

// runRow executes one row chunk of the multiplication in flight. The
// chunk's first sub-block writes its rows, the rest accumulate, so W is
// never zeroed beforehand.
func (e *Engine) runRow(c *rowChunk) {
	if e.env.Canceled() {
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
// K1/rowChunks is split in half (descending one DD level), so dense
// sub-blocks decompose into many small chunks while sparse ones stay
// whole. The result is ~rowChunks chunks whose sizes track actual work,
// which is what gives the stealing pool something useful to balance. The
// layout does not depend on the thread count: an inline gate runs the
// same chunks in order.
func (e *Engine) buildRows(g *gatePlan, root *dd.MNode) {
	budget := max(g.cost.K1/rowChunks, 1)
	memo := e.macMemo
	// The halves of every split live on e.split, used as a stack, and the
	// chunks' items in one slice cut up once the chunk list is complete.
	split := append(e.split[:0], task{dd.MEdge{W: 1, N: root}, 0, 1})
	var items []rowItem
	ends := e.rowEnds[:0]
	var rec func(in []task, l int, ir uint64)
	rec = func(in []task, l int, ir uint64) {
		if l >= 0 {
			var cost int64
			for _, it := range in {
				cost += dd.MACCountNode(it.edge.N, memo)
			}
			if cost > budget {
				// Row half i of every sub-block, pushed above in.
				mark := len(split)
				for i := 0; i < 2; i++ {
					for _, it := range in {
						fw := it.f * it.edge.W
						for j := 0; j < 2; j++ {
							if c := it.edge.N.Child(i, j); !c.IsZero() {
								split = append(split, task{c, it.idx + uint64(j)<<uint(l), fw})
							}
						}
					}
					rec(split[mark:], l-1, ir+uint64(i)<<uint(l))
					split = split[:mark]
				}
				return
			}
		}
		for _, it := range in {
			items = append(items, rowItem{e.planOf(it.edge.N), it.idx, it.f * it.edge.W})
		}
		g.rows = append(g.rows, rowChunk{ir: ir, size: uint64(1) << uint(l+1)})
		ends = append(ends, len(items))
	}
	rec(split, e.n-1, 0)
	start := 0
	for i, end := range ends {
		g.rows[i].items = items[start:end:end]
		start = end
	}
	e.split, e.rowEnds = split[:0], ends[:0]
	g.tasks = int64(len(items))
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
		e.env.Ledger.AddFlat(int64(e.dim) * 16)
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
		e.fork("dmav.chunks", batchCols, len(g.cols))
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
	if e.env.Canceled() {
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
	e.cur.parts = uint64(chunks)
	e.fork("dmav.sum", batchSum, chunks)
}

// sumRange completes rows [lo, hi) of the multiplication in flight.
func (e *Engine) sumRange(lo, hi uint64) {
	if e.env.Canceled() {
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
