// Package serve implements a long-lived, multi-tenant simulation job
// service on top of the FlatDD engine: circuits are submitted over
// HTTP/JSON, admitted against one memory budget, dispatched round-robin
// across tenants, executed on one shared scheduler pool, and driven
// through the context-first core.RunContext API so per-job deadlines and
// client cancellations propagate into the engine within one gate.
//
// The lifecycle is queued → running → done | failed | canceled. Admission
// control happens at submit time: a register wider than dmav.MaxQubits
// or a job whose flat-array footprint (dmav.FlatBytes for the pool's
// thread count and the job's cache mode) exceeds the process-wide memory
// budget is rejected with 413, a full queue with 429, and a draining
// server with 503; dispatch reserves the same footprint against the same
// budget. The server keeps the last MaxRetainedJobs terminal jobs; an
// older job's ID answers 404 and its Idempotency-Key is free again.
// Before a job is queued at all, the service consults the
// canonical-circuit result cache: a submission whose
// (circuit hash, engine options) key matches a cached outcome completes
// instantly without touching the engine, and one that matches a
// simulation already in flight coalesces onto it — one engine run, many
// subscribers, each with its own top-amplitude prefix and seeded shot
// stream (DESIGN.md §13). Everything is instrumented through
// internal/obs under the serve.* metric names (DESIGN.md §8) and the
// /debug/metrics + pprof mux of the observability layer is mounted on
// the same handler.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"time"

	"flatdd/internal/circuit"
	"flatdd/internal/core"
	"flatdd/internal/dmav"
	"flatdd/internal/faults"
	"flatdd/internal/obs"
	"flatdd/internal/qasm"
	"flatdd/internal/sched"
	"flatdd/internal/workloads"
)

// Job states as reported by the status and list endpoints.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// Cache dispositions of an admitted job (JobView.Cache): a hit was
// served from the result cache without running the engine, a coalesced
// job subscribed to an in-flight simulation of the same circuit, a miss
// ran (or will run) the engine itself.
const (
	CacheHit       = "hit"
	CacheMiss      = "miss"
	CacheCoalesced = "coalesced"
)

// Config parameterizes a Server. The zero value is usable: every field
// falls back to the default documented on it.
type Config struct {
	// Threads is the worker count of the shared scheduler pool all jobs
	// run on (default: GOMAXPROCS). The pool is authoritative for the
	// engine's cost model — see core.Options.Pool.
	Threads int
	// QueueDepth caps the number of admitted-but-not-yet-running jobs
	// (default 64). A full queue rejects submissions with 429.
	QueueDepth int
	// MaxInFlight caps concurrently executing jobs (default 2).
	MaxInFlight int
	// MemoryBudget is the process-wide flat-array memory budget in bytes
	// (default 8 GiB). A job's footprint is dmav.FlatBytes(qubits,
	// Threads, cache mode): a job whose footprint exceeds the budget is
	// rejected with 413 before it is queued, and dispatch holds each
	// running job's footprint against the budget, so the running jobs
	// together never exceed it.
	MemoryBudget uint64
	// DrainGrace is how long Shutdown waits for in-flight jobs before
	// canceling their contexts (default 10s).
	DrainGrace time.Duration
	// Metrics is the registry jobs and the service instrument (default: a
	// fresh registry; it also backs the handler's /debug/metrics).
	Metrics *obs.Registry
	// MaxRetries is how many times a job that fails with a transient
	// engine fault is re-queued (default 2; negative disables retries).
	// Attempt k waits retryBaseDelay·2^(k−1), capped at retryMaxDelay,
	// plus up to 50% jitter.
	MaxRetries int
	// IntegrityEvery is the per-job numerical-integrity sweep cadence in
	// DMAV gates (core.Options.IntegrityEvery; 0 disables).
	IntegrityEvery int
	// Faults, when non-nil, arms fault injection on the shared pool and
	// every job's engine (tests only; production servers leave it nil).
	Faults *faults.Registry
	// TraceJSONL, when non-nil, receives the span stream as JSON Lines:
	// every line is one span, keyed by its trace ID. Spans are always
	// collected in memory for the flight recorder; this sink additionally
	// persists them. The writer is flushed as jobs finish; closing the
	// underlying file stays the caller's job.
	TraceJSONL io.Writer
	// Logger receives structured job-lifecycle logs keyed by job and
	// trace ID (default: discard).
	Logger *slog.Logger

	// ResultCacheBudget is the total byte budget of the canonical-circuit
	// result cache (default 64 MiB; negative disables caching and
	// in-flight coalescing entirely). Entries are evicted LRU.
	ResultCacheBudget int64
	// ResultCacheMaxEntry caps one entry's footprint (default 16 MiB).
	// The dominant cost is the 8·2^n-byte cumulative distribution that
	// backs cached shot sampling, so this cap decides up to which
	// register size cache hits can serve shots>0 requests (n ≤ 21 at the
	// default).
	ResultCacheMaxEntry int64
}

// Fixed service limits. None of them is a Config field: no workload
// needs another value, and a test that wants a different one changes
// the test, not the server.
const (
	maxBodyBytes   = 1 << 20          // submission body cap; bigger QASM sources are batch jobs, not service requests
	defaultTimeout = 2 * time.Minute  // per-job deadline when the submission names none
	maxTimeout     = 10 * time.Minute // cap on requested per-job deadlines
	retryBaseDelay = 50 * time.Millisecond
	retryMaxDelay  = 2 * time.Second

	flightRecorderSize = 64              // per-ring capacity of /debug/jobs: last N span trees, failures pinned apart
	latencyWindow      = 5 * time.Minute // rotation window of the /healthz quantiles; Prometheus series stay cumulative
	maxCoalesced       = 64              // subscribers per flight; more reject with 429/coalesce_limit
	MaxRetainedJobs    = 1024            // terminal jobs kept for status, result and Idempotency-Key replay; the cluster coordinator keeps as many
)

func (c Config) withDefaults() Config {
	if c.Threads < 1 {
		c.Threads = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 64
	}
	if c.MaxInFlight < 1 {
		c.MaxInFlight = 2
	}
	if c.MemoryBudget == 0 {
		c.MemoryBudget = 8 << 30
	}
	if c.DrainGrace <= 0 {
		c.DrainGrace = 10 * time.Second
	}
	if c.Metrics == nil {
		c.Metrics = obs.New()
	}
	switch {
	case c.MaxRetries == 0:
		c.MaxRetries = 2
	case c.MaxRetries < 0:
		c.MaxRetries = 0
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	switch {
	case c.ResultCacheBudget == 0:
		c.ResultCacheBudget = 64 << 20
	case c.ResultCacheBudget < 0:
		c.ResultCacheBudget = 0 // disabled
	}
	if c.ResultCacheMaxEntry <= 0 {
		c.ResultCacheMaxEntry = 16 << 20
	}
	return c
}

// job is the internal record of one submission. All mutable fields are
// guarded by Server.mu.
type job struct {
	id   string
	seq  int // submission number, the tail of id
	circ *circuit.Circuit
	opts runOptions

	// tenant is the submitting tenant (DefaultTenant when the request
	// carried no X-Tenant header); key is the job's result-cache identity
	// (canonical circuit hash + engine options); cacheStatus is the
	// admission disposition (CacheHit/CacheMiss/CacheCoalesced).
	tenant      string
	key         cacheKey
	cacheStatus string
	idemKey     string // Idempotency-Key the job was submitted under ("" if none)

	state     string
	errMsg    string
	reason    string // structured failure class (failureReason) on failed jobs
	attempts  int    // execution attempts started (retries increment it)
	submitted time.Time
	started   time.Time
	finished  time.Time
	cancel    context.CancelFunc // non-nil while running
	result    *JobResult

	// span is the job's root span (always non-nil: the server's tracer
	// collects in memory even without a JSONL sink); queuedSpan is the
	// open "queued" child while the job sits in the queue.
	span       *obs.Span
	queuedSpan *obs.Span

	// reserve is the job's live memory reservation against
	// MemoryBudget (0 when not dispatched); observed is the last
	// footprint the job's ledger reported. ledger is the per-attempt
	// resource ledger; resources its frozen snapshot at finish.
	reserve   uint64
	observed  uint64
	ledger    *obs.ResourceLedger
	resources *obs.LedgerSnapshot
}

// runOptions is the normalized execution request of one job.
type runOptions struct {
	timeout time.Duration
	cache   dmav.Mode
	fusion  core.FusionMode
	top     int
	shots   int
	seed    int64
}

// serveMetrics holds the service's registry handles (names in DESIGN.md
// §8).
type serveMetrics struct {
	submitted     *obs.Counter
	completed     *obs.Counter
	failed        *obs.Counter
	canceled      *obs.Counter
	rejectBudget  *obs.Counter
	rejectQueue   *obs.Counter
	rejectInvalid *obs.Counter
	retried       *obs.Counter
	degraded      *obs.Counter
	faults        *obs.Counter
	queueDepth    *obs.Gauge
	running       *obs.Gauge
	runningPeak   *obs.Gauge
	memReserved   *obs.Gauge
	memObserved   *obs.Gauge
	memHeadroom   *obs.Gauge
	memPeak       *obs.Gauge // high-water of observed footprint
	latencyNs     *obs.Histogram
	queueWaitNs   *obs.Histogram
	runNs         *obs.Histogram

	// Result-cache and multi-tenant instrumentation. engineRuns counts
	// actual engine executions; submitted − engineRuns is the work the
	// cache and coalescing absorbed. rejectQuota counts coalesce_limit
	// rejections.
	cacheHits      *obs.Counter
	cacheMisses    *obs.Counter
	cacheCoalesced *obs.Counter
	cacheEntries   *obs.Gauge
	cacheBytes     *obs.Gauge
	cacheEvictions *obs.Gauge
	engineRuns     *obs.Counter
	rejectQuota    *obs.Counter
}

// Server is the simulation job service. Create with New, expose
// Handler() over HTTP, stop with Shutdown.
type Server struct {
	cfg     Config
	pool    *sched.Pool
	reg     *obs.Registry
	met     serveMetrics
	log     *slog.Logger
	started time.Time

	// Tracing: tw is the shared JSONL sink (nil without Config.TraceJSONL;
	// spans are still collected in memory), tracer mints the per-job span
	// trees, flight retains the last N of them for /debug/jobs.
	tw     *obs.TraceWriter
	tracer *obs.Tracer
	flight *obs.FlightRecorder

	// Windowed latency histograms back the /healthz quantiles (recent
	// traffic); the cumulative serveMetrics histograms stay for
	// Prometheus, whose rate() does its own windowing.
	wLatency   *obs.WindowedHistogram
	wQueueWait *obs.WindowedHistogram
	wRun       *obs.WindowedHistogram

	// jobs holds every queued and running job plus the last
	// MaxRetainedJobs terminal ones; terminal lists those in finish order,
	// oldest first, so the oldest is evicted first, and running the
	// dispatched ones (at most MaxInFlight), so the queued ones number
	// len(jobs) − len(running) − len(terminal). order is the submission
	// order for the list endpoint; it may still name evicted jobs until
	// compactOrderLocked drops them.
	mu       sync.Mutex
	jobs     map[string]*job
	terminal []*job
	running  []*job
	order    []string
	nextID   int
	draining bool

	// idPrefix starts every job ID this server issues ("j-<8 hex>-"): it
	// is random per Server, so a restarted process never reissues an ID a
	// client still holds, and an ID from another process is unknown here.
	idPrefix string

	// fq is the round-robin dispatch queue; cache the canonical-circuit
	// result cache; flights the in-progress simulations open for
	// coalescing, keyed like the cache; tenants the per-tenant
	// accounting; idem the Idempotency-Key replay index
	// ("tenant\x00key" → job id). All but fq and cache (which have their
	// own locks and never call back out) are guarded by mu.
	fq      *fairQueue
	cache   *resultCache
	flights map[cacheKey]*flight
	tenants map[string]*tenantStats
	idem    map[string]string

	// memReserved is the sum of in-flight reservations against
	// MemoryBudget; memCond is signaled whenever a reservation is
	// released (or a waiter must re-check the world, e.g. on drain).
	// Guarded by mu.
	memReserved uint64
	memCond     *sync.Cond

	runWG sync.WaitGroup // the MaxInFlight runner goroutines
}

// New starts a Server: the shared pool is created and MaxInFlight runner
// goroutines begin waiting on the queue.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		pool:     sched.New(cfg.Threads),
		reg:      cfg.Metrics,
		log:      cfg.Logger,
		started:  time.Now(),
		idPrefix: fmt.Sprintf("j-%08x-", rand.Uint32()),
		jobs:     make(map[string]*job),
		running:  make([]*job, 0, cfg.MaxInFlight),
		flight:   obs.NewFlightRecorder(flightRecorderSize),
		cache:    newResultCache(cfg.ResultCacheBudget, cfg.ResultCacheMaxEntry),
		flights:  make(map[cacheKey]*flight),
		tenants:  make(map[string]*tenantStats),
		idem:     make(map[string]string),
	}
	if cfg.TraceJSONL != nil {
		s.tw = obs.NewTraceWriter(cfg.TraceJSONL)
	}
	s.tracer = obs.NewTracer(s.tw)
	s.fq = newFairQueue()
	r := s.reg
	s.met = serveMetrics{
		submitted:     r.Counter("serve.jobs.submitted"),
		completed:     r.Counter("serve.jobs.completed"),
		failed:        r.Counter("serve.jobs.failed"),
		canceled:      r.Counter("serve.jobs.canceled"),
		rejectBudget:  r.Counter("serve.jobs.rejected.budget"),
		rejectQueue:   r.Counter("serve.jobs.rejected.queue_full"),
		rejectInvalid: r.Counter("serve.jobs.rejected.invalid"),
		retried:       r.Counter("serve.jobs.retried"),
		degraded:      r.Counter("serve.jobs.degraded"),
		faults:        r.Counter("serve.jobs.faults"),
		queueDepth:    r.Gauge("serve.queue.depth"),
		running:       r.Gauge("serve.jobs.running"),
		runningPeak:   r.Gauge("serve.jobs.running.peak"),
		memReserved:   r.Gauge("serve.mem.reserved"),
		memObserved:   r.Gauge("serve.mem.observed"),
		memHeadroom:   r.Gauge("serve.mem.headroom"),
		memPeak:       r.Gauge("serve.mem.observed.peak"),
		latencyNs:     r.Histogram("serve.job.latency_ns", obs.DurationBuckets()),
		queueWaitNs:   r.Histogram("serve.job.queue_wait_ns", obs.DurationBuckets()),
		runNs:         r.Histogram("serve.job.run_ns", obs.DurationBuckets()),

		cacheHits:      r.Counter("serve.cache.hits"),
		cacheMisses:    r.Counter("serve.cache.misses"),
		cacheCoalesced: r.Counter("serve.cache.coalesced"),
		cacheEntries:   r.Gauge("serve.cache.entries"),
		cacheBytes:     r.Gauge("serve.cache.bytes"),
		cacheEvictions: r.Gauge("serve.cache.evictions"),
		engineRuns:     r.Counter("serve.engine.runs"),
		rejectQuota:    r.Counter("serve.jobs.rejected.quota"),
	}
	r.Gauge("serve.max_inflight").Set(int64(cfg.MaxInFlight))
	r.Gauge("serve.mem.budget").Set(int64(cfg.MemoryBudget))
	s.met.memHeadroom.Set(int64(cfg.MemoryBudget))
	s.memCond = sync.NewCond(&s.mu)
	s.wLatency = obs.NewWindowedHistogram(obs.DurationBuckets(), latencyWindow)
	s.wQueueWait = obs.NewWindowedHistogram(obs.DurationBuckets(), latencyWindow)
	s.wRun = obs.NewWindowedHistogram(obs.DurationBuckets(), latencyWindow)
	for i := 0; i < cfg.MaxInFlight; i++ {
		s.runWG.Add(1)
		go s.runner()
	}
	return s
}

// admissionError is a submit-time rejection with an HTTP status, a
// machine-readable reason for the JSON error body, and an optional
// Retry-After hint in seconds (429/503 — the retryable rejections).
type admissionError struct {
	status     int
	msg        string
	reason     string
	retryAfter int
}

func (e *admissionError) Error() string { return e.msg }

// BuildCircuit materializes a submission's circuit from exactly one of
// the two sources (inline QASM or a named workload). It is exported for
// the cluster coordinator, which builds the circuit once to derive the
// canonical routing hash before forwarding the submission to a replica.
func BuildCircuit(req *SubmitRequest) (*circuit.Circuit, error) {
	switch {
	case req.QASM != "" && req.Circuit != "":
		return nil, fmt.Errorf("pass either qasm or circuit, not both")
	case req.QASM != "":
		return qasm.Parse(req.QASM)
	case req.Circuit != "":
		n := req.N
		if n == 0 {
			n = 16
		}
		return workloads.Build(req.Circuit, n, req.Seed)
	default:
		return nil, fmt.Errorf("nothing to simulate: pass qasm or circuit")
	}
}

// normalize validates the execution options of a submission.
func (s *Server) normalize(req *SubmitRequest) (runOptions, error) {
	o := runOptions{
		timeout: defaultTimeout,
		top:     8,
		seed:    req.Seed,
	}
	if req.TimeoutMS < 0 || req.Shots < 0 || req.Top < 0 {
		return o, fmt.Errorf("timeout_ms, shots and top must be non-negative")
	}
	if req.TimeoutMS > 0 {
		o.timeout = time.Duration(req.TimeoutMS) * time.Millisecond
		if o.timeout > maxTimeout {
			o.timeout = maxTimeout
		}
	}
	if req.Top > 0 {
		o.top = req.Top
	}
	if o.top > 1024 {
		return o, fmt.Errorf("top amplitudes capped at 1024, got %d", o.top)
	}
	o.shots = req.Shots
	if o.shots > 1_000_000 {
		return o, fmt.Errorf("shots capped at 1000000, got %d", o.shots)
	}
	switch req.Cache {
	case "", "auto":
		o.cache = dmav.Auto
	case "always":
		o.cache = dmav.AlwaysCache
	case "never":
		o.cache = dmav.NeverCache
	default:
		return o, fmt.Errorf("unknown cache mode %q (auto|always|never)", req.Cache)
	}
	switch req.Fusion {
	case "", "none":
		o.fusion = core.NoFusion
	case "dmav":
		o.fusion = core.DMAVAware
	case "kops":
		o.fusion = core.KOps
	default:
		return o, fmt.Errorf("unknown fusion mode %q (none|dmav|kops)", req.Fusion)
	}
	return o, nil
}

// submit runs admission control and either admits a job — served from
// cache, coalesced onto an in-flight simulation, or queued for
// dispatch — or returns an *admissionError. traceparent is the caller's
// W3C trace context header ("" or malformed mints a fresh trace); the
// admitted job's root span continues that trace. tenant is the validated
// tenant identity; idemKey, when non-empty, makes the submission
// idempotent: a repeat with the same key replays the original job
// (replayed=true) instead of admitting a new one. v is the job's view as
// admission left it, rendered before s.mu drops: from then on a runner
// may dispatch the job, and the submit response must show the state the
// job was admitted in.
func (s *Server) submit(req *SubmitRequest, traceparent, tenant, idemKey string) (j *job, v JobView, replayed bool, aerr *admissionError) {
	c, err := BuildCircuit(req)
	if err != nil {
		s.met.rejectInvalid.Inc()
		return nil, v, false, &admissionError{status: 400, msg: err.Error(), reason: "invalid"}
	}
	opts, err := s.normalize(req)
	if err != nil {
		s.met.rejectInvalid.Inc()
		return nil, v, false, &admissionError{status: 400, msg: err.Error(), reason: "invalid"}
	}
	if c.Qubits < 1 {
		s.met.rejectInvalid.Inc()
		return nil, v, false, &admissionError{status: 400, msg: "circuit has no qubits", reason: "invalid"}
	}
	if c.Qubits > dmav.MaxQubits {
		s.met.rejectBudget.Inc()
		return nil, v, false, &admissionError{status: 413, msg: fmt.Sprintf(
			"circuit has %d qubits, the engine simulates at most %d", c.Qubits, dmav.MaxQubits),
			reason: "qubit_cap"}
	}
	if w := s.flatBytes(c.Qubits, opts); w > s.cfg.MemoryBudget {
		s.met.rejectBudget.Inc()
		return nil, v, false, &admissionError{status: 413, msg: fmt.Sprintf(
			"flat arrays for %d qubits take %d bytes, over the %d-byte budget",
			c.Qubits, w, s.cfg.MemoryBudget),
			reason: "memory_budget"}
	}
	key := cacheKey{circuit: c.Hash(), options: optionsKey(opts)}

	s.mu.Lock()
	defer s.mu.Unlock()
	j, replayed, aerr = s.admitLocked(c, opts, key, traceparent, tenant, idemKey)
	if aerr != nil {
		return nil, v, false, aerr
	}
	return j, s.viewLocked(j), replayed, nil
}

// admitLocked is submit's admission under s.mu: draining and idempotency
// checks, then the job's disposition — cache hit, coalesced onto an
// in-flight leader, or queued.
func (s *Server) admitLocked(c *circuit.Circuit, opts runOptions, key cacheKey, traceparent, tenant, idemKey string) (j *job, replayed bool, aerr *admissionError) {
	if s.draining {
		return nil, false, &admissionError{status: 503, msg: "server is draining",
			reason: "draining", retryAfter: 5}
	}
	ts := s.tenantLocked(tenant)
	if idemKey != "" {
		if prev, ok := s.idem[tenant+"\x00"+idemKey]; ok {
			pj := s.jobs[prev]
			if pj.key != key {
				return nil, false, &admissionError{status: 409, msg: fmt.Sprintf(
					"idempotency key %q was used for a different request (job %s)", idemKey, pj.id),
					reason: "idempotency_mismatch"}
			}
			return pj, true, nil
		}
	}
	s.nextID++
	j = &job{
		id:        fmt.Sprintf("%s%06d", s.idPrefix, s.nextID),
		seq:       s.nextID,
		circ:      c,
		opts:      opts,
		tenant:    tenant,
		key:       key,
		idemKey:   idemKey,
		state:     StateQueued,
		submitted: time.Now(),
	}
	trace, parent, _ := obs.ParseTraceParent(traceparent)
	j.span = s.tracer.Root("job", trace, parent)
	j.span.SetAttr("job", j.id)
	j.span.SetAttr("circuit", c.Name)
	j.span.SetAttr("qubits", c.Qubits)
	j.span.SetAttr("gates", c.GateCount())
	j.span.SetAttr("tenant", tenant)

	// Disposition: cache hit ≻ coalesce onto an in-flight leader ≻ queue
	// as a fresh leader. Hits and subscribers bypass the queue entirely,
	// so the queue-depth check applies only to the miss path.
	if entry := s.cache.get(key, opts.shots); entry != nil {
		j.cacheStatus = CacheHit
		j.span.SetAttr("cache", CacheHit)
		j.result = resultFromEntry(j, entry)
		s.met.cacheHits.Inc()
		ts.cacheHits++
		s.registerLocked(j, ts)
		s.endLocked(j, StateDone, nil)
		return j, false, nil
	}
	if f := s.flights[key]; f != nil && (opts.shots == 0 || s.probsFit(c.Qubits)) {
		if len(f.subs) >= maxCoalesced {
			s.met.rejectQuota.Inc()
			ts.rejected++
			return nil, false, &admissionError{status: 429, msg: fmt.Sprintf(
				"simulation already has %d coalesced subscribers", maxCoalesced),
				reason: "coalesce_limit", retryAfter: 1}
		}
		j.cacheStatus = CacheCoalesced
		j.span.SetAttr("cache", CacheCoalesced)
		j.queuedSpan = j.span.Child("queued")
		j.queuedSpan.SetAttr("coalesced", true)
		f.subs = append(f.subs, j)
		s.met.cacheCoalesced.Inc()
		ts.coalesced++
		s.registerLocked(j, ts)
		return j, false, nil
	}
	if s.fq.Len() >= s.cfg.QueueDepth {
		s.met.rejectQueue.Inc()
		return nil, false, &admissionError{status: 429, msg: fmt.Sprintf(
			"queue full (%d jobs)", s.cfg.QueueDepth),
			reason: "queue_full", retryAfter: 1}
	}
	j.cacheStatus = CacheMiss
	j.span.SetAttr("cache", CacheMiss)
	j.queuedSpan = j.span.Child("queued")
	if s.cache.enabled() {
		// Open the job for coalescing: identical submissions arriving
		// before it finishes subscribe instead of queueing.
		if _, taken := s.flights[key]; !taken {
			s.flights[key] = &flight{leader: j}
		}
	}
	s.fq.Push(j)
	s.met.cacheMisses.Inc()
	ts.misses++
	s.registerLocked(j, ts)
	s.met.queueDepth.Set(int64(s.fq.Len()))
	return j, false, nil
}

// registerLocked records an admitted job in the server's indexes and
// bumps the submission accounting. Caller holds s.mu.
func (s *Server) registerLocked(j *job, ts *tenantStats) {
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	if idemKey := j.idemKey; idemKey != "" {
		s.idem[j.tenant+"\x00"+idemKey] = j.id
	}
	s.met.submitted.Inc()
	ts.submitted++
	s.log.Info("job submitted",
		"job", j.id, "trace", j.span.Trace().String(), "tenant", j.tenant,
		"circuit", j.circ.Name, "qubits", j.circ.Qubits, "gates", j.circ.GateCount(),
		"cache", j.cacheStatus)
}

// probsFit reports whether an n-qubit cumulative distribution (8·2^n
// bytes) fits ResultCacheMaxEntry. A run's cache entry carries the
// distribution exactly then, so only then may a shots>0 job coalesce onto
// an in-flight run; otherwise it runs standalone.
func (s *Server) probsFit(n int) bool { return 8<<uint(n) <= s.cfg.ResultCacheMaxEntry }

// flatBytes is a job's memory reservation: the flat arrays the engine
// allocates for it on the shared pool under its cache mode.
func (s *Server) flatBytes(qubits int, o runOptions) uint64 {
	return dmav.FlatBytes(qubits, s.cfg.Threads, o.cache)
}

// runner is one of the MaxInFlight executor goroutines: it pops jobs off
// the round-robin queue until Shutdown closes it. The goroutine count is
// the in-flight cap.
func (s *Server) runner() {
	defer s.runWG.Done()
	for {
		j := s.fq.Pop()
		if j == nil {
			return
		}
		s.runJob(j)
	}
}

// runJob executes one job through core.RunContext on the shared pool.
func (s *Server) runJob(j *job) {
	s.mu.Lock()
	s.met.queueDepth.Set(int64(s.fq.Len()))
	// Dispatch gate: reserve the job's flat-array footprint against the
	// budget, waiting on the condition for reservations to be released
	// (job completions, cancels). Submit rejected any job over the whole
	// budget, so a job alone always fits.
	need := s.flatBytes(j.circ.Qubits, j.opts)
	for j.state == StateQueued && s.memReserved+need > s.cfg.MemoryBudget {
		s.memCond.Wait()
	}
	if j.state != StateQueued {
		// Canceled (or drain-canceled) while queued or waiting for memory.
		s.mu.Unlock()
		return
	}
	j.reserve = need
	s.memReserved += need
	ctx, cancel := context.WithTimeout(context.Background(), j.opts.timeout)
	j.state = StateRunning
	j.started = time.Now()
	j.attempts++
	j.cancel = cancel
	j.observed = 0
	s.running = append(s.running, j)
	s.met.running.Set(int64(len(s.running)))
	s.met.runningPeak.SetMax(int64(len(s.running)))
	led := obs.NewResourceLedger()
	j.ledger = led
	led.OnUpdate(func(snap obs.LedgerSnapshot) { s.onLedgerUpdate(j, snap) })
	j.queuedSpan.End()
	j.queuedSpan = nil
	runSpan := j.span.Child("run")
	runSpan.SetAttr("attempt", j.attempts)
	ctx = obs.ContextWithSpan(ctx, runSpan)
	s.updateMemGaugesLocked()
	wait := j.started.Sub(j.submitted).Nanoseconds()
	s.met.queueWaitNs.Observe(wait)
	s.wQueueWait.Observe(wait)
	s.mu.Unlock()
	defer cancel()

	res, entry, runErr := s.execute(ctx, j)
	runNs := time.Since(j.started).Nanoseconds()
	s.met.runNs.Observe(runNs)
	s.wRun.Observe(runNs)
	if runErr != nil {
		runSpan.SetAttr("error", runErr.Error())
	}
	runSpan.End()

	s.mu.Lock()
	defer s.mu.Unlock()
	j.cancel = nil
	// Off the running set: return the reservation to the budget and wake
	// the dispatch gate's waiters.
	i := slices.Index(s.running, j)
	s.running = slices.Delete(s.running, i, i+1)
	s.memReserved -= j.reserve
	j.reserve = 0
	s.memCond.Broadcast()
	s.met.running.Set(int64(len(s.running)))
	s.updateMemGaugesLocked()
	switch {
	case runErr == nil:
		j.result = res
		if res.Stats.Degraded {
			s.met.degraded.Inc()
		}
		s.endLocked(j, StateDone, nil)
		s.completeFlightLocked(j, entry)
		if s.cache.put(j.key, entry) {
			s.updateCacheGaugesLocked()
		}
	case isCancel(runErr):
		s.endLocked(j, StateCanceled, runErr)
	default:
		if errors.Is(runErr, core.ErrEngineFault) {
			s.met.faults.Inc()
		}
		if core.IsTransient(runErr) && j.attempts <= s.cfg.MaxRetries && !s.draining {
			// Transient engine fault: back off and re-queue rather than
			// fail. The job is observable as queued again in the meantime,
			// and its flight (if any) keeps collecting subscribers.
			j.state = StateQueued
			j.errMsg = runErr.Error()
			j.queuedSpan = j.span.Child("queued")
			j.queuedSpan.SetAttr("retry", true)
			s.met.retried.Inc()
			delay := RetryDelay(j.attempts)
			time.AfterFunc(delay, func() { s.enqueueRetry(j) })
			return
		}
		s.endLocked(j, StateFailed, runErr)
	}
}

// endLocked is every job's one terminal transition — done, failed or
// canceled, from whichever path ends it. It records the state with the
// error's message (and, for a failure, its failureReason), counts the
// job in serve.jobs.* and its tenant's row, hands a failed or canceled
// leader's flight to its oldest live subscriber, observes the job's
// submit-to-finish latency, closes the span tree, hands it to the flight
// recorder (pinning anything worth a post-mortem — failures, cancels,
// retries, degraded runs), emits the lifecycle log line and retires the
// job (retireLocked). A done job's result is set before the call.
// Caller holds s.mu.
func (s *Server) endLocked(j *job, state string, err error) {
	j.state = state
	if err != nil {
		j.errMsg = err.Error()
	}
	ts := s.tenantLocked(j.tenant)
	switch state {
	case StateDone:
		s.met.completed.Inc()
		ts.completed++
	case StateFailed:
		j.reason = failureReason(err)
		s.met.failed.Inc()
		ts.failed++
	default:
		s.met.canceled.Inc()
		ts.canceled++
	}
	if state != StateDone {
		s.promoteFlightLocked(j)
	}
	j.finished = time.Now()
	e2e := j.finished.Sub(j.submitted)
	s.met.latencyNs.Observe(e2e.Nanoseconds())
	s.wLatency.Observe(e2e.Nanoseconds())

	j.queuedSpan.End()
	j.queuedSpan = nil
	j.span.SetAttr("state", j.state)
	if j.attempts > 1 {
		j.span.SetAttr("attempts", j.attempts)
	}
	j.span.End()
	if j.ledger != nil {
		snap := j.ledger.Snapshot()
		j.resources = &snap
	}
	degraded := j.result != nil && j.result.Stats.Degraded
	spans, dropped := j.span.Collected()
	s.flight.Record(&obs.JobTrace{
		JobID:        j.id,
		Trace:        j.span.Trace().String(),
		State:        j.state,
		Reason:       j.reason,
		Pinned:       j.state != StateDone || j.attempts > 1 || degraded,
		FinishedAt:   j.finished,
		Spans:        spans,
		DroppedSpans: dropped,
		Ledger:       j.resources,
	})
	s.tw.Flush() //nolint:errcheck // trace output is best-effort
	attrs := []any{
		"job", j.id, "trace", j.span.Trace().String(), "state", j.state,
		"attempts", j.attempts, "e2e_ms", e2e.Milliseconds(),
	}
	if j.errMsg != "" {
		attrs = append(attrs, "error", j.errMsg)
	}
	if j.reason != "" {
		attrs = append(attrs, "reason", j.reason)
	}
	if degraded {
		attrs = append(attrs, "degraded", true)
	}
	s.log.Info("job finished", attrs...)
	s.retireLocked(j)
}

// retireLocked records a job that just reached its terminal state and
// evicts the oldest-finished job beyond MaxRetainedJobs: its ID answers
// 404 from then on and its Idempotency-Key admits a new job. Queued and
// running jobs are never evicted. Caller holds s.mu.
func (s *Server) retireLocked(j *job) {
	s.terminal = append(s.terminal, j)
	if len(s.terminal) <= MaxRetainedJobs {
		return
	}
	old := s.terminal[0]
	s.terminal[0] = nil
	s.terminal = s.terminal[1:]
	delete(s.jobs, old.id)
	if old.idemKey != "" {
		delete(s.idem, old.tenant+"\x00"+old.idemKey)
	}
	if len(s.order) > 2*len(s.jobs) {
		s.compactOrderLocked()
	}
}

// compactOrderLocked drops evicted IDs from the submission order. It runs
// once they make up half of it, so its cost is constant per eviction.
// Caller holds s.mu.
func (s *Server) compactOrderLocked() {
	live := s.order[:0]
	for _, id := range s.order {
		if _, ok := s.jobs[id]; ok {
			live = append(live, id)
		}
	}
	clear(s.order[len(live):])
	s.order = live
}

// completeFlightLocked closes job j's flight after a successful run:
// every subscriber still waiting is completed from the leader's entry —
// its own top= prefix, its own seeded shot stream, no engine time. The
// entry serves every subscriber: a shots>0 job coalesces only when
// probsFit, which is when execute builds the entry's distribution.
// Caller holds s.mu.
func (s *Server) completeFlightLocked(j *job, entry *cacheEntry) {
	f := s.flights[j.key]
	if f == nil || f.leader != j {
		return
	}
	delete(s.flights, j.key)
	for _, sub := range f.subs {
		if sub.state == StateQueued { // not canceled while coalesced
			sub.result = resultFromEntry(sub, entry)
			s.endLocked(sub, StateDone, nil)
		}
	}
}

// promoteFlightLocked handles a leader leaving without an entry (failed,
// canceled, or its retry was abandoned): the oldest subscriber still
// queued is promoted to leader of a fresh flight over the remaining
// subscribers and enters the queue, so coalesced jobs never inherit
// their leader's fate. Caller holds s.mu.
func (s *Server) promoteFlightLocked(j *job) {
	f := s.flights[j.key]
	if f == nil || f.leader != j {
		return
	}
	delete(s.flights, j.key)
	if s.draining {
		return // Shutdown cancels the subscribers itself
	}
	for i, sub := range f.subs {
		if sub.state != StateQueued {
			continue
		}
		sub.cacheStatus = CacheMiss
		sub.span.SetAttr("cache", CacheMiss)
		sub.queuedSpan.SetAttr("promoted", true)
		s.flights[j.key] = &flight{leader: sub, subs: f.subs[i+1:]}
		s.fq.Push(sub)
		s.met.queueDepth.Set(int64(s.fq.Len()))
		return
	}
}

// updateCacheGaugesLocked refreshes the serve.cache.* gauges. Caller
// holds s.mu.
func (s *Server) updateCacheGaugesLocked() {
	n, b, ev := s.cache.Stats()
	s.met.cacheEntries.Set(int64(n))
	s.met.cacheBytes.Set(b)
	s.met.cacheEvictions.Set(ev)
}

// onLedgerUpdate is the per-job ledger hook: it caches the job's live
// footprint for the observed gauges. Runs outside the ledger's lock.
func (s *Server) onLedgerUpdate(j *job, snap obs.LedgerSnapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.state != StateRunning || j.ledger == nil {
		return // late phase-end after the terminal transition
	}
	j.observed = snap.CurrentBytes
	if snap.PeakBytes > j.observed {
		j.observed = snap.PeakBytes
	}
	s.updateMemGaugesLocked()
}

// updateMemGaugesLocked refreshes the serve.mem.* gauges from the
// reservation ledger and the running jobs' cached observed footprints.
// Caller holds s.mu.
func (s *Server) updateMemGaugesLocked() {
	s.met.memReserved.Set(int64(s.memReserved))
	s.met.memHeadroom.Set(int64(s.cfg.MemoryBudget - s.memReserved))
	var observed uint64
	for _, jb := range s.running {
		observed += jb.observed
	}
	s.met.memObserved.Set(int64(observed))
	s.met.memPeak.SetMax(int64(observed))
}

// errDraining cancels the jobs still queued when Shutdown begins;
// errRetryQueueFull fails a job whose retry found the queue full.
var (
	errDraining       = fmt.Errorf("%w (server draining)", core.ErrCanceled)
	errRetryQueueFull = errors.New("retry abandoned: queue full")
)

// isCancel distinguishes a canceled run (client cancel or drain) from a
// failure. A deadline abort is the job's own timeout, reported as failed
// with the sentinel's message.
func isCancel(err error) bool { return errors.Is(err, core.ErrCanceled) }

// failureReason classifies a terminal job failure for the status API.
func failureReason(err error) string {
	switch {
	case errors.Is(err, core.ErrNumericalDrift):
		return "numerical_drift"
	case errors.Is(err, core.ErrEngineFault):
		return "engine_fault"
	case errors.Is(err, core.ErrDeadlineExceeded):
		return "timeout"
	case errors.Is(err, errRetryQueueFull):
		return "queue_full"
	default:
		return "error"
	}
}

// RetryDelay is the backoff before attempt+1 of a failed job, and of a
// failed cluster coordinator→replica call: base·2^(attempt−1) capped at
// the maximum, plus up to 50% jitter so a burst of transient failures
// does not retry in lockstep.
func RetryDelay(attempt int) time.Duration {
	d := retryBaseDelay << uint(attempt-1)
	if d <= 0 || d > retryMaxDelay {
		d = retryMaxDelay
	}
	return d + time.Duration(rand.Int63n(int64(d)/2+1))
}

// enqueueRetry puts a backoff-expired job back on the queue. It
// re-checks the world under s.mu: a client cancel wins over the retry,
// and a drain that began while the timer ran has already canceled the
// job (and closed the queue), so the draining case is a narrow race
// guard that never touches the queue.
func (s *Server) enqueueRetry(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case j.state != StateQueued:
	case s.draining:
		s.endLocked(j, StateCanceled, errDraining)
	case s.fq.Len() >= s.cfg.QueueDepth:
		s.endLocked(j, StateFailed, errRetryQueueFull)
	default:
		s.fq.Push(j)
		s.met.queueDepth.Set(int64(s.fq.Len()))
	}
}

// execute runs the simulation and assembles the result payload plus —
// when caching is on — the cache entry that serves this flight's
// subscribers and future hits. A panic in the engine fails the job
// instead of the server.
func (s *Server) execute(ctx context.Context, j *job) (res *JobResult, entry *cacheEntry, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, entry, err = nil, nil, fmt.Errorf("engine panic: %v", r)
		}
	}()
	s.met.engineRuns.Inc()
	sim := core.New(j.circ.Qubits, core.Options{
		Pool:           s.pool,
		CacheMode:      j.opts.cache,
		Fusion:         j.opts.fusion,
		Metrics:        s.reg,
		IntegrityEvery: s.cfg.IntegrityEvery,
		Faults:         s.cfg.Faults,
		Ledger:         j.ledger,
	})
	st, err := sim.RunContext(ctx, j.circ)
	if err != nil {
		return nil, nil, err
	}
	res = buildResult(j, sim, st)
	if s.cache.enabled() {
		entry = buildCacheEntry(j, sim, st, s.probsFit(j.circ.Qubits))
	}
	return res, entry, nil
}

// cancelLocked cancels a job by id: a queued job is withdrawn from the
// queue (it is skipped when popped), a running job has its context
// canceled and transitions to canceled as soon as the engine observes it
// (bounded by one gate). It returns the job (nil if unknown) and whether
// it was still cancelable. Caller holds s.mu.
func (s *Server) cancelLocked(id string) (*job, bool) {
	j, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	switch j.state {
	case StateQueued:
		s.endLocked(j, StateCanceled, core.ErrCanceled)
		// The job may be parked in the dispatch gate's memory wait; wake it
		// so its runner observes the cancel and moves on.
		s.memCond.Broadcast()
		return j, true
	case StateRunning:
		j.cancel()
		return j, true
	default:
		return j, false
	}
}

// Shutdown drains the server: admission stops immediately, queued jobs
// that never started are canceled, and in-flight jobs get DrainGrace to
// finish before their contexts are canceled. It returns once every
// runner has exited, and is safe to call once.
func (s *Server) Shutdown() {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.runWG.Wait()
		return
	}
	s.draining = true
	for _, j := range s.jobs {
		if j.state == StateQueued {
			s.endLocked(j, StateCanceled, errDraining)
		}
	}
	// Coalesced subscribers were just canceled with everything else; the
	// flights are moot and the queue's remaining jobs are already
	// terminal, so closing it only wakes the runners to exit.
	s.flights = make(map[cacheKey]*flight)
	s.fq.Close()
	// Wake any runner parked in the dispatch gate: its job was just
	// canceled above and it must observe that and exit.
	s.memCond.Broadcast()
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.runWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(s.cfg.DrainGrace):
		// Grace expired: cancel whatever is still running; RunContext
		// observes the cancellation within one gate.
		s.mu.Lock()
		for _, j := range s.running {
			j.cancel()
		}
		s.mu.Unlock()
		<-done
	}
	s.pool.Close()
	s.tw.Flush() //nolint:errcheck // trace output is best-effort
}

// sampleShots draws measurement shots from the final state with a seeded
// generator, keyed as zero-padded bitstrings.
func sampleShots(sim *core.Simulator, n, shots int, seed int64) map[string]int {
	if shots <= 0 {
		return nil
	}
	counts := sim.Sample(rand.New(rand.NewSource(seed)), shots)
	out := make(map[string]int, len(counts))
	for idx, c := range counts {
		out[fmt.Sprintf("%0*b", n, idx)] = c
	}
	return out
}
