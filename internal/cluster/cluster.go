// Package cluster is the fault-tolerant front of a flatdd-serve replica
// fleet (DESIGN.md §14). A Coordinator routes each submission to a
// replica by consistent-hashing the canonical circuit hash — the same
// key the serve layer's result cache and coalescer use — so repeat
// submissions of a circuit keep landing on the replica that already
// holds its cached result. Membership is health-checked (periodic
// /healthz probes drive an alive → suspect → dead state machine), every
// coordinator→replica call goes through capped exponential backoff with
// jitter and a per-replica circuit breaker, and when a replica dies its
// hash range falls to the ring successors and its unacknowledged jobs
// are re-submitted there under their idempotency keys — at-least-once
// execution with replay-safe dedup, so an acknowledged job is never
// lost to a single replica failure.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"flatdd/internal/faults"
	"flatdd/internal/obs"
	"flatdd/internal/serve"
	"flatdd/internal/serve/client"
)

// ReplicaSpec names one serve replica and its base URL.
type ReplicaSpec struct {
	Name string
	URL  string
}

// Config parameterizes a Coordinator. The zero value of every field is
// replaced by the documented default.
type Config struct {
	// Replicas is the static fleet (at least one). Membership is dynamic
	// only in liveness: replicas join and leave the routable set as the
	// prober moves them between alive/suspect and dead.
	Replicas []ReplicaSpec

	// VNodes is the number of consistent-hash points per replica
	// (default 64).
	VNodes int

	// ProbeInterval (default 2s) is the health-probe period; ProbeTimeout
	// (default 1s) bounds each probe round trip.
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// SuspectAfter (default 1) and DeadAfter (default 3) are the
	// consecutive-probe-failure thresholds of the membership state
	// machine. SuspectAfter must be <= DeadAfter.
	SuspectAfter int
	DeadAfter    int

	// RPCTimeout (default 10s) bounds each coordinator→replica call
	// attempt (probes use ProbeTimeout instead).
	RPCTimeout time.Duration
	// MaxRetries (default 3) is the per-call retry budget for
	// replica-level failures; attempts back off RetryBaseDelay (default
	// 25ms) doubling up to RetryMaxDelay (default 1s), each sleep
	// jittered up to +50%.
	MaxRetries     int
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration

	// BreakerThreshold (default 5) consecutive replica-level failures
	// open a replica's circuit breaker; after BreakerCooldown (default
	// 5s) it goes half-open and admits one probe call.
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// Metrics, Faults and Logger follow the serve.Config conventions:
	// all optional, nil-safe.
	Metrics *obs.Registry
	Faults  *faults.Registry
	Logger  *slog.Logger

	// HTTPClient is the transport for replica calls (default
	// http.DefaultClient); tests substitute httptest transports.
	HTTPClient *http.Client
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.VNodes <= 0 {
		out.VNodes = defaultVNodes
	}
	if out.ProbeInterval <= 0 {
		out.ProbeInterval = 2 * time.Second
	}
	if out.ProbeTimeout <= 0 {
		out.ProbeTimeout = time.Second
	}
	if out.SuspectAfter <= 0 {
		out.SuspectAfter = 1
	}
	if out.DeadAfter <= 0 {
		out.DeadAfter = 3
	}
	if out.SuspectAfter > out.DeadAfter {
		out.SuspectAfter = out.DeadAfter
	}
	if out.RPCTimeout <= 0 {
		out.RPCTimeout = 10 * time.Second
	}
	if out.MaxRetries < 0 {
		out.MaxRetries = 0
	} else if out.MaxRetries == 0 {
		out.MaxRetries = 3
	}
	if out.RetryBaseDelay <= 0 {
		out.RetryBaseDelay = 25 * time.Millisecond
	}
	if out.RetryMaxDelay <= 0 {
		out.RetryMaxDelay = time.Second
	}
	if out.BreakerThreshold <= 0 {
		out.BreakerThreshold = 5
	}
	if out.BreakerCooldown <= 0 {
		out.BreakerCooldown = 5 * time.Second
	}
	if out.Logger == nil {
		out.Logger = slog.New(slog.DiscardHandler)
	}
	if out.HTTPClient == nil {
		out.HTTPClient = http.DefaultClient
	}
	return out
}

// cjob is the coordinator's record of one accepted submission. All
// fields are guarded by Coordinator.mu.
type cjob struct {
	id          string // coordinator-scoped id ("cj-000001")
	tenant      string
	req         *serve.SubmitRequest
	traceparent string
	idemKey     string // replay key on the replicas; never empty
	hash        string // canonical circuit hash = routing key
	submitted   time.Time

	replica   string // current owning replica
	remoteID  string // job id on that replica
	resubmits int    // failover re-submissions

	view     serve.JobView // last view observed from a replica
	terminal bool          // view reached done/failed/canceled
	result   []byte        // cached result JSON once fetched
}

// metrics is the coordinator's handle set, resolved once at New.
type metrics struct {
	probes, probeFails, revived *obs.Counter
	alive, suspect, dead        *obs.Gauge

	submits, rejects   *obs.Counter
	rpcCalls, rpcFails *obs.Counter
	rpcRetries         *obs.Counter
	breakerOpens       *obs.Counter
	breakerShed        *obs.Counter
	failovers          *obs.Counter
	resubmits          *obs.Counter
	resubmitLost       *obs.Counter
}

// Coordinator fronts the replica fleet. Construct with New, serve
// Handler(), stop with Shutdown.
type Coordinator struct {
	cfg  Config
	reg  *obs.Registry
	flts *faults.Registry
	log  *slog.Logger
	met  metrics

	ring     *ring
	replicas map[string]*replica
	order    []string // replica names, config order

	mu      sync.Mutex
	jobs    map[string]*cjob
	byIdem  map[string]*cjob // client idempotency key → job
	jobSeq  int64
	nonce   string // per-process prefix of generated idempotency keys
	stopped bool

	stop    chan struct{}
	probeWG sync.WaitGroup
}

// New builds a Coordinator and starts its probe loop.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("cluster: no replicas configured")
	}
	c := &Coordinator{
		cfg:      cfg,
		reg:      cfg.Metrics,
		flts:     cfg.Faults,
		log:      cfg.Logger,
		replicas: make(map[string]*replica, len(cfg.Replicas)),
		jobs:     make(map[string]*cjob),
		byIdem:   make(map[string]*cjob),
		nonce:    fmt.Sprintf("%08x", rand.Uint32()),
		stop:     make(chan struct{}),
	}
	for _, spec := range cfg.Replicas {
		if spec.Name == "" || spec.URL == "" {
			return nil, fmt.Errorf("cluster: replica needs name and url (got %q=%q)", spec.Name, spec.URL)
		}
		if _, dup := c.replicas[spec.Name]; dup {
			return nil, fmt.Errorf("cluster: duplicate replica name %q", spec.Name)
		}
		c.replicas[spec.Name] = &replica{
			name:   spec.Name,
			url:    spec.URL,
			client: client.New(spec.URL, client.WithHTTPClient(cfg.HTTPClient)),
			br:     newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
			state:  ReplicaAlive,
		}
		c.order = append(c.order, spec.Name)
	}
	c.ring = newRing(c.order, cfg.VNodes)
	c.met = metrics{
		probes:       c.reg.Counter("cluster.probe.total"),
		probeFails:   c.reg.Counter("cluster.probe.failures"),
		revived:      c.reg.Counter("cluster.replica.revived"),
		alive:        c.reg.Gauge("cluster.replicas.alive"),
		suspect:      c.reg.Gauge("cluster.replicas.suspect"),
		dead:         c.reg.Gauge("cluster.replicas.dead"),
		submits:      c.reg.Counter("cluster.submit.total"),
		rejects:      c.reg.Counter("cluster.submit.rejected"),
		rpcCalls:     c.reg.Counter("cluster.rpc.calls"),
		rpcFails:     c.reg.Counter("cluster.rpc.failures"),
		rpcRetries:   c.reg.Counter("cluster.rpc.retries"),
		breakerOpens: c.reg.Counter("cluster.breaker.opens"),
		breakerShed:  c.reg.Counter("cluster.breaker.shed"),
		failovers:    c.reg.Counter("cluster.failover.total"),
		resubmits:    c.reg.Counter("cluster.failover.resubmitted"),
		resubmitLost: c.reg.Counter("cluster.failover.lost"),
	}
	c.mu.Lock()
	c.updateMembershipGaugesLocked()
	c.mu.Unlock()
	c.probeWG.Add(1)
	go c.probeLoop()
	return c, nil
}

// Shutdown stops the probe loop. Replica servers are not owned by the
// coordinator and keep running.
func (c *Coordinator) Shutdown() {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	c.stopped = true
	c.mu.Unlock()
	close(c.stop)
	c.probeWG.Wait()
}

// Registry returns the coordinator's metrics registry (nil if none).
func (c *Coordinator) Registry() *obs.Registry { return c.reg }

// errBreakerOpen marks a call shed by an open circuit breaker.
var errBreakerOpen = errors.New("cluster: circuit breaker open")

// faultErr consults an injection point under both its bare catalog name
// and its per-replica "<point>.<name>" variant, so chaos tests can
// target one replica or the whole fleet.
func (c *Coordinator) faultErr(point string, r *replica) error {
	if err := c.flts.Point(point).Err(); err != nil {
		return err
	}
	return c.flts.Point(point + "." + r.name).Err()
}

// downErr is the cluster.replica.down hook: while armed the replica is
// unreachable to probes and calls alike, without killing the process.
func (c *Coordinator) downErr(r *replica) error {
	if err := c.faultErr(faults.ClusterReplicaDown, r); err != nil {
		return fmt.Errorf("replica %s down: %w", r.name, err)
	}
	return nil
}

// call runs one coordinator→replica operation with the full resilience
// stack: fault hooks, circuit breaker, bounded per-attempt timeout, and
// capped exponential backoff with jitter across replica-level failures.
// An *APIError return means the replica answered (an HTTP rejection is
// not a replica failure): it counts as breaker success and is returned
// to the caller unretried.
func (c *Coordinator) call(r *replica, op string, fn func(ctx context.Context) error) error {
	if !r.br.Allow(time.Now()) {
		c.met.breakerShed.Inc()
		return fmt.Errorf("%w: replica %s", errBreakerOpen, r.name)
	}
	lat := c.reg.Histogram("cluster.replica."+r.name+".rpc.ns", obs.DurationBuckets())
	var err error
	for attempt := 0; ; attempt++ {
		c.met.rpcCalls.Inc()
		start := time.Now()
		err = c.attempt(r, fn)
		lat.Observe(time.Since(start).Nanoseconds())
		var apiErr *client.APIError
		if err == nil || errors.As(err, &apiErr) {
			r.br.Success()
			return err
		}
		c.met.rpcFails.Inc()
		if r.br.Failure(time.Now()) {
			c.met.breakerOpens.Inc()
			c.log.Warn("circuit breaker opened", "replica", r.name, "op", op, "error", err)
			return err
		}
		if attempt >= c.cfg.MaxRetries {
			return err
		}
		c.met.rpcRetries.Inc()
		delay := c.cfg.RetryBaseDelay << attempt
		if delay > c.cfg.RetryMaxDelay || delay <= 0 {
			delay = c.cfg.RetryMaxDelay
		}
		delay += time.Duration(rand.Int63n(int64(delay)/2 + 1))
		select {
		case <-c.stop:
			return err
		case <-time.After(delay):
		}
		// The retry is a fresh wire attempt against the same replica; the
		// breaker must admit it (it already absorbed the failure above).
		if !r.br.Allow(time.Now()) {
			c.met.breakerShed.Inc()
			return fmt.Errorf("%w: replica %s", errBreakerOpen, r.name)
		}
	}
}

// attempt runs fn once under the RPC timeout, after the fault hooks.
func (c *Coordinator) attempt(r *replica, fn func(ctx context.Context) error) error {
	if err := c.downErr(r); err != nil {
		return err
	}
	if err := c.faultErr(faults.ClusterRPCTimeout, r); err != nil {
		return fmt.Errorf("rpc timeout (injected): %w", err)
	}
	if f := c.flts.Point(faults.ClusterRPCSlow).Fire(); f != nil && f.Delay > 0 {
		time.Sleep(f.Delay)
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.RPCTimeout)
	defer cancel()
	return fn(ctx)
}

// Submit routes and forwards one submission. The returned view carries
// the coordinator-scoped job id; replayed mirrors the idempotency-replay
// flag (true when idemKey matched an earlier coordinator submission).
// A non-nil *client.APIError return relays a replica's own rejection.
func (c *Coordinator) Submit(req *serve.SubmitRequest, tenant, idemKey, traceparent string) (serve.JobView, bool, string, error) {
	circ, err := serve.BuildCircuit(req)
	if err != nil {
		c.met.rejects.Inc()
		return serve.JobView{}, false, "", &client.APIError{
			Status: http.StatusBadRequest, Code: serve.CodeInvalidRequest,
			Message: err.Error(), Reason: "bad_circuit",
		}
	}
	hash := circ.Hash()

	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		c.met.rejects.Inc()
		return serve.JobView{}, false, "", &client.APIError{
			Status: http.StatusServiceUnavailable, Code: serve.CodeUnavailable,
			Message: "coordinator shutting down", Reason: "draining", RetryAfter: time.Second,
		}
	}
	if idemKey != "" {
		if j := c.byIdem[idemKey]; j != nil {
			v := c.clientViewLocked(j)
			c.mu.Unlock()
			return v, true, j.traceparent, nil
		}
	}
	c.jobSeq++
	j := &cjob{
		id:          fmt.Sprintf("cj-%06d", c.jobSeq),
		tenant:      tenant,
		req:         req,
		traceparent: traceparent,
		idemKey:     idemKey,
		hash:        hash,
		submitted:   time.Now(),
	}
	if j.idemKey == "" {
		// Failover re-submission needs a replay key even when the caller
		// sent none; a coordinator-generated one is never exposed.
		j.idemKey = "cluster/" + c.nonce + "/" + j.id
	}
	c.mu.Unlock()

	view, tp, err := c.routeSubmit(j, nil)
	if err != nil {
		c.met.rejects.Inc()
		return serve.JobView{}, false, "", err
	}
	c.met.submits.Inc()

	c.mu.Lock()
	c.jobs[j.id] = j
	if idemKey != "" {
		c.byIdem[idemKey] = j
	}
	if tp != "" {
		j.traceparent = tp
	}
	out := c.clientViewLocked(j)
	c.mu.Unlock()
	c.log.Info("job routed", "job", j.id, "replica", view.Replica, "remote", view.ID,
		"tenant", tenant, "hash", hash[:min(12, len(hash))])
	return out, false, tp, nil
}

// routeSubmit walks the job's ring preference list and submits to the
// first replica that accepts it, skipping dead replicas, open breakers
// and unreachable/draining replicas. exclude names replicas to skip
// outright (the failed replica during failover). On success the job's
// replica/remoteID/view are updated under mu.
func (c *Coordinator) routeSubmit(j *cjob, exclude map[string]bool) (serve.JobView, string, error) {
	var lastErr error
	for _, name := range c.ring.Preference(j.hash, 0) {
		if exclude[name] {
			continue
		}
		r := c.replicas[name]
		c.mu.Lock()
		routable := r.routableLocked()
		tenant, idemKey, tp := j.tenant, j.idemKey, j.traceparent
		c.mu.Unlock()
		if !routable {
			continue
		}
		var resp *client.SubmitResponse
		err := c.call(r, "submit", func(ctx context.Context) error {
			var err error
			opts := []client.SubmitOption{
				client.WithIdempotencyKey(idemKey),
				client.WithSubmitTenant(tenant),
			}
			if tp != "" {
				opts = append(opts, client.WithTraceParent(tp))
			}
			resp, err = r.client.Submit(ctx, j.req, opts...)
			return err
		})
		if err == nil {
			c.mu.Lock()
			j.replica = r.name
			j.remoteID = resp.Job.ID
			j.view = resp.Job
			j.view.Replica = r.name
			j.terminal = isTerminal(resp.Job.State)
			v := j.view
			c.mu.Unlock()
			return v, resp.TraceParent, nil
		}
		lastErr = err
		var apiErr *client.APIError
		if errors.As(err, &apiErr) {
			// The replica answered. 503 means it is draining or overloaded —
			// the next ring candidate may accept; everything else (quota,
			// validation) is an authoritative verdict to relay as-is.
			if apiErr.Code != serve.CodeUnavailable {
				return serve.JobView{}, "", err
			}
		}
	}
	if lastErr == nil {
		lastErr = errors.New("no routable replicas")
	}
	return serve.JobView{}, "", &client.APIError{
		Status: http.StatusServiceUnavailable, Code: serve.CodeUnavailable,
		Message: fmt.Sprintf("no replica accepted the job: %v", lastErr),
		Reason:  "cluster_unavailable", RetryAfter: time.Second,
	}
}

// failover re-routes the hash range of a dead replica by re-submitting
// every non-terminal job it owned to the ring successors, under the
// jobs' idempotency keys (a replica that already has the job replays it
// instead of double-running).
func (c *Coordinator) failover(deadName string) {
	c.met.failovers.Inc()
	c.mu.Lock()
	var victims []*cjob
	for _, j := range c.jobs {
		if j.replica == deadName && !j.terminal {
			victims = append(victims, j)
		}
	}
	c.mu.Unlock()
	c.log.Warn("failover", "replica", deadName, "jobs", len(victims))
	exclude := map[string]bool{deadName: true}
	for _, j := range victims {
		c.mu.Lock()
		// Re-check under the lock: a status poll may have seen a terminal
		// state, or a concurrent failover may have moved the job already.
		skip := j.terminal || j.replica != deadName
		c.mu.Unlock()
		if skip {
			continue
		}
		c.mu.Lock()
		j.resubmits++
		c.mu.Unlock()
		if _, _, err := c.routeSubmit(j, exclude); err != nil {
			// No survivor accepted: the job fails terminally rather than
			// dangling on a dead replica forever.
			c.mu.Lock()
			j.terminal = true
			j.view.State = serve.StateFailed
			j.view.Error = fmt.Sprintf("replica %s died and no survivor accepted the job: %v", deadName, err)
			j.view.Reason = "cluster_unavailable"
			c.mu.Unlock()
			c.met.resubmitLost.Inc()
			c.log.Error("failover resubmit failed", "job", j.id, "error", err)
			continue
		}
		c.met.resubmits.Inc()
		c.log.Info("job resubmitted", "job", j.id, "from", deadName, "to", j.replica)
	}
}

// Job returns a job's current view: a live proxy to its replica when
// reachable, the cached last-known view otherwise (a dead replica makes
// a job stale, never missing). Terminal views are always served from
// cache — observed completion never regresses.
func (c *Coordinator) Job(id string) (serve.JobView, bool) {
	c.mu.Lock()
	j := c.jobs[id]
	if j == nil {
		c.mu.Unlock()
		return serve.JobView{}, false
	}
	if j.terminal {
		v := c.clientViewLocked(j)
		c.mu.Unlock()
		return v, true
	}
	r := c.replicas[j.replica]
	remoteID := j.remoteID
	c.mu.Unlock()

	var rv *serve.JobView
	err := c.call(r, "status", func(ctx context.Context) error {
		var err error
		rv, err = r.client.Job(ctx, remoteID)
		return err
	})
	var apiErr *client.APIError
	if errors.As(err, &apiErr) && apiErr.Status == http.StatusNotFound {
		// The replica no longer knows the job: it restarted, or it retired
		// the finished job before any poll saw it finish. Re-execute it as
		// Result does; the re-routed view is returned below.
		c.reexecute(j, remoteID)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err == nil && j.remoteID == remoteID {
		j.view = *rv
		j.view.Replica = r.name
		if isTerminal(rv.State) {
			j.terminal = true
		}
	}
	// While the replica is unreachable the cached view stands; the
	// prober/failover path is the one that moves the job.
	return c.clientViewLocked(j), true
}

// Result fetches a done job's result, serving the coordinator's cached
// copy when the owning replica has since become unreachable.
func (c *Coordinator) Result(id string) ([]byte, *client.APIError) {
	c.mu.Lock()
	j := c.jobs[id]
	if j == nil {
		c.mu.Unlock()
		return nil, &client.APIError{Status: http.StatusNotFound, Code: serve.CodeNotFound,
			Message: "no such job", Reason: "unknown_id"}
	}
	if j.result != nil {
		res := j.result
		c.mu.Unlock()
		return res, nil
	}
	r := c.replicas[j.replica]
	remoteID := j.remoteID
	c.mu.Unlock()

	var body []byte
	err := c.call(r, "result", func(ctx context.Context) error {
		var err error
		body, err = r.client.ResultRaw(ctx, remoteID)
		return err
	})
	if err != nil {
		var apiErr *client.APIError
		if errors.As(err, &apiErr) {
			if apiErr.Status == http.StatusNotFound {
				// The replica restarted and lost the job before its result
				// ever crossed the coordinator. The job was acknowledged, so
				// it must not be lost: re-execute it under its idempotency
				// key and ask the caller to come back.
				return nil, c.reexecute(j, remoteID)
			}
			return nil, apiErr
		}
		return nil, &client.APIError{Status: http.StatusServiceUnavailable, Code: serve.CodeUnavailable,
			Message: fmt.Sprintf("replica %s unreachable: %v", r.name, err),
			Reason:  "replica_unreachable", RetryAfter: time.Second}
	}
	c.mu.Lock()
	if j.remoteID == remoteID {
		j.result = body
	}
	c.mu.Unlock()
	return body, nil
}

// reexecute re-routes a job whose replica lost it (a restart wiped the
// remote state, or the replica retired the job, while its result was
// still owed). The fresh submission replays under the job's idempotency
// key; the caller gets a retryable 503 and picks the result up after
// the re-run.
func (c *Coordinator) reexecute(j *cjob, staleRemoteID string) *client.APIError {
	c.mu.Lock()
	if j.remoteID != staleRemoteID || j.result != nil {
		// A concurrent caller already moved or satisfied the job.
		c.mu.Unlock()
		return &client.APIError{Status: http.StatusServiceUnavailable, Code: serve.CodeUnavailable,
			Message: "job is re-executing; retry", Reason: "reexecuting", RetryAfter: time.Second}
	}
	j.terminal = false
	j.resubmits++
	c.mu.Unlock()
	if _, _, err := c.routeSubmit(j, nil); err != nil {
		c.met.resubmitLost.Inc()
		return &client.APIError{Status: http.StatusServiceUnavailable, Code: serve.CodeUnavailable,
			Message: fmt.Sprintf("replica lost the job and re-submission failed: %v", err),
			Reason:  "cluster_unavailable", RetryAfter: time.Second}
	}
	c.met.resubmits.Inc()
	c.log.Warn("job re-executed after replica state loss", "job", j.id, "to", j.replica)
	return &client.APIError{Status: http.StatusServiceUnavailable, Code: serve.CodeUnavailable,
		Message: "replica lost the job; re-executing", Reason: "reexecuting", RetryAfter: time.Second}
}

// Cancel forwards a cancellation to the job's replica.
func (c *Coordinator) Cancel(id string) (serve.JobView, *client.APIError) {
	c.mu.Lock()
	j := c.jobs[id]
	if j == nil {
		c.mu.Unlock()
		return serve.JobView{}, &client.APIError{Status: http.StatusNotFound, Code: serve.CodeNotFound,
			Message: "no such job", Reason: "unknown_id"}
	}
	if j.terminal {
		v := c.clientViewLocked(j)
		c.mu.Unlock()
		return v, nil
	}
	r := c.replicas[j.replica]
	remoteID := j.remoteID
	c.mu.Unlock()

	var rv *serve.JobView
	err := c.call(r, "cancel", func(ctx context.Context) error {
		var err error
		rv, err = r.client.Cancel(ctx, remoteID)
		return err
	})
	if err != nil {
		var apiErr *client.APIError
		if errors.As(err, &apiErr) {
			return serve.JobView{}, apiErr
		}
		return serve.JobView{}, &client.APIError{Status: http.StatusServiceUnavailable, Code: serve.CodeUnavailable,
			Message: fmt.Sprintf("replica %s unreachable: %v", r.name, err),
			Reason:  "replica_unreachable", RetryAfter: time.Second}
	}
	c.mu.Lock()
	if j.remoteID == remoteID {
		j.view = *rv
		j.view.Replica = r.name
		if isTerminal(rv.State) {
			j.terminal = true
		}
	}
	v := c.clientViewLocked(j)
	c.mu.Unlock()
	return v, nil
}

// Jobs renders the coordinator's cached views, newest first, filtered
// by state and tenant ("" = all), limited to limit entries (<=0 = all).
func (c *Coordinator) Jobs(state, tenant string, limit int) []serve.JobView {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := make([]*cjob, 0, len(c.jobs))
	for _, j := range c.jobs {
		if state != "" && j.view.State != state {
			continue
		}
		if tenant != "" && j.tenant != tenant {
			continue
		}
		ids = append(ids, j)
	}
	// Newest first by coordinator id (ids are zero-padded and monotonic).
	for i := 1; i < len(ids); i++ {
		for k := i; k > 0 && ids[k].id > ids[k-1].id; k-- {
			ids[k], ids[k-1] = ids[k-1], ids[k]
		}
	}
	if limit > 0 && len(ids) > limit {
		ids = ids[:limit]
	}
	out := make([]serve.JobView, len(ids))
	for i, j := range ids {
		out[i] = c.clientViewLocked(j)
	}
	return out
}

// clientViewLocked renders the coordinator-facing view of a job: the
// cached replica view re-keyed to the coordinator id. Caller holds mu.
func (c *Coordinator) clientViewLocked(j *cjob) serve.JobView {
	v := j.view
	v.ID = j.id
	v.Tenant = j.tenant
	if v.State == "" {
		v.State = serve.StateQueued
	}
	if v.SubmittedAt.IsZero() {
		v.SubmittedAt = j.submitted
	}
	if j.resubmits > 0 && v.Attempts < j.resubmits+1 {
		v.Attempts = j.resubmits + 1
	}
	return v
}

func isTerminal(state string) bool {
	switch state {
	case serve.StateDone, serve.StateFailed, serve.StateCanceled:
		return true
	}
	return false
}

// ReplicaView is one replica's row in the coordinator's /healthz.
type ReplicaView struct {
	Name         string       `json:"name"`
	URL          string       `json:"url"`
	State        string       `json:"state"`
	Breaker      string       `json:"breaker"`
	BreakerOpens int64        `json:"breaker_opens,omitempty"`
	Probes       int64        `json:"probes"`
	ProbeFails   int64        `json:"probe_failures,omitempty"`
	LastError    string       `json:"last_error,omitempty"`
	Transitions  []Transition `json:"transitions,omitempty"`
}

// Membership renders the fleet's health for /healthz.
func (c *Coordinator) Membership() []ReplicaView {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ReplicaView, 0, len(c.order))
	for _, name := range c.order {
		r := c.replicas[name]
		bs, opens := r.br.State()
		out = append(out, ReplicaView{
			Name:         r.name,
			URL:          r.url,
			State:        r.state,
			Breaker:      bs.String(),
			BreakerOpens: opens,
			Probes:       r.probes,
			ProbeFails:   r.probeFails,
			LastError:    r.lastErr,
			Transitions:  append([]Transition(nil), r.transitions...),
		})
	}
	return out
}

// Tenants merges the per-tenant accounting of every reachable replica
// (rows summed by tenant name; gauges like Queued/Running add, quotas
// and weight take the first replica's value — the fleet is homogeneous).
func (c *Coordinator) Tenants() []serve.TenantView {
	merged := map[string]*serve.TenantView{}
	var order []string
	for _, name := range c.order {
		r := c.replicas[name]
		c.mu.Lock()
		routable := r.routableLocked()
		c.mu.Unlock()
		if !routable {
			continue
		}
		var rows []serve.TenantView
		err := c.call(r, "tenants", func(ctx context.Context) error {
			var err error
			rows, err = r.client.Tenants(ctx)
			return err
		})
		if err != nil {
			continue
		}
		for _, row := range rows {
			m := merged[row.Name]
			if m == nil {
				cp := row
				merged[row.Name] = &cp
				order = append(order, row.Name)
				continue
			}
			m.Queued += row.Queued
			m.Running += row.Running
			m.Submitted += row.Submitted
			m.Completed += row.Completed
			m.Failed += row.Failed
			m.Canceled += row.Canceled
			m.Rejected += row.Rejected
			m.CacheHits += row.CacheHits
			m.Coalesced += row.Coalesced
			m.Misses += row.Misses
		}
	}
	out := make([]serve.TenantView, 0, len(order))
	for _, name := range order {
		out = append(out, *merged[name])
	}
	for i := 1; i < len(out); i++ {
		for k := i; k > 0 && out[k].Name < out[k-1].Name; k-- {
			out[k], out[k-1] = out[k-1], out[k]
		}
	}
	return out
}
