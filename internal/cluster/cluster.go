// Package cluster is the fault-tolerant front of a flatdd-serve replica
// fleet (DESIGN.md §14). A Coordinator routes each submission to a
// replica by consistent-hashing the canonical circuit hash — the same
// key the serve layer's result cache and coalescer use — so repeat
// submissions of a circuit keep landing on the replica that already
// holds its cached result. Membership is health-checked: periodic
// /healthz probes drive an alive → suspect → dead state machine, the one
// failure detector. Every coordinator→replica call retries
// replica-level failures with serve's capped, jittered backoff, and when
// a replica dies its hash range falls to the ring successors and its
// unacknowledged jobs are re-submitted there under their idempotency
// keys — at-least-once execution with replay-safe dedup, so an
// acknowledged job is never lost to a single replica failure.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"slices"
	"strings"
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

// Config parameterizes a Coordinator. Every field but Replicas is
// optional.
type Config struct {
	// Replicas is the static fleet (at least one). Membership is dynamic
	// only in liveness: replicas join and leave the routable set as the
	// prober moves them between alive/suspect and dead.
	Replicas []ReplicaSpec

	// ProbeInterval (default 2s) is the health-probe period.
	ProbeInterval time.Duration

	// Metrics, Faults and Logger follow the serve.Config conventions:
	// all optional, nil-safe.
	Metrics *obs.Registry
	Faults  *faults.Registry
	Logger  *slog.Logger

	// HTTPClient is the transport for replica calls (default
	// http.DefaultClient); tests substitute httptest transports.
	HTTPClient *http.Client
}

// Fixed coordinator limits. None of them is a Config field: no
// deployment or test needs another value.
const (
	vnodes       = 64               // consistent-hash points per replica; the largest range stays within a few percent of the mean for small fleets
	probeTimeout = time.Second      // bound on one /healthz round trip
	suspectAfter = 1                // consecutive probe failures before a replica is suspect
	deadAfter    = 3                // consecutive probe failures before a replica is dead, which fires failover
	rpcTimeout   = 10 * time.Second // bound on one coordinator→replica call attempt
	maxRetries   = 3                // retries of a call after a replica-level failure, spaced by serve.RetryDelay
)

func (c Config) withDefaults() Config {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	if c.HTTPClient == nil {
		c.HTTPClient = http.DefaultClient
	}
	return c
}

// placement is where a job runs: a replica, the job's id there, and
// the job's trace ID. Every placement of a job shares its trace (the
// coordinator forwards the traceparent), while a restarted replica
// numbers its jobs from 1 again: a view of the remote id with another
// trace is another job, which the coordinator must neither report,
// cancel nor take a result from.
type placement struct{ replica, remoteID, trace string }

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

	at        placement // current owning replica, remote id and trace
	resubmits int       // failover re-submissions

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

	mu       sync.Mutex
	jobs     map[string]*cjob
	byIdem   map[string]*cjob // client idempotency key → job
	finished []*cjob          // terminal jobs in finish order, at most serve.MaxRetainedJobs
	jobSeq   int64
	nonce    string // per-process prefix of generated idempotency keys
	stopped  bool

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
			rpcLat: c.reg.Histogram("cluster.replica."+spec.Name+".rpc.ns", obs.DurationBuckets()),
			state:  ReplicaAlive,
		}
		c.order = append(c.order, spec.Name)
	}
	c.ring = newRing(c.order, vnodes)
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

// call runs one coordinator→replica operation: fault hooks, a bounded
// per-attempt timeout, and up to maxRetries retries of replica-level
// failures spaced by serve.RetryDelay. An *APIError return means the
// replica answered (an HTTP rejection is not a replica failure); it is
// returned to the caller unretried. Telling a dead replica from a slow
// one is the prober's job, not the caller's.
func (c *Coordinator) call(r *replica, fn func(ctx context.Context) error) error {
	for attempt := 1; ; attempt++ {
		c.met.rpcCalls.Inc()
		start := time.Now()
		err := c.attempt(r, fn)
		r.rpcLat.Observe(time.Since(start).Nanoseconds())
		var apiErr *client.APIError
		if err == nil || errors.As(err, &apiErr) {
			return err
		}
		c.met.rpcFails.Inc()
		if attempt > maxRetries {
			return err
		}
		c.met.rpcRetries.Inc()
		select {
		case <-c.stop:
			return err
		case <-time.After(serve.RetryDelay(attempt)):
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
	ctx, cancel := context.WithTimeout(context.Background(), rpcTimeout)
	defer cancel()
	return fn(ctx)
}

// errUnknownJob answers an id the coordinator never issued or has
// evicted, with the reason a replica gives.
var errUnknownJob = &client.APIError{Status: http.StatusNotFound, Code: serve.CodeNotFound,
	Message: "no such job", Reason: "unknown_job"}

// Submit routes and forwards one submission. The returned view carries
// the coordinator-scoped job id; replayed mirrors the idempotency-replay
// flag (true when idemKey matched a retained coordinator submission).
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
	// routeSubmit registered the job; its key replays while it is retained.
	if idemKey != "" && c.jobs[j.id] == j {
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
// first replica that accepts it, skipping dead and unreachable or
// draining replicas. exclude names replicas to skip outright (the failed
// replica during failover). On success the job is registered (a no-op
// for a retained one) and placed on the accepting replica under mu.
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
		err := c.call(r, func(ctx context.Context) error {
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
			c.jobs[j.id] = j
			j.at = placement{r.name, resp.Job.ID, resp.Job.Trace}
			c.observeLocked(j, j.at, resp.Job)
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
		if j.at.replica == deadName && !j.terminal {
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
		skip := j.terminal || j.at.replica != deadName
		if !skip {
			j.resubmits++
		}
		c.mu.Unlock()
		if skip {
			continue
		}
		if _, _, err := c.routeSubmit(j, exclude); err != nil {
			// No survivor accepted: the job fails terminally rather than
			// dangling on a dead replica forever.
			c.mu.Lock()
			j.view.State = serve.StateFailed
			j.view.Error = fmt.Sprintf("replica %s died and no survivor accepted the job: %v", deadName, err)
			j.view.Reason = "cluster_unavailable"
			c.retireLocked(j)
			c.mu.Unlock()
			c.met.resubmitLost.Inc()
			c.log.Error("failover resubmit failed", "job", j.id, "error", err)
			continue
		}
		c.met.resubmits.Inc()
		c.log.Info("job resubmitted", "job", j.id, "from", deadName, "to", j.at.replica)
	}
}

// answer classifies a replica's reply about one job.
type answer int

const (
	answered    answer = iota // the replica replied; an error is its own verdict, relayed as-is
	notFound                  // the replica has no record of the job: it restarted, or it retired the finished job
	unreachable               // no reply after retries
)

// onReplica asks the job's current replica for its view of the job and
// classifies the reply. When the replica still knows this job, then (if
// any) runs on it next: a cancel, or a result fetch. onReplica returns
// the placement it asked, so the caller can tell whether a concurrent
// failover moved the job meanwhile, the view, and the error to relay:
// the replica's own verdict, or a 503 when it is unreachable.
func (c *Coordinator) onReplica(j *cjob, then func(ctx context.Context, cl *client.Client, remoteID string) error) (answer, placement, *serve.JobView, *client.APIError) {
	c.mu.Lock()
	at := j.at
	c.mu.Unlock()
	r := c.replicas[at.replica]
	var v *serve.JobView
	err := c.call(r, func(ctx context.Context) error {
		var err error
		v, err = r.client.Job(ctx, at.remoteID)
		if err != nil || v.Trace != at.trace || then == nil {
			return err
		}
		return then(ctx, r.client, at.remoteID)
	})
	var apiErr *client.APIError
	switch {
	case v != nil && v.Trace != at.trace:
		return notFound, at, nil, nil
	case err == nil:
		return answered, at, v, nil
	case !errors.As(err, &apiErr):
		return unreachable, at, nil, &client.APIError{Status: http.StatusServiceUnavailable, Code: serve.CodeUnavailable,
			Message: fmt.Sprintf("replica %s unreachable: %v", r.name, err),
			Reason:  "replica_unreachable", RetryAfter: time.Second}
	case apiErr.Status == http.StatusNotFound:
		return notFound, at, nil, nil
	default:
		return answered, at, nil, apiErr
	}
}

// observeLocked records a replica's view of a non-terminal job, unless
// the job has moved since the replica was asked, and retires the job
// once the view is terminal. Caller holds mu.
func (c *Coordinator) observeLocked(j *cjob, at placement, v serve.JobView) {
	if j.at != at || j.terminal {
		return
	}
	j.view = v
	j.view.Replica = at.replica
	if isTerminal(v.State) {
		c.retireLocked(j)
	}
}

// retireLocked marks a job terminal and, as a replica does, evicts the
// oldest-finished job beyond serve.MaxRetainedJobs: its id answers 404
// from then on and its Idempotency-Key admits a new job. Non-terminal
// jobs are never evicted. Caller holds mu.
func (c *Coordinator) retireLocked(j *cjob) {
	j.terminal = true
	c.finished = append(c.finished, j)
	if len(c.finished) <= serve.MaxRetainedJobs {
		return
	}
	old := c.finished[0]
	c.finished[0] = nil
	c.finished = c.finished[1:]
	delete(c.jobs, old.id)
	if c.byIdem[old.idemKey] == old {
		delete(c.byIdem, old.idemKey)
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
	c.mu.Unlock()

	ans, at, rv, _ := c.onReplica(j, nil)
	switch {
	case ans == notFound:
		c.reexecute(j, at)
	case rv != nil:
		c.mu.Lock()
		c.observeLocked(j, at, *rv)
		c.mu.Unlock()
	}
	// While the replica is unreachable the cached view stands; the
	// prober/failover path is the one that moves the job.
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.clientViewLocked(j), true
}

// Result fetches a done job's result once and serves the coordinator's
// copy from then on. A failed or canceled job is answered from the
// coordinator's own view, with the 409 a replica gives.
func (c *Coordinator) Result(id string) ([]byte, *client.APIError) {
	c.mu.Lock()
	j := c.jobs[id]
	if j == nil {
		c.mu.Unlock()
		return nil, errUnknownJob
	}
	res, v, terminal := j.result, j.view, j.terminal
	c.mu.Unlock()
	if res != nil {
		return res, nil
	}
	if terminal && v.State != serve.StateDone {
		return nil, &client.APIError{Status: http.StatusConflict, Code: serve.CodeConflict,
			Message: fmt.Sprintf("job %s: %s", v.State, v.Error), Reason: "job_" + v.State}
	}

	var body []byte
	ans, at, _, apiErr := c.onReplica(j, func(ctx context.Context, cl *client.Client, remoteID string) (err error) {
		body, err = cl.ResultRaw(ctx, remoteID)
		return err
	})
	switch {
	case ans == notFound:
		// The job was acknowledged and its result never crossed the
		// coordinator, so it must not be lost: re-execute it and ask the
		// caller to come back.
		return nil, c.reexecute(j, at)
	case apiErr != nil:
		return nil, apiErr
	}
	c.mu.Lock()
	if j.at == at {
		j.result = body
	}
	c.mu.Unlock()
	return body, nil
}

// reexecute re-routes a job whose replica has no record of it (a
// restart wiped the remote state, or the replica retired the job before
// its result crossed the coordinator). The fresh submission replays
// under the job's idempotency key; the caller gets a retryable 503 and
// picks the result up after the re-run.
func (c *Coordinator) reexecute(j *cjob, stale placement) *client.APIError {
	c.mu.Lock()
	if j.at != stale || j.result != nil {
		// A concurrent caller already moved or satisfied the job.
		c.mu.Unlock()
		return &client.APIError{Status: http.StatusServiceUnavailable, Code: serve.CodeUnavailable,
			Message: "job is re-executing; retry", Reason: "reexecuting", RetryAfter: time.Second}
	}
	if j.terminal {
		// A done job whose result is still owed runs again.
		j.terminal = false
		c.finished = slices.DeleteFunc(c.finished, func(f *cjob) bool { return f == j })
	}
	j.resubmits++
	c.mu.Unlock()
	if _, _, err := c.routeSubmit(j, nil); err != nil {
		c.met.resubmitLost.Inc()
		return &client.APIError{Status: http.StatusServiceUnavailable, Code: serve.CodeUnavailable,
			Message: fmt.Sprintf("replica lost the job and re-submission failed: %v", err),
			Reason:  "cluster_unavailable", RetryAfter: time.Second}
	}
	c.met.resubmits.Inc()
	c.log.Warn("job re-executed after replica state loss", "job", j.id, "to", j.at.replica)
	return &client.APIError{Status: http.StatusServiceUnavailable, Code: serve.CodeUnavailable,
		Message: "replica lost the job; re-executing", Reason: "reexecuting", RetryAfter: time.Second}
}

// Cancel forwards a cancellation to the job's replica. A terminal job
// answers with its view. A job its replica no longer knows ends
// canceled here: whatever ran there is lost, and the client asked for
// it to stop.
func (c *Coordinator) Cancel(id string) (serve.JobView, *client.APIError) {
	c.mu.Lock()
	j := c.jobs[id]
	if j == nil {
		c.mu.Unlock()
		return serve.JobView{}, errUnknownJob
	}
	if j.terminal {
		v := c.clientViewLocked(j)
		c.mu.Unlock()
		return v, nil
	}
	c.mu.Unlock()

	var rv *serve.JobView
	ans, at, _, apiErr := c.onReplica(j, func(ctx context.Context, cl *client.Client, remoteID string) (err error) {
		rv, err = cl.Cancel(ctx, remoteID)
		return err
	})
	if apiErr != nil {
		return serve.JobView{}, apiErr
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if ans == notFound {
		if !j.terminal {
			j.view.State = serve.StateCanceled
			j.view.Error = fmt.Sprintf("canceled; replica %s no longer knows the job", at.replica)
			c.retireLocked(j)
		}
	} else {
		c.observeLocked(j, at, *rv)
	}
	return c.clientViewLocked(j), nil
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
	slices.SortFunc(ids, func(a, b *cjob) int { return strings.Compare(b.id, a.id) })
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
	Name        string       `json:"name"`
	URL         string       `json:"url"`
	State       string       `json:"state"`
	Probes      int64        `json:"probes"`
	ProbeFails  int64        `json:"probe_failures,omitempty"`
	LastError   string       `json:"last_error,omitempty"`
	Transitions []Transition `json:"transitions,omitempty"`
}

// Membership renders the fleet's health for /healthz.
func (c *Coordinator) Membership() []ReplicaView {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ReplicaView, 0, len(c.order))
	for _, name := range c.order {
		r := c.replicas[name]
		out = append(out, ReplicaView{
			Name:        r.name,
			URL:         r.url,
			State:       r.state,
			Probes:      r.probes,
			ProbeFails:  r.probeFails,
			LastError:   r.lastErr,
			Transitions: append([]Transition(nil), r.transitions...),
		})
	}
	return out
}

// Tenants merges the per-tenant accounting of every reachable replica
// (rows summed by tenant name; gauges like Queued/Running add, quotas
// and weight take the first replica's value — the fleet is homogeneous).
func (c *Coordinator) Tenants() []serve.TenantView {
	merged := map[string]*serve.TenantView{}
	for _, name := range c.order {
		r := c.replicas[name]
		c.mu.Lock()
		routable := r.routableLocked()
		c.mu.Unlock()
		if !routable {
			continue
		}
		var rows []serve.TenantView
		err := c.call(r, func(ctx context.Context) error {
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
				merged[row.Name] = &row
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
	out := make([]serve.TenantView, 0, len(merged))
	for _, m := range merged {
		out = append(out, *m)
	}
	slices.SortFunc(out, func(a, b serve.TenantView) int { return strings.Compare(a.Name, b.Name) })
	return out
}
