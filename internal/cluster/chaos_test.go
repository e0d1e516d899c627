// Chaos e2e suite (run via `make chaos`, race-enabled): an in-process
// 3-replica cluster where replicas can be killed (connections abort and
// the serve.Server really shuts down, losing its queue) and revived
// (a fresh serve.Server behind the same URL). The suite drives the
// coordinator through the public v1 API with the typed client and
// asserts the headline guarantee — zero lost acknowledged jobs — plus
// membership transitions, retries through a brown-out, what a replica's
// 404 means for status, result and cancel, the bounded job table, and
// bounded tail latency (every client call runs under a hard HTTP
// timeout).
//
// Fault injection is deterministic: the faults registry is seeded from
// FLATDD_CHAOS_SEED (default 1), so a failing run reproduces by
// exporting the seed it printed.
package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"flatdd/internal/cluster"
	"flatdd/internal/faults"
	"flatdd/internal/obs"
	"flatdd/internal/serve"
	"flatdd/internal/serve/client"
)

// chaosSeed feeds the faults registry; override with FLATDD_CHAOS_SEED.
func chaosSeed(t *testing.T) int64 {
	seed := int64(1)
	if s := os.Getenv("FLATDD_CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad FLATDD_CHAOS_SEED %q: %v", s, err)
		}
		seed = v
	}
	return seed
}

// chaosReplica is one killable serve replica behind a stable URL. While
// down, its handler aborts every connection (the client sees a genuine
// network error, not an HTTP status), and the underlying serve.Server
// has really been shut down — its queued jobs are gone, exactly like a
// process kill. Revive swaps in a fresh, empty serve.Server.
type chaosReplica struct {
	name string
	cfg  serve.Config
	ts   *httptest.Server

	mu      sync.Mutex
	srv     *serve.Server
	handler http.Handler
	down    bool
}

func (r *chaosReplica) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	r.mu.Lock()
	down, h := r.down, r.handler
	r.mu.Unlock()
	if down || h == nil {
		panic(http.ErrAbortHandler)
	}
	h.ServeHTTP(w, req)
}

// kill aborts the replica: new connections die at the handler and the
// serve.Server drains away its queue (canceled jobs, lost state).
func (r *chaosReplica) kill() {
	r.mu.Lock()
	if r.down {
		r.mu.Unlock()
		return
	}
	r.down = true
	srv := r.srv
	r.srv, r.handler = nil, nil
	r.mu.Unlock()
	if srv != nil {
		srv.Shutdown()
	}
}

// revive brings the replica back as a fresh process: empty queue, empty
// result cache, same URL.
func (r *chaosReplica) revive() {
	srv := serve.New(r.cfg)
	r.mu.Lock()
	r.srv = srv
	r.handler = srv.Handler()
	r.down = false
	r.mu.Unlock()
}

// fleet is the in-process cluster: N chaos replicas, one coordinator,
// and a typed client pointed at the coordinator.
type fleet struct {
	t        *testing.T
	replicas []*chaosReplica
	coord    *cluster.Coordinator
	front    *httptest.Server
	c        *client.Client
	hc       *http.Client // every call in the fleet, coordinator's and test's alike
	reg      *obs.Registry
	flts     *faults.Registry
	closed   sync.Once
}

// chaosClusterConfig is tuned for test wall-clock: probes every 20ms,
// so a replica is dead after 3 failed probes (~60ms).
func chaosClusterConfig() cluster.Config {
	return cluster.Config{ProbeInterval: 20 * time.Millisecond}
}

func newFleet(t *testing.T, n int, serveCfg serve.Config, clusterCfg cluster.Config) *fleet {
	t.Helper()
	seed := chaosSeed(t)
	t.Logf("chaos seed %d (reproduce with FLATDD_CHAOS_SEED=%d)", seed, seed)
	f := &fleet{
		t:    t,
		reg:  obs.New(),
		flts: faults.New(seed),
		// Bounded tail latency is enforced structurally: every
		// coordinator→replica call and every client→coordinator call runs
		// under a hard transport timeout, so a hang anywhere fails the test.
		hc: &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{}},
	}
	t.Cleanup(f.close)
	for i := 0; i < n; i++ {
		r := &chaosReplica{name: fmt.Sprintf("r%d", i), cfg: serveCfg}
		r.revive()
		r.ts = httptest.NewServer(r)
		f.replicas = append(f.replicas, r)
		clusterCfg.Replicas = append(clusterCfg.Replicas,
			cluster.ReplicaSpec{Name: r.name, URL: r.ts.URL})
	}
	clusterCfg.Metrics = f.reg
	clusterCfg.Faults = f.flts
	clusterCfg.HTTPClient = f.hc
	coord, err := cluster.New(clusterCfg)
	if err != nil {
		t.Fatal(err)
	}
	f.coord = coord
	f.front = httptest.NewServer(coord.Handler())
	f.c = client.New(f.front.URL, client.WithHTTPClient(f.hc))
	return f
}

// close tears the fleet down: the coordinator, its front, every replica
// and the idle connections between them. It is idempotent.
func (f *fleet) close() {
	f.closed.Do(func() {
		if f.coord != nil {
			f.coord.Shutdown()
			f.front.Close()
		}
		for _, r := range f.replicas {
			r.ts.Close()
			r.kill()
		}
		f.hc.Transport.(*http.Transport).CloseIdleConnections()
	})
}

// replicaClient is a typed client that talks to one replica directly,
// bypassing the coordinator.
func (f *fleet) replicaClient(i int) *client.Client {
	return client.New(f.replicas[i].ts.URL, client.WithHTTPClient(f.hc))
}

// remoteID names the job the replica most recently accepted, so a test
// can watch a coordinator job on its replica without the coordinator
// seeing it.
func (f *fleet) remoteID(ctx context.Context, rc *client.Client) string {
	f.t.Helper()
	page, err := rc.Jobs(ctx, client.JobsQuery{Limit: 1})
	if err != nil || len(page.Jobs) != 1 {
		f.t.Fatalf("replica job list: %v, %v", page, err)
	}
	return page.Jobs[0].ID
}

// retire makes a replica forget a job: it waits for the job to finish
// there, then fills the replica until it answers 404.
func (f *fleet) retire(ctx context.Context, rc *client.Client, remoteID string) {
	f.t.Helper()
	if _, err := rc.Wait(ctx, remoteID, 5*time.Millisecond); err != nil {
		f.t.Fatal(err)
	}
	f.fill(ctx, rc)
	var apiErr *client.APIError
	if _, err := rc.Job(ctx, remoteID); !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		f.t.Fatalf("replica status of its retired job: %v, want 404", err)
	}
}

// fill pushes more than serve.MaxRetainedJobs jobs (cache hits after the
// first) through a replica, so it forgets every job that finished
// before.
func (f *fleet) fill(ctx context.Context, rc *client.Client) {
	f.t.Helper()
	filler := &serve.SubmitRequest{Circuit: "ghz", N: 9}
	for i := 0; i <= serve.MaxRetainedJobs; i++ {
		r, err := rc.Submit(ctx, filler)
		if err != nil {
			f.t.Fatalf("filler %d: %v", i, err)
		}
		if i == 0 {
			if _, err := rc.Wait(ctx, r.Job.ID, 5*time.Millisecond); err != nil {
				f.t.Fatal(err)
			}
		}
	}
}

// waitReplicaState polls the coordinator's membership until the named
// replica reaches the wanted state.
func (f *fleet) waitReplicaState(name, want string, timeout time.Duration) {
	f.t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		for _, rv := range f.coord.Membership() {
			if rv.Name == name && rv.State == want {
				return
			}
		}
		if time.Now().After(deadline) {
			f.t.Fatalf("replica %s never reached state %q; membership: %+v", name, want, f.coord.Membership())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// replicaOf maps a name back to its chaosReplica.
func (f *fleet) replicaOf(name string) *chaosReplica {
	for _, r := range f.replicas {
		if r.name == name {
			return r
		}
	}
	f.t.Fatalf("unknown replica %q", name)
	return nil
}

// fetchResult fetches a done job's result, retrying retryable rejections
// (a replica death between completion and fetch surfaces as a 503 until
// failover re-runs the job elsewhere).
func (f *fleet) fetchResult(ctx context.Context, id string) (*serve.JobResult, error) {
	var last error
	for i := 0; i < 40; i++ {
		res, err := f.c.Result(ctx, id)
		if err == nil {
			return res, nil
		}
		last = err
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || !apiErr.IsRetryable() {
			// not_ready means the job regressed to queued across a failover
			// re-run; wait for it to finish again.
			if apiErr == nil || apiErr.Reason != "not_ready" {
				return nil, err
			}
			if _, werr := f.c.Wait(ctx, id, 10*time.Millisecond); werr != nil {
				return nil, werr
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	return nil, last
}

func serveConfigForChaos() serve.Config {
	return serve.Config{
		Threads:     2,
		MaxInFlight: 1,
		QueueDepth:  64,
		DrainGrace:  50 * time.Millisecond,
	}
}

// TestClusterRoutesAndCompletes is the happy path: a burst of distinct
// circuits spreads across the fleet (every view names its replica) and
// every acknowledged job completes.
func TestClusterRoutesAndCompletes(t *testing.T) {
	f := newFleet(t, 3, serveConfigForChaos(), chaosClusterConfig())
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	perReplica := map[string]int{}
	var ids []string
	for i := 0; i < 12; i++ {
		resp, err := f.c.Submit(ctx, &serve.SubmitRequest{Circuit: "ghz", N: 6 + i})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if resp.Job.Replica == "" {
			t.Fatalf("job %s view has no replica", resp.Job.ID)
		}
		perReplica[resp.Job.Replica]++
		ids = append(ids, resp.Job.ID)
	}
	for _, id := range ids {
		v, err := f.c.Wait(ctx, id, 10*time.Millisecond)
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		if v.State != serve.StateDone {
			t.Fatalf("job %s finished %s (%s), want done", id, v.State, v.Error)
		}
		if _, err := f.fetchResult(ctx, id); err != nil {
			t.Fatalf("result %s: %v", id, err)
		}
	}
	if len(perReplica) < 2 {
		t.Fatalf("12 distinct circuits all routed to one replica: %v", perReplica)
	}
}

// TestClusterCacheLocality: repeat submissions of the same circuit land
// on the same replica (consistent hashing on the canonical circuit
// hash), so the second one is a result-cache hit there.
func TestClusterCacheLocality(t *testing.T) {
	f := newFleet(t, 3, serveConfigForChaos(), chaosClusterConfig())
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	req := &serve.SubmitRequest{Circuit: "ghz", N: 8, Shots: 100, Seed: 3}
	first, err := f.c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.c.Wait(ctx, first.Job.ID, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	second, err := f.c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if second.Job.Replica != first.Job.Replica {
		t.Fatalf("repeat submission routed to %s, first went to %s — locality broken",
			second.Job.Replica, first.Job.Replica)
	}
	if second.Job.Cache != serve.CacheHit {
		t.Fatalf("repeat submission cache = %q, want hit", second.Job.Cache)
	}
}

// TestClusterKillReviveMidBurst is the headline chaos scenario: a burst
// of jobs is in flight when one replica is killed for real (queue lost),
// then revived. Every acknowledged job must still reach done and yield a
// result — at-least-once failover via idempotency keys — and the killed
// replica must come back alive in the membership.
func TestClusterKillReviveMidBurst(t *testing.T) {
	f := newFleet(t, 3, serveConfigForChaos(), chaosClusterConfig())
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// First half of the burst: find a replica that owns work.
	var ids []string
	submit := func(i int) {
		resp, err := f.c.Submit(ctx, &serve.SubmitRequest{Circuit: "qft", N: 6 + i%6, Seed: int64(i)})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, resp.Job.ID)
	}
	for i := 0; i < 10; i++ {
		submit(i)
	}
	victim := ""
	for _, id := range ids {
		v, err := f.c.Job(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if v.Replica != "" {
			victim = v.Replica
			break
		}
	}
	if victim == "" {
		t.Fatal("no job carries a replica attribution")
	}

	// Kill it mid-burst and keep submitting while it is down.
	f.replicaOf(victim).kill()
	for i := 10; i < 20; i++ {
		submit(i)
	}
	f.waitReplicaState(victim, cluster.ReplicaDead, 10*time.Second)

	// Revive; the prober must walk it back to alive.
	f.replicaOf(victim).revive()
	f.waitReplicaState(victim, cluster.ReplicaAlive, 10*time.Second)

	// Zero lost acknowledged jobs: every id completes and has a result.
	for _, id := range ids {
		v, err := f.c.Wait(ctx, id, 10*time.Millisecond)
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		if v.State != serve.StateDone {
			t.Fatalf("job %s finished %s (%s / %s), want done", id, v.State, v.Reason, v.Error)
		}
		if _, err := f.fetchResult(ctx, id); err != nil {
			t.Fatalf("result %s: %v", id, err)
		}
	}
	snap := f.reg.Snapshot()
	if snap.Counters["cluster.failover.total"] == 0 {
		t.Error("no failover recorded although a replica died")
	}
	if snap.Counters["cluster.failover.lost"] != 0 {
		t.Errorf("%d jobs lost in failover, want 0", snap.Counters["cluster.failover.lost"])
	}
}

// TestClusterFailoverKeepsTrace: failover re-submits a job under the
// trace context its first replica handed back, so the survivor's copy
// continues the caller's trace. The coordinator's not-found rule relies
// on it: a replica's job under another trace ID is another job.
func TestClusterFailoverKeepsTrace(t *testing.T) {
	f := newFleet(t, 3, serveConfigForChaos(), chaosClusterConfig())
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const callerTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	// QV n=16 is still running on its replica when the replica dies.
	resp, err := f.c.Submit(ctx, &serve.SubmitRequest{Circuit: "qv", N: 16, Seed: 1, TimeoutMS: 60_000},
		client.WithTraceParent("00-"+callerTrace+"-00f067aa0ba902b7-01"))
	if err != nil {
		t.Fatal(err)
	}
	victim := resp.Job.Replica
	if victim == "" || resp.Job.Trace != callerTrace {
		t.Fatalf("submit view: replica %q, trace %q; want a replica and trace %s", victim, resp.Job.Trace, callerTrace)
	}
	f.replicaOf(victim).kill()
	f.waitReplicaState(victim, cluster.ReplicaDead, 10*time.Second)

	var v *serve.JobView
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if v, err = f.c.Job(ctx, resp.Job.ID); err != nil {
			t.Fatal(err)
		}
		if v.Replica != victim {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still placed on dead replica %s: %+v", victim, v)
		}
	}
	if v.State == serve.StateFailed {
		t.Fatalf("failover lost the job: %s / %s", v.Reason, v.Error)
	}
	for i, r := range f.replicas {
		if r.name != v.Replica {
			continue
		}
		rc := f.replicaClient(i)
		rv, err := rc.Job(ctx, f.remoteID(ctx, rc))
		if err != nil {
			t.Fatal(err)
		}
		if rv.Trace != callerTrace {
			t.Fatalf("survivor %s runs the job under trace %s, want the caller's %s", v.Replica, rv.Trace, callerTrace)
		}
		return
	}
	t.Fatalf("coordinator places the job on unknown replica %q", v.Replica)
}

// TestClusterInjectedReplicaDown drives the membership state machine
// through the faults registry instead of a real kill: the per-replica
// cluster.replica.down point makes probes and RPCs fail while armed.
func TestClusterInjectedReplicaDown(t *testing.T) {
	f := newFleet(t, 3, serveConfigForChaos(), chaosClusterConfig())

	point := faults.ClusterReplicaDown + ".r1"
	f.flts.Arm(point, faults.Trigger{Prob: 1})
	f.waitReplicaState("r1", cluster.ReplicaDead, 10*time.Second)

	f.flts.Disarm(point)
	f.waitReplicaState("r1", cluster.ReplicaAlive, 10*time.Second)

	snap := f.reg.Snapshot()
	if snap.Counters["cluster.replica.revived"] == 0 {
		t.Error("revival not counted")
	}
	if snap.Counters["cluster.probe.failures"] == 0 {
		t.Error("probe failures not counted")
	}
}

// TestClusterBrownOutRetriesAndRecovers: a fleet-wide injected RPC fault
// while every /healthz probe still passes (a network brown-out, not a
// death). Submits retry and then fail with a relayed 503 envelope; the
// first submit after the fault clears succeeds, with no cooldown to sit
// out — the prober alone decides which replicas are routable.
func TestClusterBrownOutRetriesAndRecovers(t *testing.T) {
	f := newFleet(t, 3, serveConfigForChaos(), chaosClusterConfig())
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Bare point: every replica RPC fails; probes are unaffected, so no
	// replica dies and nothing fails over.
	f.flts.Arm(faults.ClusterRPCTimeout, faults.Trigger{Prob: 1})
	for i := 0; i < 2; i++ {
		_, err := f.c.Submit(ctx, &serve.SubmitRequest{Circuit: "ghz", N: 6 + i})
		var rejected *client.APIError
		if !errors.As(err, &rejected) {
			t.Fatalf("submit under a brown-out: %v, want a relayed API error", err)
		}
		if rejected.Status != http.StatusServiceUnavailable || rejected.Code != serve.CodeUnavailable {
			t.Fatalf("relayed rejection = %d %s, want 503 %s", rejected.Status, rejected.Code, serve.CodeUnavailable)
		}
	}
	if got := f.reg.Counter("cluster.rpc.retries").Value(); got == 0 {
		t.Error("no retries recorded under a persistent RPC fault")
	}
	for _, rv := range f.coord.Membership() {
		if rv.State == cluster.ReplicaDead {
			t.Errorf("replica %s is dead during a brown-out its probes pass", rv.Name)
		}
	}

	f.flts.Disarm(faults.ClusterRPCTimeout)
	resp, err := f.c.Submit(ctx, &serve.SubmitRequest{Circuit: "ghz", N: 9})
	if err != nil {
		t.Fatalf("first submit after the fault cleared: %v", err)
	}
	if _, err := f.c.Wait(ctx, resp.Job.ID, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
}

// TestClusterSlowRPCJitter: injected stragglers delay RPCs but bounded
// timeouts keep the cluster live — jobs still complete.
func TestClusterSlowRPCJitter(t *testing.T) {
	f := newFleet(t, 3, serveConfigForChaos(), chaosClusterConfig())
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	f.flts.Arm(faults.ClusterRPCSlow, faults.Trigger{Prob: 0.3, Delay: 30 * time.Millisecond})
	for i := 0; i < 8; i++ {
		resp, err := f.c.Submit(ctx, &serve.SubmitRequest{Circuit: "bv", N: 8 + i%4})
		if err != nil {
			t.Fatalf("submit under jitter: %v", err)
		}
		v, err := f.c.Wait(ctx, resp.Job.ID, 10*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if v.State != serve.StateDone {
			t.Fatalf("job %s finished %s, want done", v.ID, v.State)
		}
	}
}

// TestCoordinatorIdempotency: the coordinator replays its own
// idempotency keys without re-routing.
func TestCoordinatorIdempotency(t *testing.T) {
	f := newFleet(t, 3, serveConfigForChaos(), chaosClusterConfig())
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	req := &serve.SubmitRequest{Circuit: "ghz", N: 10}
	first, err := f.c.Submit(ctx, req, client.WithIdempotencyKey("chaos-key-1"))
	if err != nil {
		t.Fatal(err)
	}
	if first.Replayed {
		t.Fatal("first submission flagged as replayed")
	}
	second, err := f.c.Submit(ctx, req, client.WithIdempotencyKey("chaos-key-1"))
	if err != nil {
		t.Fatal(err)
	}
	if !second.Replayed {
		t.Fatal("second submission with the same key was not replayed")
	}
	if second.Job.ID != first.Job.ID {
		t.Fatalf("replay returned job %s, want %s", second.Job.ID, first.Job.ID)
	}
}

// TestCoordinatorServesTerminalViewsDuringOutage: a job that completed
// (and whose result crossed the coordinator once) stays fully readable
// after its replica dies — terminal views and cached results never
// disappear with a replica.
func TestCoordinatorServesTerminalViewsDuringOutage(t *testing.T) {
	f := newFleet(t, 3, serveConfigForChaos(), chaosClusterConfig())
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	resp, err := f.c.Submit(ctx, &serve.SubmitRequest{Circuit: "ghz", N: 8, Shots: 50})
	if err != nil {
		t.Fatal(err)
	}
	id := resp.Job.ID
	done, err := f.c.Wait(ctx, id, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	res1, err := f.fetchResult(ctx, id)
	if err != nil {
		t.Fatal(err)
	}

	f.replicaOf(done.Replica).kill()
	f.waitReplicaState(done.Replica, cluster.ReplicaDead, 10*time.Second)

	v, err := f.c.Job(ctx, id)
	if err != nil {
		t.Fatalf("status of a terminal job during outage: %v", err)
	}
	if v.State != serve.StateDone {
		t.Fatalf("terminal state regressed to %s during outage", v.State)
	}
	res2, err := f.c.Result(ctx, id)
	if err != nil {
		t.Fatalf("cached result unavailable during outage: %v", err)
	}
	if res1.Stats.Gates != res2.Stats.Gates || len(res1.Top) != len(res2.Top) {
		t.Fatal("cached result differs from the original fetch")
	}

	// The merged tenants view must also survive one dead replica.
	if _, err := f.c.Tenants(ctx); err != nil {
		t.Fatalf("tenants view during outage: %v", err)
	}
}

// TestCoordinatorReexecutesJobTheReplicaRetired: a replica keeps only
// its last serve.MaxRetainedJobs terminal jobs. A job that finished there
// unobserved and was then pushed out by newer ones answers 404 on the
// replica; the coordinator's next status poll must re-execute it, not
// report its last cached state (queued) forever.
func TestCoordinatorReexecutesJobTheReplicaRetired(t *testing.T) {
	f := newFleet(t, 1, serveConfigForChaos(), chaosClusterConfig())
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	resp, err := f.c.Submit(ctx, &serve.SubmitRequest{Circuit: "ghz", N: 8})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Job.State != serve.StateQueued {
		t.Fatalf("submission state %q, want queued", resp.Job.State)
	}
	rc := f.replicaClient(0)
	f.retire(ctx, rc, f.remoteID(ctx, rc))

	v, err := f.c.Wait(ctx, resp.Job.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("coordinator wait on a retired job: %v", err)
	}
	if v.State != serve.StateDone {
		t.Fatalf("job finished %s (%s), want done", v.State, v.Error)
	}
	if _, err := f.fetchResult(ctx, resp.Job.ID); err != nil {
		t.Fatalf("result: %v", err)
	}
	if got := f.reg.Counter("cluster.failover.resubmitted").Value(); got < 1 {
		t.Errorf("cluster.failover.resubmitted = %d, want ≥ 1", got)
	}
}

// TestCoordinatorCancelsJobTheReplicaRetired: canceling a job whose
// replica has retired it ends the job canceled (200), not a relayed 404
// for a job the coordinator still lists.
func TestCoordinatorCancelsJobTheReplicaRetired(t *testing.T) {
	f := newFleet(t, 1, serveConfigForChaos(), chaosClusterConfig())
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	resp, err := f.c.Submit(ctx, &serve.SubmitRequest{Circuit: "ghz", N: 8})
	if err != nil {
		t.Fatal(err)
	}
	rc := f.replicaClient(0)
	f.retire(ctx, rc, f.remoteID(ctx, rc))

	v, err := f.c.Cancel(ctx, resp.Job.ID)
	if err != nil {
		t.Fatalf("cancel of a retired job: %v, want 200", err)
	}
	if v.State != serve.StateCanceled {
		t.Fatalf("canceled view state %s, want %s", v.State, serve.StateCanceled)
	}
	if v, err = f.c.Job(ctx, resp.Job.ID); err != nil || v.State != serve.StateCanceled {
		t.Fatalf("status after cancel: %+v, %v; want canceled", v, err)
	}
}

// TestCoordinatorResultOfCanceledRetiredJob: a canceled job's result is
// answered from the coordinator's own view with the replica's 409
// job_canceled, even after the replica retired the job — never a re-run.
func TestCoordinatorResultOfCanceledRetiredJob(t *testing.T) {
	f := newFleet(t, 1, serveConfigForChaos(), chaosClusterConfig())
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// A long job on the replica's only slot keeps the next one queued.
	rc := f.replicaClient(0)
	blocker, err := rc.Submit(ctx, &serve.SubmitRequest{Circuit: "qv", N: 16, Seed: 1, TimeoutMS: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := f.c.Submit(ctx, &serve.SubmitRequest{Circuit: "ghz", N: 8})
	if err != nil {
		t.Fatal(err)
	}
	remoteID := f.remoteID(ctx, rc)
	v, err := f.c.Cancel(ctx, resp.Job.ID)
	if err != nil || v.State != serve.StateCanceled {
		t.Fatalf("cancel of a queued job: %+v, %v; want canceled", v, err)
	}
	if _, err := rc.Cancel(ctx, blocker.Job.ID); err != nil {
		t.Fatal(err)
	}
	f.retire(ctx, rc, remoteID)

	_, err = f.c.Result(ctx, resp.Job.ID)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusConflict || apiErr.Reason != "job_canceled" {
		t.Fatalf("result of a canceled, retired job: %v; want 409 job_canceled", err)
	}
	if got := f.reg.Counter("cluster.failover.resubmitted").Value(); got != 0 {
		t.Errorf("cluster.failover.resubmitted = %d, want 0: a canceled job never re-runs", got)
	}
}

// TestCoordinatorResultOfJobLostInFailover: a job whose replica died with
// no survivor to take it over is failed for good, so its result answers
// 409 job_failed, not a retryable 503.
func TestCoordinatorResultOfJobLostInFailover(t *testing.T) {
	f := newFleet(t, 1, serveConfigForChaos(), chaosClusterConfig())
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	resp, err := f.c.Submit(ctx, &serve.SubmitRequest{Circuit: "ghz", N: 8})
	if err != nil {
		t.Fatal(err)
	}
	f.replicas[0].kill()
	f.waitReplicaState("r0", cluster.ReplicaDead, 10*time.Second)
	v, err := f.c.Wait(ctx, resp.Job.ID, 10*time.Millisecond)
	if err != nil || v.State != serve.StateFailed {
		t.Fatalf("job after its only replica died: %+v, %v; want failed", v, err)
	}

	_, err = f.c.Result(ctx, resp.Job.ID)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusConflict || apiErr.Reason != "job_failed" {
		t.Fatalf("result of a job lost in failover: %v; want 409 job_failed", err)
	}
}

// TestCoordinatorUnknownJob: an id the coordinator never issued answers
// 404 with the reason a replica gives, on every per-job route.
func TestCoordinatorUnknownJob(t *testing.T) {
	f := newFleet(t, 1, serveConfigForChaos(), chaosClusterConfig())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	for _, tc := range []struct {
		name string
		call func() error
	}{
		{"status", func() error { _, err := f.c.Job(ctx, "cj-999999"); return err }},
		{"result", func() error { _, err := f.c.Result(ctx, "cj-999999"); return err }},
		{"cancel", func() error { _, err := f.c.Cancel(ctx, "cj-999999"); return err }},
	} {
		var apiErr *client.APIError
		if err := tc.call(); !errors.As(err, &apiErr) ||
			apiErr.Status != http.StatusNotFound || apiErr.Code != serve.CodeNotFound || apiErr.Reason != "unknown_job" {
			t.Errorf("%s of an unknown id: %v; want 404 %s unknown_job", tc.name, err, serve.CodeNotFound)
		}
	}
}

// TestCoordinatorJobTableIsBounded: the coordinator keeps its newest
// serve.MaxRetainedJobs terminal jobs, as a replica does. An evicted id
// answers 404, and its idempotency key admits a new job; a retained
// job's key still replays.
func TestCoordinatorJobTableIsBounded(t *testing.T) {
	f := newFleet(t, 1, serveConfigForChaos(), chaosClusterConfig())
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	req := &serve.SubmitRequest{Circuit: "ghz", N: 9}
	first, err := f.c.Submit(ctx, req, client.WithIdempotencyKey("oldest"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.c.Wait(ctx, first.Job.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Repeats are cache hits: done, and so terminal, at submission.
	var last *client.SubmitResponse
	for i := 0; i < serve.MaxRetainedJobs; i++ {
		if last, err = f.c.Submit(ctx, req, client.WithIdempotencyKey(fmt.Sprintf("filler-%d", i))); err != nil {
			t.Fatalf("filler %d: %v", i, err)
		}
		if last.Job.State != serve.StateDone {
			t.Fatalf("filler %d is %s, want a done cache hit", i, last.Job.State)
		}
	}

	health, err := f.c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if jobs := int(health["jobs"].(float64)); jobs != serve.MaxRetainedJobs {
		t.Errorf("coordinator holds %d jobs after %d terminal ones, want %d",
			jobs, serve.MaxRetainedJobs+1, serve.MaxRetainedJobs)
	}
	if page, err := f.c.Jobs(ctx, client.JobsQuery{}); err != nil || len(page.Jobs) != serve.MaxRetainedJobs {
		t.Errorf("job list: %d jobs, %v; want %d", len(page.Jobs), err, serve.MaxRetainedJobs)
	}
	var apiErr *client.APIError
	if _, err := f.c.Job(ctx, first.Job.ID); !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Errorf("status of the evicted job: %v, want 404", err)
	}
	again, err := f.c.Submit(ctx, req, client.WithIdempotencyKey("oldest"))
	if err != nil {
		t.Fatal(err)
	}
	if again.Replayed || again.Job.ID == first.Job.ID {
		t.Errorf("evicted job's key replayed %s (replayed=%v), want a new job", again.Job.ID, again.Replayed)
	}
	key := fmt.Sprintf("filler-%d", serve.MaxRetainedJobs-1)
	replay, err := f.c.Submit(ctx, req, client.WithIdempotencyKey(key))
	if err != nil {
		t.Fatal(err)
	}
	if !replay.Replayed || replay.Job.ID != last.Job.ID {
		t.Errorf("retained job's key gave %s (replayed=%v), want a replay of %s", replay.Job.ID, replay.Replayed, last.Job.ID)
	}
}

// TestClusterChurn is the seeded model test of the coordinator: a random
// run of submits, duplicate-key submits, cancels, replica kills and
// revivals, and one retire-by-filler pass on a replica. Every
// acknowledged job must end terminal and stay listed (a done one with
// its own result, not that of a job a restarted replica gave its remote
// id to), none may vanish, and Shutdown must leave no goroutine behind.
// The op sequence comes from FLATDD_CHAOS_SEED.
func TestClusterChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("churn pushes over a thousand filler jobs through a replica")
	}
	base := runtime.NumGoroutine()
	f := newFleet(t, 3, serveConfigForChaos(), chaosClusterConfig())
	rng := rand.New(rand.NewSource(chaosSeed(t)))
	ctx, cancel := context.WithTimeout(context.Background(), 240*time.Second)
	defer cancel()

	type acked struct {
		id, key string
		req     *serve.SubmitRequest
	}
	var jobs []acked
	down := map[int]bool{}
	const ops = 60
	retireAt := rng.Intn(ops)
	for op := 0; op < ops; op++ {
		if op == retireAt {
			// Make one live replica forget everything it has finished.
			i := rng.Intn(3)
			for down[i] {
				i = (i + 1) % 3
			}
			f.fill(ctx, f.replicaClient(i))
			continue
		}
		switch k := rng.Intn(10); {
		case k < 4 || len(jobs) == 0: // submit
			req := &serve.SubmitRequest{Circuit: "qft", N: 6 + rng.Intn(6), Seed: rng.Int63n(4)}
			key := fmt.Sprintf("churn-%d", op)
			resp, err := f.c.Submit(ctx, req, client.WithIdempotencyKey(key))
			if err != nil {
				t.Fatalf("op %d: submit with %d of 3 replicas down: %v", op, len(down), err)
			}
			jobs = append(jobs, acked{resp.Job.ID, key, req})
		case k < 6: // duplicate-key submit
			j := jobs[rng.Intn(len(jobs))]
			resp, err := f.c.Submit(ctx, j.req, client.WithIdempotencyKey(j.key))
			if err != nil || !resp.Replayed || resp.Job.ID != j.id {
				t.Fatalf("op %d: resubmit of %s under its key: %+v, %v; want a replay", op, j.id, resp, err)
			}
		case k < 8: // cancel
			j := jobs[rng.Intn(len(jobs))]
			_, err := f.c.Cancel(ctx, j.id)
			var apiErr *client.APIError
			if err != nil && (!errors.As(err, &apiErr) || apiErr.Status == http.StatusNotFound) {
				t.Fatalf("op %d: cancel of acknowledged job %s: %v", op, j.id, err)
			}
		case k < 9: // kill, keeping one replica up
			if i := rng.Intn(3); !down[i] && len(down) < 2 {
				f.replicas[i].kill()
				down[i] = true
			}
		default: // revive the lowest-numbered dead replica
			for i := 0; i < 3; i++ {
				if down[i] {
					f.replicas[i].revive()
					delete(down, i)
					break
				}
			}
		}
	}
	for i := range down {
		f.replicas[i].revive()
	}
	for _, r := range f.replicas {
		f.waitReplicaState(r.name, cluster.ReplicaAlive, 10*time.Second)
	}

	states := map[string]int{}
	for _, j := range jobs {
		v, err := f.c.Wait(ctx, j.id, 10*time.Millisecond)
		if err != nil {
			t.Fatalf("acknowledged job %s: %v", j.id, err)
		}
		states[v.State]++
		if v.State == serve.StateDone {
			res, err := f.fetchResult(ctx, j.id)
			if err != nil {
				t.Fatalf("result of done job %s: %v", j.id, err)
			}
			if len(res.Top) == 0 || len(res.Top[0].Basis) != j.req.N {
				t.Fatalf("result of done job %s (qft n=%d) is another job's: %+v", j.id, j.req.N, res.Top)
			}
		}
	}
	page, err := f.c.Jobs(ctx, client.JobsQuery{})
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, v := range page.Jobs {
		listed[v.ID] = true
	}
	for _, j := range jobs {
		if !listed[j.id] {
			t.Errorf("acknowledged job %s vanished from the job list", j.id)
		}
	}
	t.Logf("%d acknowledged jobs ended %v", len(jobs), states)

	f.close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Shutdown, %d before the fleet", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
