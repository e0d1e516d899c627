// Chaos e2e suite (run via `make chaos`, race-enabled): an in-process
// 3-replica cluster where replicas can be killed (connections abort and
// the serve.Server really shuts down, losing its queue) and revived
// (a fresh serve.Server behind the same URL). The suite drives the
// coordinator through the public v1 API with the typed client and
// asserts the headline guarantee — zero lost acknowledged jobs — plus
// membership transitions, breaker behaviour, and bounded tail latency
// (every client call runs under a hard HTTP timeout).
//
// Fault injection is deterministic: the faults registry is seeded from
// FLATDD_CHAOS_SEED (default 1), so a failing run reproduces by
// exporting the seed it printed.
package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
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
	t.Logf("chaos seed %d (reproduce with FLATDD_CHAOS_SEED=%d)", seed, seed)
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
	reg      *obs.Registry
	flts     *faults.Registry
}

// chaosClusterConfig is tuned for test wall-clock: probes every 20ms,
// dead after 2 consecutive failures (~60ms detection), fast retries,
// breaker cooldown short enough to recover inside a test.
func chaosClusterConfig() cluster.Config {
	return cluster.Config{
		ProbeInterval:    20 * time.Millisecond,
		ProbeTimeout:     250 * time.Millisecond,
		SuspectAfter:     1,
		DeadAfter:        2,
		RPCTimeout:       2 * time.Second,
		MaxRetries:       2,
		RetryBaseDelay:   5 * time.Millisecond,
		RetryMaxDelay:    50 * time.Millisecond,
		BreakerThreshold: 4,
		BreakerCooldown:  100 * time.Millisecond,
	}
}

func newFleet(t *testing.T, n int, serveCfg serve.Config, clusterCfg cluster.Config) *fleet {
	t.Helper()
	f := &fleet{
		t:    t,
		reg:  obs.New(),
		flts: faults.New(chaosSeed(t)),
	}
	for i := 0; i < n; i++ {
		r := &chaosReplica{name: fmt.Sprintf("r%d", i), cfg: serveCfg}
		r.revive()
		r.ts = httptest.NewServer(r)
		t.Cleanup(r.ts.Close)
		t.Cleanup(r.kill)
		f.replicas = append(f.replicas, r)
		clusterCfg.Replicas = append(clusterCfg.Replicas,
			cluster.ReplicaSpec{Name: r.name, URL: r.ts.URL})
	}
	clusterCfg.Metrics = f.reg
	clusterCfg.Faults = f.flts
	// Bounded tail latency is enforced structurally: every
	// coordinator→replica call and every client→coordinator call runs
	// under a hard transport timeout, so a hang anywhere fails the test.
	clusterCfg.HTTPClient = &http.Client{Timeout: 5 * time.Second}
	coord, err := cluster.New(clusterCfg)
	if err != nil {
		t.Fatal(err)
	}
	f.coord = coord
	t.Cleanup(coord.Shutdown)
	f.front = httptest.NewServer(coord.Handler())
	t.Cleanup(f.front.Close)
	f.c = client.New(f.front.URL, client.WithHTTPClient(&http.Client{Timeout: 5 * time.Second}))
	return f
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

// TestClusterBreakerOpensAndRecovers: a fleet-wide injected RPC fault
// opens the per-replica breakers (submits shed fast with a relayed 503
// envelope); once the fault clears, half-open probes close them and
// submissions flow again.
func TestClusterBreakerOpensAndRecovers(t *testing.T) {
	f := newFleet(t, 3, serveConfigForChaos(), chaosClusterConfig())
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Bare point: every replica RPC fails (probes are unaffected, so the
	// membership stays alive — this is a network brown-out, not a death).
	f.flts.Arm(faults.ClusterRPCTimeout, faults.Trigger{Prob: 1})
	var rejected *client.APIError
	for i := 0; i < 10; i++ {
		_, err := f.c.Submit(ctx, &serve.SubmitRequest{Circuit: "ghz", N: 6 + i})
		if err == nil {
			t.Fatal("submit succeeded although every replica RPC fails")
		}
		if !errors.As(err, &rejected) {
			t.Fatalf("submit error is not a relayed API error: %v", err)
		}
	}
	if rejected.Code != serve.CodeUnavailable {
		t.Fatalf("relayed rejection code = %s, want %s", rejected.Code, serve.CodeUnavailable)
	}
	snap := f.reg.Snapshot()
	if snap.Counters["cluster.breaker.opens"] == 0 {
		t.Error("no breaker opened under a persistent RPC fault")
	}
	if snap.Counters["cluster.rpc.retries"] == 0 {
		t.Error("no retries recorded before the breakers opened")
	}

	f.flts.Disarm(faults.ClusterRPCTimeout)
	time.Sleep(150 * time.Millisecond) // past the breaker cooldown
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := f.c.Submit(ctx, &serve.SubmitRequest{Circuit: "ghz", N: 9})
		if err == nil {
			if _, err := f.c.Wait(ctx, resp.Job.ID, 10*time.Millisecond); err != nil {
				t.Fatal(err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster never recovered after fault cleared: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
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
// its last 1,024 terminal jobs. A job that finished there unobserved and
// was then pushed out by newer ones answers 404 on the replica; the
// coordinator's next status poll must re-execute it, not report its
// last cached state (queued) forever.
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
	// Watch the job on the replica itself, so the coordinator never sees
	// it finish.
	rc := client.New(f.replicas[0].ts.URL, client.WithHTTPClient(&http.Client{Timeout: 5 * time.Second}))
	page, err := rc.Jobs(ctx, client.JobsQuery{Limit: 1})
	if err != nil || len(page.Jobs) != 1 {
		t.Fatalf("replica job list: %v, %v", page, err)
	}
	remoteID := page.Jobs[0].ID
	if _, err := rc.Wait(ctx, remoteID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	filler := &serve.SubmitRequest{Circuit: "ghz", N: 9}
	for i := 0; i <= 1024; i++ {
		r, err := rc.Submit(ctx, filler)
		if err != nil {
			t.Fatalf("filler %d: %v", i, err)
		}
		if i == 0 {
			if _, err := rc.Wait(ctx, r.Job.ID, 5*time.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
	}
	var apiErr *client.APIError
	if _, err := rc.Job(ctx, remoteID); !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("replica status of its retired job: %v, want 404", err)
	}

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
