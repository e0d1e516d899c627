package serve_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"flatdd/internal/faults"
	"flatdd/internal/obs"
	"flatdd/internal/serve"
	"flatdd/internal/serve/client"
)

// TestShutdownReturnsGoroutinesToBaseline pins the server's lifecycle
// invariant: after jobs have completed, a running job was canceled, the
// listener and the client's idle connections are closed and Shutdown has
// returned, every goroutine the server started (runners, pool workers,
// per-job watchers) has exited.
func TestShutdownReturnsGoroutinesToBaseline(t *testing.T) {
	base := runtime.NumGoroutine()

	srv := serve.New(serve.Config{Threads: 2})
	ts := httptest.NewServer(srv.Handler())
	tr := &http.Transport{}
	t.Cleanup(func() {
		ts.Close()
		tr.CloseIdleConnections()
		if !srv.Draining() {
			srv.Shutdown()
		}
	})
	h := &testServer{srv: srv, ts: ts, c: client.New(ts.URL, client.WithHTTPClient(&http.Client{Transport: tr})), t: t}

	for n := 4; n <= 6; n++ {
		v := h.submit(&serve.SubmitRequest{Circuit: "ghz", N: n})
		h.waitState(v.ID, serve.StateDone)
	}
	slow := h.submit(slowSubmit(1))
	h.waitState(slow.ID, serve.StateRunning, serve.StateDone)
	h.cancel(slow.ID)
	h.waitState(slow.ID, serve.StateCanceled, serve.StateDone)

	ts.Close()
	tr.CloseIdleConnections()
	srv.Shutdown()

	deadline := time.Now().Add(5 * time.Second)
	for {
		got := runtime.NumGoroutine()
		if got <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%d goroutines 5s after Shutdown, baseline %d; stacks:\n%s", got, base, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFaultLifecycleChurn is serve's seeded lifecycle model test. Two
// tenants, with the result cache on, submit unique jobs, duplicates (a
// cache hit once the original is done, a coalesced subscriber while it
// is in flight) and Idempotency-Key replays; they cancel queued, running
// and coalesced jobs; an armed transient worker fault makes some jobs
// retry; and Shutdown drains whatever is left. Afterwards every job the
// client saw is terminal and the books balance: serve.jobs.submitted is
// completed + failed + canceled globally and summed over /v1/tenants,
// each of those counters is the number of jobs the client saw end that
// way, nothing is running or reserved, /healthz observed one e2e latency
// per job, and the goroutines are back to baseline. The seed is logged
// on failure; FLATDD_CHURN_SEED replays it.
func TestFaultLifecycleChurn(t *testing.T) {
	seed := churnSeed(t)
	rng := rand.New(rand.NewSource(seed))
	base := runtime.NumGoroutine()

	freg := faults.New(seed)
	freg.Arm(faults.SchedWorkerPanic, faults.Trigger{Prob: 0.01, Times: 4, Transient: true})
	reg := obs.New()
	srv := serve.New(serve.Config{Threads: 2, MaxInFlight: 2, QueueDepth: 256,
		DrainGrace: 100 * time.Millisecond, Faults: freg, Metrics: reg})
	ts := httptest.NewServer(srv.Handler())
	tr := &http.Transport{}
	t.Cleanup(func() {
		ts.Close()
		tr.CloseIdleConnections()
		if !srv.Draining() {
			srv.Shutdown()
		}
	})
	ctx := context.Background()
	tenants := []string{"red", "blue"}
	clients := map[string]*client.Client{}
	for _, name := range tenants {
		clients[name] = client.New(ts.URL, client.WithTenant(name),
			client.WithHTTPClient(&http.Client{Transport: tr}))
	}

	type keyed struct {
		tenant, key, id string
		req             *serve.SubmitRequest
	}
	var (
		uniques []*serve.SubmitRequest // requests with their own circuit
		keys    []keyed                // Idempotency-Keys in use
		ids     []string               // every job the client was handed
		seen    = map[string]bool{}
		tally   = map[string]int{} // submit dispositions and cancel kinds
	)
	submit := func(tenant string, req *serve.SubmitRequest, opts ...client.SubmitOption) *client.SubmitResponse {
		t.Helper()
		resp, err := clients[tenant].Submit(ctx, req, opts...)
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		if !seen[resp.Job.ID] {
			seen[resp.Job.ID] = true
			ids = append(ids, resp.Job.ID)
		}
		return resp
	}
	for op := 0; op < 80; op++ {
		tenant := tenants[rng.Intn(len(tenants))]
		switch r := rng.Intn(10); {
		case r < 4 || len(uniques) == 0:
			// n=12 batches onto the pool, where the fault fires; n=10 stays
			// off it. The seed makes the circuit unique.
			req := &serve.SubmitRequest{Circuit: "qv", N: 10 + 2*rng.Intn(2),
				Seed: int64(len(uniques) + 1), Shots: 50 * rng.Intn(2), TimeoutMS: 60_000}
			uniques = append(uniques, req)
			if rng.Intn(3) > 0 {
				tally["submit."+submit(tenant, req).Job.Cache]++
				break
			}
			key := fmt.Sprintf("key-%d", op)
			resp := submit(tenant, req, client.WithIdempotencyKey(key))
			tally["submit."+resp.Job.Cache]++
			keys = append(keys, keyed{tenant: tenant, key: key, id: resp.Job.ID, req: req})
		case r < 6 || len(keys) == 0:
			// Same circuit and engine options, its own top= and shots.
			dup := *uniques[rng.Intn(len(uniques))]
			dup.Top, dup.Shots = 1+rng.Intn(8), 50*rng.Intn(2)
			tally["submit."+submit(tenant, &dup).Job.Cache]++
		case r < 7:
			k := keys[rng.Intn(len(keys))]
			resp := submit(k.tenant, k.req, client.WithIdempotencyKey(k.key))
			if !resp.Replayed || resp.Job.ID != k.id {
				t.Fatalf("replay of key %s: job %s replayed %v, want %s", k.key, resp.Job.ID, resp.Replayed, k.id)
			}
			tally["replay"]++
		default:
			// Cancel a live job of one kind, if there is one.
			kind := []string{serve.StateQueued, serve.StateRunning, serve.CacheCoalesced}[rng.Intn(3)]
			state := kind
			if kind == serve.CacheCoalesced {
				state = serve.StateQueued
			}
			l, err := clients[tenant].Jobs(ctx, client.JobsQuery{State: state, Limit: 1000})
			if err != nil {
				t.Fatalf("list: %v", err)
			}
			var live []string
			for _, v := range l.Jobs {
				if (v.Cache == serve.CacheCoalesced) == (kind == serve.CacheCoalesced) {
					live = append(live, v.ID)
				}
			}
			if len(live) == 0 {
				break
			}
			_, err = clients[tenant].Cancel(ctx, live[rng.Intn(len(live))])
			var apiErr *client.APIError
			switch {
			case err == nil:
				tally["cancel."+kind]++
			case errors.As(err, &apiErr) && apiErr.Code == serve.CodeConflict:
				tally["cancel.too_late"]++
			default:
				t.Fatalf("cancel: %v", err)
			}
		}
		time.Sleep(time.Duration(rng.Intn(4)) * time.Millisecond)
	}
	time.Sleep(time.Duration(rng.Intn(50)) * time.Millisecond)
	srv.Shutdown()

	ended := map[string]int{}
	for _, id := range ids {
		v, err := clients[tenants[0]].Job(ctx, id)
		if err != nil {
			t.Fatalf("status %s after Shutdown: %v", id, err)
		}
		switch v.State {
		case serve.StateDone, serve.StateFailed, serve.StateCanceled:
			ended[v.State]++
		default:
			t.Fatalf("job %s is %s after Shutdown", id, v.State)
		}
	}
	t.Logf("%d jobs: %v; ops %v; %d retried", len(ids), ended, tally, reg.Counter("serve.jobs.retried").Value())

	submitted := reg.Counter("serve.jobs.submitted").Value()
	if submitted != int64(len(ids)) {
		t.Errorf("serve.jobs.submitted = %d, the client was handed %d jobs", submitted, len(ids))
	}
	var sum serve.TenantView
	views, err := clients[tenants[0]].Tenants(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range views {
		if v.Submitted != v.Completed+v.Failed+v.Canceled || v.Running != 0 {
			t.Errorf("tenant %s: submitted %d, completed %d + failed %d + canceled %d, running %d",
				v.Name, v.Submitted, v.Completed, v.Failed, v.Canceled, v.Running)
		}
		sum.Submitted += v.Submitted
		sum.Completed += v.Completed
		sum.Failed += v.Failed
		sum.Canceled += v.Canceled
	}
	if sum.Submitted != submitted {
		t.Errorf("tenants submitted %d in sum, serve.jobs.submitted = %d", sum.Submitted, submitted)
	}
	for _, c := range []struct {
		state, counter string
		tenants        int64
	}{
		{serve.StateDone, "serve.jobs.completed", sum.Completed},
		{serve.StateFailed, "serve.jobs.failed", sum.Failed},
		{serve.StateCanceled, "serve.jobs.canceled", sum.Canceled},
	} {
		got := reg.Counter(c.counter).Value()
		if got != int64(ended[c.state]) || c.tenants != got {
			t.Errorf("%s = %d, tenants sum to %d, the client saw %d jobs end %s",
				c.counter, got, c.tenants, ended[c.state], c.state)
		}
	}
	for _, g := range []string{"serve.jobs.running", "serve.mem.reserved"} {
		if v := reg.Gauge(g).Value(); v != 0 {
			t.Errorf("%s = %d after Shutdown", g, v)
		}
	}
	health, err := clients[tenants[0]].Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	e2e := health["latency"].(map[string]any)["e2e_ns"].(map[string]any)["count"].(float64)
	if int(e2e) != len(ids) || health["queued"].(float64) != 0 || health["running"].(float64) != 0 {
		t.Errorf("/healthz: e2e count %v for %d terminal jobs, queued %v, running %v",
			e2e, len(ids), health["queued"], health["running"])
	}

	ts.Close()
	tr.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%d goroutines 5s after Shutdown, baseline %d; stacks:\n%s", runtime.NumGoroutine(), base, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
