package serve_test

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"flatdd/internal/faults"
	"flatdd/internal/obs"
	"flatdd/internal/serve"
	"flatdd/internal/serve/client"
)

// hQASM puts 5 qubits in uniform superposition: 32 equally likely
// outcomes, so two independent seeded shot streams are distinguishable
// with overwhelming probability (unlike the bell pair's 2 outcomes).
const hQASM = `
OPENQASM 2.0;
include "qelib1.inc";
qreg q[5];
h q[0]; h q[1]; h q[2]; h q[3]; h q[4];
`

// TestCacheHitServedWithoutEngine is the tentpole's acceptance test: a
// repeat submission completes straight from the result cache — done in
// the submit response, no engine run, no run/phase spans — and its
// result (amplitudes and seeded shots) is identical to the fresh
// simulation that populated the cache.
func TestCacheHitServedWithoutEngine(t *testing.T) {
	h := newTestServer(t, serve.Config{Threads: 2})
	ctx := context.Background()

	first := h.submit(&serve.SubmitRequest{QASM: bellQASM, Shots: 500, Seed: 7, Top: 4})
	if first.Cache != serve.CacheMiss {
		t.Fatalf("first submission cache = %q, want miss", first.Cache)
	}
	h.waitState(first.ID, serve.StateDone)
	fresh, err := h.c.Result(ctx, first.ID)
	if err != nil {
		t.Fatal(err)
	}
	reg := h.reg
	if got := reg.Counter("serve.engine.runs").Value(); got != 1 {
		t.Fatalf("serve.engine.runs = %d after one job, want 1", got)
	}

	second := h.submit(&serve.SubmitRequest{QASM: bellQASM, Shots: 500, Seed: 7, Top: 4})
	if second.Cache != serve.CacheHit {
		t.Fatalf("repeat submission cache = %q, want hit", second.Cache)
	}
	if second.State != serve.StateDone {
		t.Fatalf("hit job state = %q in the submit response, want done", second.State)
	}
	hit, err := h.c.Result(ctx, second.ID)
	if err != nil {
		t.Fatalf("hit result not immediately readable: %v", err)
	}
	if got := reg.Counter("serve.engine.runs").Value(); got != 1 {
		t.Fatalf("serve.engine.runs = %d after the hit, want still 1", got)
	}
	if got := reg.Counter("serve.cache.hits").Value(); got != 1 {
		t.Fatalf("serve.cache.hits = %d, want 1", got)
	}

	// The hit agrees with the fresh simulation: same top amplitudes (to
	// 1e-9) and, with the same seed, the identical shot stream.
	if hit.Cache != serve.CacheHit || hit.Tenant != serve.DefaultTenant {
		t.Errorf("hit result disposition/tenant = %q/%q", hit.Cache, hit.Tenant)
	}
	if len(hit.Top) != len(fresh.Top) {
		t.Fatalf("top sizes differ: %d vs %d", len(hit.Top), len(fresh.Top))
	}
	freshP := map[string]float64{}
	for _, a := range fresh.Top {
		freshP[a.Basis] = a.Probability
	}
	for _, a := range hit.Top {
		want, ok := freshP[a.Basis]
		if !ok || math.Abs(a.Probability-want) > 1e-9 {
			t.Errorf("P(%s) = %v from cache, %v fresh", a.Basis, a.Probability, want)
		}
	}
	if !reflect.DeepEqual(hit.Shots, fresh.Shots) {
		t.Errorf("same seed drew different shots: %v vs %v", hit.Shots, fresh.Shots)
	}

	// A different sampling seed still hits, with its own stream.
	reseeded := h.submit(&serve.SubmitRequest{QASM: bellQASM, Shots: 500, Seed: 8, Top: 4})
	if reseeded.Cache != serve.CacheHit {
		t.Fatalf("reseeded submission cache = %q, want hit", reseeded.Cache)
	}

	// The flight recorder confirms the engine never saw the hit: its span
	// tree is the bare job span — no queued, run, or phase spans.
	code, raw := h.do("GET", "/debug/jobs?id="+second.ID, nil)
	if code != 200 {
		t.Fatalf("/debug/jobs for the hit job: %d %s", code, raw)
	}
	var jt obs.JobTrace
	if err := json.Unmarshal(raw, &jt); err != nil {
		t.Fatal(err)
	}
	for _, sp := range jt.Spans {
		if sp.Name != "job" {
			t.Errorf("hit job recorded span %q; engine-side spans must be absent", sp.Name)
		}
	}
}

// TestCacheCoalescing queues one simulation and submits duplicates of it
// behind a blocker, on both sides of the coalescing condition. A shot-less
// duplicate always coalesces. A shots>0 duplicate coalesces when its
// 8·2^n-byte distribution fits ResultCacheMaxEntry: the engine runs once,
// every subscriber completes from the leader's entry and draws its own
// seeded stream, and the leader's seed reproduces the leader's fresh run.
// When the distribution does not fit, each shots>0 duplicate runs as its
// own miss and still draws the fresh run's stream for the same seed.
func TestCacheCoalescing(t *testing.T) {
	for _, tc := range []struct {
		name     string
		maxEntry int64 // ResultCacheMaxEntry; hQASM's distribution is 256 B
		shotsDup string
	}{
		{"distribution fits", 0, serve.CacheCoalesced},
		{"distribution too large", 128, serve.CacheMiss},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newTestServer(t, serve.Config{Threads: 2, MaxInFlight: 1, QueueDepth: 16,
				ResultCacheMaxEntry: tc.maxEntry})
			ctx := context.Background()

			blocker := h.submit(slowSubmit(1))
			h.waitState(blocker.ID, serve.StateRunning)

			leader := h.submit(&serve.SubmitRequest{QASM: hQASM, Shots: 200, Seed: 1})
			if leader.Cache != serve.CacheMiss {
				t.Fatalf("leader cache = %q, want miss", leader.Cache)
			}
			topOnly := h.submit(&serve.SubmitRequest{QASM: hQASM, Top: 3})
			if topOnly.Cache != serve.CacheCoalesced {
				t.Fatalf("shot-less duplicate cache = %q, want coalesced", topOnly.Cache)
			}
			sameSeed := h.submit(&serve.SubmitRequest{QASM: hQASM, Shots: 200, Seed: 1})
			subA := h.submit(&serve.SubmitRequest{QASM: hQASM, Shots: 200, Seed: 2})
			subB := h.submit(&serve.SubmitRequest{QASM: hQASM, Shots: 200, Seed: 3})
			for _, v := range []serve.JobView{sameSeed, subA, subB} {
				if v.Cache != tc.shotsDup {
					t.Fatalf("shots>0 duplicate cache = %q, want %s", v.Cache, tc.shotsDup)
				}
				if v.ID == leader.ID {
					t.Fatal("duplicate shares the leader's job id")
				}
			}
			coalesced, runs := int64(4), int64(2) // blocker + leader
			if tc.shotsDup == serve.CacheMiss {
				coalesced, runs = 1, 5 // and each shots>0 duplicate
			}
			reg := h.reg
			if got := reg.Counter("serve.cache.coalesced").Value(); got != coalesced {
				t.Fatalf("serve.cache.coalesced = %d, want %d", got, coalesced)
			}

			// Unblock the queue; the leader runs and completes the flight.
			h.cancel(blocker.ID)
			h.waitState(blocker.ID, serve.StateCanceled, serve.StateDone)
			for _, id := range []string{leader.ID, topOnly.ID, sameSeed.ID, subA.ID, subB.ID} {
				if v := h.waitState(id, serve.StateDone, serve.StateFailed); v.State != serve.StateDone {
					t.Fatalf("job %s: %s (%s)", id, v.State, v.Error)
				}
			}
			if got := reg.Counter("serve.engine.runs").Value(); got != runs {
				t.Fatalf("serve.engine.runs = %d, want %d", got, runs)
			}

			if r, err := h.c.Result(ctx, topOnly.ID); err != nil || len(r.Top) != 3 || r.Shots != nil {
				t.Fatalf("shot-less subscriber result: %+v, %v", r, err)
			}
			results := map[string]*serve.JobResult{}
			for name, id := range map[string]string{
				"leader": leader.ID, "sameSeed": sameSeed.ID, "subA": subA.ID, "subB": subB.ID,
			} {
				r, err := h.c.Result(ctx, id)
				if err != nil {
					t.Fatalf("result %s: %v", name, err)
				}
				total := 0
				for _, n := range r.Shots {
					total += n
				}
				if total != 200 {
					t.Fatalf("%s drew %d shots, want 200", name, total)
				}
				results[name] = r
			}
			// Duplicates sample independently: the leader's seed reproduces
			// the leader's fresh stream, different seeds draw their own.
			if !reflect.DeepEqual(results["leader"].Shots, results["sameSeed"].Shots) {
				t.Error("duplicate with the leader's seed drew a different stream")
			}
			if reflect.DeepEqual(results["subA"].Shots, results["subB"].Shots) {
				t.Error("differently seeded duplicates drew identical streams")
			}
			if results["subA"].Cache != tc.shotsDup {
				t.Errorf("duplicate result cache = %q, want %s", results["subA"].Cache, tc.shotsDup)
			}
		})
	}
}

// TestCacheCoalesceOntoRetryingLeader pins that a leader's flight
// survives a transient engine fault: a duplicate submitted while the
// leader sits in retry backoff coalesces onto it instead of queueing a
// second engine run, and completes from the successful rerun's entry.
func TestCacheCoalesceOntoRetryingLeader(t *testing.T) {
	freg := faults.New(1)
	freg.Arm(faults.SchedWorkerPanic, faults.Trigger{Nth: 1, Times: 1, Transient: true})
	// The first 96 pool tasks also sleep 250ms: the faulted attempt's
	// conversion batch takes at most 32 of them (leaf tasks of at least
	// 128 amplitudes), so the rerun sleeps through 64 or more, a second or
	// longer on four workers, long after the fixed retry backoff: the
	// duplicate lands while the leader is queued or rerunning. The cap
	// keeps the rerun's DMAV gates, which fork too, from sleeping for
	// minutes.
	freg.Arm(faults.SchedTaskSlow, faults.Trigger{Prob: 1, Times: 96, Delay: 250 * time.Millisecond})
	h := newTestServer(t, serve.Config{Threads: 4, Faults: freg})
	ctx := context.Background()

	// Same seed twice: identical canonical circuit, one cache key.
	leader := h.submit(pooledSubmit(8))
	if leader.Cache != serve.CacheMiss {
		t.Fatalf("leader cache = %q, want miss", leader.Cache)
	}
	// Wait for the fault: the leader is back in the queue with one burned
	// attempt, sitting out its backoff, or already rerunning.
	deadline := time.Now().Add(10 * time.Second)
	for {
		v, err := h.c.Job(ctx, leader.ID)
		if err != nil {
			t.Fatal(err)
		}
		if (v.State == serve.StateQueued && v.Attempts >= 1) ||
			(v.State == serve.StateRunning && v.Attempts >= 2) {
			break
		}
		if v.State == serve.StateDone || v.State == serve.StateFailed {
			t.Fatalf("leader reached %q before the injected fault was observed", v.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("leader never entered retry backoff (state %q, attempts %d)", v.State, v.Attempts)
		}
		time.Sleep(2 * time.Millisecond)
	}

	dup := h.submit(pooledSubmit(8))
	if dup.Cache != serve.CacheCoalesced {
		t.Fatalf("duplicate of a retrying leader: cache = %q, want coalesced", dup.Cache)
	}

	for _, id := range []string{leader.ID, dup.ID} {
		if v := h.waitState(id, serve.StateDone, serve.StateFailed); v.State != serve.StateDone {
			t.Fatalf("job %s: %s (%s)", id, v.State, v.Error)
		}
	}
	// Two engine executions total — the faulted attempt and the rerun; the
	// duplicate never ran.
	if got := h.reg.Counter("serve.engine.runs").Value(); got != 2 {
		t.Errorf("serve.engine.runs = %d, want 2 (fault + rerun)", got)
	}
	if got := h.reg.Counter("serve.cache.coalesced").Value(); got != 1 {
		t.Errorf("serve.cache.coalesced = %d, want 1", got)
	}
	res, err := h.c.Result(ctx, dup.ID)
	if err != nil {
		t.Fatalf("duplicate result: %v", err)
	}
	if res.Cache != serve.CacheCoalesced {
		t.Errorf("duplicate result cache = %q, want coalesced", res.Cache)
	}
}

// TestCacheInvalidationByEngineOptions pins the key derivation: engine
// options (cache mode, fusion) are part of the identity, per-request
// fields (shots, seed, top) are not.
func TestCacheInvalidationByEngineOptions(t *testing.T) {
	h := newTestServer(t, serve.Config{Threads: 2})
	first := h.submit(&serve.SubmitRequest{QASM: bellQASM, Shots: 100, Seed: 1})
	h.waitState(first.ID, serve.StateDone)

	cases := []struct {
		name string
		req  *serve.SubmitRequest
		want string
	}{
		{"different shots/seed/top", &serve.SubmitRequest{QASM: bellQASM, Shots: 7, Seed: 99, Top: 2}, serve.CacheHit},
		{"no sampling at all", &serve.SubmitRequest{QASM: bellQASM}, serve.CacheHit},
		{"different cache mode", &serve.SubmitRequest{QASM: bellQASM, Shots: 100, Seed: 1, Cache: "never"}, serve.CacheMiss},
		{"different fusion mode", &serve.SubmitRequest{QASM: bellQASM, Shots: 100, Seed: 1, Fusion: "kops"}, serve.CacheMiss},
		{"different circuit text, same canonical circuit", &serve.SubmitRequest{
			QASM: "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg r[2];\nh r[0];\ncx r[0],r[1];\n",
		}, serve.CacheHit},
	}
	for _, tc := range cases {
		v := h.submit(tc.req)
		if v.Cache != tc.want {
			t.Errorf("%s: cache = %q, want %q", tc.name, v.Cache, tc.want)
		}
		h.waitState(v.ID, serve.StateDone)
	}
}

// TestCacheDisabled pins that a negative budget switches the whole
// subsystem off: no hits, no coalescing, every job runs the engine.
func TestCacheDisabled(t *testing.T) {
	h := newTestServer(t, serve.Config{Threads: 2, ResultCacheBudget: -1})
	for i := 0; i < 2; i++ {
		v := h.submit(&serve.SubmitRequest{QASM: bellQASM})
		if v.Cache != serve.CacheMiss {
			t.Fatalf("submission %d cache = %q with caching disabled", i, v.Cache)
		}
		h.waitState(v.ID, serve.StateDone)
	}
	if got := h.reg.Counter("serve.engine.runs").Value(); got != 2 {
		t.Errorf("serve.engine.runs = %d, want 2 with caching disabled", got)
	}
	health, err := h.c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cache, ok := health["cache"].(map[string]any)
	if !ok || cache["enabled"] != false {
		t.Errorf("healthz cache block = %v, want enabled=false", health["cache"])
	}
}

// TestIdempotencyKeyReplay pins the Idempotency-Key contract: same
// tenant + key replays the original job (200, marker header), a
// different circuit under the same key conflicts, and keys are scoped
// per tenant.
func TestIdempotencyKeyReplay(t *testing.T) {
	h := newTestServer(t, serve.Config{Threads: 2})
	ctx := context.Background()
	req := &serve.SubmitRequest{QASM: bellQASM, Shots: 10, Seed: 4}

	first, err := h.c.Submit(ctx, req, client.WithIdempotencyKey("k1"))
	if err != nil {
		t.Fatal(err)
	}
	if first.Replayed {
		t.Fatal("fresh submission marked replayed")
	}
	h.waitState(first.Job.ID, serve.StateDone)

	again, err := h.c.Submit(ctx, req, client.WithIdempotencyKey("k1"))
	if err != nil {
		t.Fatal(err)
	}
	if !again.Replayed || again.Job.ID != first.Job.ID {
		t.Fatalf("replay = {replayed %v, id %s}, want the original %s", again.Replayed, again.Job.ID, first.Job.ID)
	}

	// Same key, different circuit: the service refuses to guess.
	_, err = h.c.Submit(ctx, &serve.SubmitRequest{Circuit: "ghz", N: 5}, client.WithIdempotencyKey("k1"))
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 409 || apiErr.Reason != "idempotency_mismatch" {
		t.Fatalf("conflicting replay: %v, want 409 idempotency_mismatch", err)
	}

	// Keys are per tenant: another tenant reusing "k1" gets its own job.
	other := client.New(h.ts.URL, client.WithTenant("other"))
	fresh, err := other.Submit(ctx, req, client.WithIdempotencyKey("k1"))
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Replayed || fresh.Job.ID == first.Job.ID {
		t.Fatalf("tenant isolation broken: %+v", fresh)
	}
}
