package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"testing"
	"time"

	"flatdd/internal/dmav"
	"flatdd/internal/faults"
	"flatdd/internal/serve"
	"flatdd/internal/serve/client"
)

// pooledSubmit is the smallest workload whose conversion and DMAV phases
// batch onto the shared scheduler pool (n=12 ⇒ dim 4096, the serial
// cutoff), so injected worker faults deterministically reach it. QV
// scrambles enough that the controller converts early.
func pooledSubmit(seed int64) *serve.SubmitRequest {
	return &serve.SubmitRequest{Circuit: "qv", N: 12, Seed: seed, TimeoutMS: 60_000}
}

func TestFaultWorkerPanicFailsOnlyThatJob(t *testing.T) {
	reg := faults.New(1)
	// One non-transient worker panic: the first pooled task of whichever
	// job reaches the pool first dies; Times caps it there.
	reg.Arm(faults.SchedWorkerPanic, faults.Trigger{Nth: 1, Times: 1})
	h := newTestServer(t, serve.Config{Threads: 4, MaxRetries: -1, Faults: reg})

	a := h.submit(pooledSubmit(1))
	b := h.submit(pooledSubmit(2))
	va := h.waitState(a.ID, serve.StateDone, serve.StateFailed)
	vb := h.waitState(b.ID, serve.StateDone, serve.StateFailed)

	failed, done := va, vb
	if va.State == serve.StateDone {
		failed, done = vb, va
	}
	if failed.State != serve.StateFailed || done.State != serve.StateDone {
		t.Fatalf("states = %q/%q, want exactly one failed and one done", va.State, vb.State)
	}
	if failed.Reason != "engine_fault" {
		t.Fatalf("failed job reason = %q, want engine_fault", failed.Reason)
	}
	if failed.Error == "" {
		t.Fatal("failed job carries no error message")
	}

	// The service is still alive: /healthz reports ok and counts the
	// fault, and a fresh job completes on the same pool.
	health, err := h.c.Health(context.Background())
	if err != nil {
		t.Fatalf("healthz after fault: %v", err)
	}
	if health["status"] != "ok" {
		t.Fatalf("healthz status = %v after contained fault", health["status"])
	}
	if health["faults"].(float64) < 1 {
		t.Fatalf("healthz faults = %v, want >= 1", health["faults"])
	}
	after := h.submit(pooledSubmit(3))
	if v := h.waitState(after.ID, serve.StateDone, serve.StateFailed); v.State != serve.StateDone {
		t.Fatalf("post-fault job %s: %q (%s)", v.ID, v.State, v.Error)
	}
}

func TestFaultTransientRetrySucceeds(t *testing.T) {
	reg := faults.New(1)
	reg.Arm(faults.SchedWorkerPanic, faults.Trigger{Nth: 1, Times: 1, Transient: true})
	h := newTestServer(t, serve.Config{
		Threads: 4,
		Faults:  reg,
	})

	v := h.submit(pooledSubmit(4))
	v = h.waitState(v.ID, serve.StateDone, serve.StateFailed)
	if v.State != serve.StateDone {
		t.Fatalf("retried job ended %q (%s)", v.State, v.Error)
	}
	if v.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (one fault, one clean rerun)", v.Attempts)
	}
	if got := h.reg.Counter("serve.jobs.retried").Value(); got != 1 {
		t.Fatalf("serve.jobs.retried = %d, want 1", got)
	}
	if got := h.reg.Counter("serve.jobs.failed").Value(); got != 0 {
		t.Fatalf("serve.jobs.failed = %d, want 0", got)
	}
}

func TestFaultRetriesExhaustedFailsJob(t *testing.T) {
	reg := faults.New(1)
	// Every pooled batch dies (Prob 1 re-fires on each hit): retries burn
	// out and the job fails for good, still classified as an engine fault.
	reg.Arm(faults.SchedWorkerPanic, faults.Trigger{Prob: 1, Transient: true})
	h := newTestServer(t, serve.Config{
		Threads:    4,
		MaxRetries: 1,
		Faults:     reg,
	})

	v := h.submit(pooledSubmit(5))
	v = h.waitState(v.ID, serve.StateDone, serve.StateFailed)
	if v.State != serve.StateFailed || v.Reason != "engine_fault" {
		t.Fatalf("job = %q reason %q, want failed/engine_fault", v.State, v.Reason)
	}
	if v.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (initial + 1 retry)", v.Attempts)
	}
}

func TestFaultNumericalDriftFailsWithoutRetry(t *testing.T) {
	reg := faults.New(1)
	reg.Arm(faults.DMAVComputeCorrupt, faults.Trigger{Nth: 1, Times: 1})
	h := newTestServer(t, serve.Config{
		Threads:        4,
		IntegrityEvery: 1,
		Faults:         reg,
	})

	req := pooledSubmit(6)
	req.Cache = "never" // pin the engine on the uncached kernel the hook lives in
	v := h.submit(req)
	v = h.waitState(v.ID, serve.StateDone, serve.StateFailed)
	if v.State != serve.StateFailed || v.Reason != "numerical_drift" {
		t.Fatalf("job = %q reason %q (%s), want failed/numerical_drift", v.State, v.Reason, v.Error)
	}
	if v.Attempts != 1 {
		t.Fatalf("attempts = %d: drift must not be retried", v.Attempts)
	}
}

func TestDegradedJobSurfacedInResultAndHealth(t *testing.T) {
	reg := faults.New(1)
	reg.Arm(faults.CoreConvertAlloc, faults.Trigger{Nth: 1})
	h := newTestServer(t, serve.Config{Threads: 4, Faults: reg})

	// The failed flat-array allocation degrades the run at the conversion
	// decision, which any QV size reaches; a small register keeps the
	// forced DD-only run fast.
	v := h.submit(&serve.SubmitRequest{Circuit: "qv", N: 8, Seed: 7, TimeoutMS: 60_000})
	v = h.waitState(v.ID, serve.StateDone, serve.StateFailed)
	if v.State != serve.StateDone {
		t.Fatalf("degraded job ended %q (%s)", v.State, v.Error)
	}
	res, err := h.c.Result(context.Background(), v.ID)
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	if !res.Stats.Degraded || res.Stats.DegradedReason != "alloc_failed" {
		t.Fatalf("stats = %+v, want degraded with alloc_failed", res.Stats)
	}
	if res.Stats.ConvertedAtGate != -1 || res.Stats.FinalPhase != "dd" {
		t.Fatalf("degraded job left the DD phase: %+v", res.Stats)
	}
	health, err := h.c.Health(context.Background())
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if health["degraded"].(float64) != 1 {
		t.Fatalf("healthz degraded = %v, want 1", health["degraded"])
	}
}

func TestSubmitRejectionsCarryRetryAfterAndReason(t *testing.T) {
	h := newTestServer(t, serve.Config{
		Threads:      2,
		MaxInFlight:  1,
		QueueDepth:   1,
		MemoryBudget: dmav.FlatBytes(16, 2, dmav.Auto), // admits slowSubmit, rejects 17
	})

	// Occupy the single runner, then the single queue slot. Distinct seeds
	// keep the probes from coalescing onto the queued job.
	running := h.submit(slowSubmit(1))
	h.waitState(running.ID, serve.StateRunning)
	h.submit(slowSubmit(2))

	reject := func(req *serve.SubmitRequest) *client.APIError {
		t.Helper()
		_, err := h.c.Submit(context.Background(), req)
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) {
			t.Fatalf("submit = %v, want an *client.APIError rejection", err)
		}
		return apiErr
	}

	e := reject(slowSubmit(3))
	if e.Status != http.StatusTooManyRequests || e.RetryAfter != time.Second || e.Reason != "queue_full" {
		t.Fatalf("queue-full reject: %+v", e)
	}
	e = reject(&serve.SubmitRequest{Circuit: "ghz", N: 17})
	if e.Status != http.StatusRequestEntityTooLarge || e.Reason != "memory_budget" || e.RetryAfter != 0 {
		t.Fatalf("budget reject: %+v", e)
	}

	// The wire still carries whole-second Retry-After headers alongside
	// the envelope's milliseconds.
	body, err := json.Marshal(slowSubmit(4))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(h.ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("raw queue-full reject: %d Retry-After=%q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	// Unblock and drain, then a draining server advertises a backoff.
	h.cancel(running.ID)
	h.srv.Shutdown()
	e = reject(slowSubmit(5))
	if e.Status != http.StatusServiceUnavailable || e.RetryAfter != 5*time.Second || e.Reason != "draining" {
		t.Fatalf("draining reject: %+v", e)
	}
	if !e.IsRetryable() {
		t.Fatal("draining rejection must be retryable")
	}
}
