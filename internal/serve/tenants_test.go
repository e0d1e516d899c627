package serve_test

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"testing"

	"flatdd/internal/serve"
	"flatdd/internal/serve/client"
)

// TestTenantHeaderValidation pins the identity rules: empty maps to the
// default tenant, the charset is enforced.
func TestTenantHeaderValidation(t *testing.T) {
	h := newTestServer(t, serve.Config{Threads: 2})
	ctx := context.Background()

	v := h.submit(&serve.SubmitRequest{Circuit: "ghz", N: 4})
	if v.Tenant != serve.DefaultTenant {
		t.Errorf("headerless submit tenant = %q, want %q", v.Tenant, serve.DefaultTenant)
	}

	named := client.New(h.ts.URL, client.WithTenant("team-a.prod_1"))
	resp, err := named.Submit(ctx, &serve.SubmitRequest{Circuit: "ghz", N: 5})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Job.Tenant != "team-a.prod_1" {
		t.Errorf("tenant = %q", resp.Job.Tenant)
	}

	for _, bad := range []string{"has space", "semi;colon", "sl/ash", strings.Repeat("a", 80)} {
		c := client.New(h.ts.URL, client.WithTenant(bad))
		_, err := c.Submit(ctx, &serve.SubmitRequest{Circuit: "ghz", N: 4})
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest || apiErr.Reason != "invalid_tenant" {
			t.Errorf("tenant %q: %v, want 400 invalid_tenant", bad, err)
		}
	}
}

// TestWeightedFairSchedulingE2E is the fairness acceptance test: a
// heavy tenant floods the queue behind a blocker, a light tenant adds
// one job last, and the fair queue still dispatches the light job ahead
// of all but one of the heavy backlog — under a FIFO it would run dead
// last.
func TestWeightedFairSchedulingE2E(t *testing.T) {
	h := newTestServer(t, serve.Config{
		Threads:     2,
		MaxInFlight: 1,
		QueueDepth:  32,
		// The cache cannot shortcut this test: every job is a distinct
		// QV circuit, but belt and suspenders.
		ResultCacheBudget: -1,
	})
	ctx := context.Background()
	heavy := client.New(h.ts.URL, client.WithTenant("heavy"))
	light := client.New(h.ts.URL, client.WithTenant("light"))

	// Hold the single runner so every submission below queues up.
	blocker := h.submit(slowSubmit(50))
	h.waitState(blocker.ID, serve.StateRunning)

	heavyIDs := make([]string, 0, 6)
	for i := 0; i < 6; i++ {
		resp, err := heavy.Submit(ctx, &serve.SubmitRequest{
			Circuit: "qv", N: 12, Seed: int64(i + 1), TimeoutMS: 60_000})
		if err != nil {
			t.Fatal(err)
		}
		heavyIDs = append(heavyIDs, resp.Job.ID)
	}
	lresp, err := light.Submit(ctx, &serve.SubmitRequest{
		Circuit: "qv", N: 12, Seed: 99, TimeoutMS: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	// Accounting while the blocker runs and the rest waits: each tenant's
	// running count comes from the job table, and every tenant is admitted
	// under the server-wide limits.
	views, err := h.c.Tenants(ctx)
	if err != nil {
		t.Fatal(err)
	}
	queued := map[string]int{serve.DefaultTenant: 0, "heavy": 6, "light": 1}
	running := map[string]int{serve.DefaultTenant: 1, "heavy": 0, "light": 0}
	for _, tv := range views {
		if tv.Queued != queued[tv.Name] || tv.Running != running[tv.Name] ||
			tv.MaxQueued != 32 || tv.MaxInFlight != 1 || tv.Rejected != 0 {
			t.Errorf("tenant %s mid-run: %+v, want queued %d, running %d, max_queued 32, max_inflight 1, rejected 0",
				tv.Name, tv, queued[tv.Name], running[tv.Name])
		}
	}
	if len(views) != 3 {
		t.Errorf("tenants mid-run: %+v, want %s, heavy and light", views, serve.DefaultTenant)
	}
	h.cancel(blocker.ID)

	h.waitState(lresp.Job.ID, serve.StateDone)
	for _, id := range heavyIDs {
		h.waitState(id, serve.StateDone)
	}
	// Dispatch order: heavy entered the ring first, so one heavy job runs,
	// then the light job. Submitted last, it would have started seventh
	// under a FIFO.
	lv, err := h.c.Job(ctx, lresp.Job.ID)
	if err != nil || lv.StartedAt == nil {
		t.Fatalf("light job view: %+v err %v", lv, err)
	}
	before := 0
	for _, id := range heavyIDs {
		hv, err := h.c.Job(ctx, id)
		if err != nil || hv.StartedAt == nil {
			t.Fatalf("heavy job view: %+v err %v", hv, err)
		}
		if hv.StartedAt.Before(*lv.StartedAt) {
			before++
		}
	}
	if before > 1 {
		t.Errorf("%d of 6 heavy jobs dispatched before the light tenant's; the fair queue allows at most 1", before)
	}

	views, err = h.c.Tenants(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, tv := range views {
		switch tv.Name {
		case "heavy":
			if tv.Completed != 6 {
				t.Errorf("heavy completed = %d, want 6", tv.Completed)
			}
		case "light":
			if tv.Completed != 1 {
				t.Errorf("light completed = %d, want 1", tv.Completed)
			}
		}
		if tv.Weight != 1 {
			t.Errorf("tenant %s weight = %d, want default 1", tv.Name, tv.Weight)
		}
	}
}
