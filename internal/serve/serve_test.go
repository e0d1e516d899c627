// Package serve_test drives the serve layer end to end over HTTP through
// the typed client (internal/serve/client) — the same way operational
// tooling consumes the v1 API. Unit tests of unexported internals
// (fair queue, result cache) live in-package instead.
package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"flatdd/internal/core"
	"flatdd/internal/dmav"
	"flatdd/internal/obs"
	"flatdd/internal/serve"
	"flatdd/internal/serve/client"
)

const bellQASM = `
OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
h q[0];
cx q[0],q[1];
`

// slowSubmit is a workload heavy enough to stay running for a while on
// the test server (QV scrambles, converts early, and then pushes a few
// hundred DMAV gates over 2^16 amplitudes). Distinct seeds make distinct
// canonical circuits — identical submissions would coalesce.
func slowSubmit(seed int64) *serve.SubmitRequest {
	return &serve.SubmitRequest{Circuit: "qv", N: 16, Seed: seed, TimeoutMS: 60_000}
}

type testServer struct {
	srv *serve.Server
	reg *obs.Registry // the registry the server instruments
	ts  *httptest.Server
	c   *client.Client
	t   *testing.T
}

func newTestServer(t *testing.T, cfg serve.Config) *testServer {
	t.Helper()
	if cfg.Metrics == nil {
		cfg.Metrics = obs.New()
	}
	srv := serve.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		if !srv.Draining() {
			srv.Shutdown()
		}
	})
	return &testServer{srv: srv, reg: cfg.Metrics, ts: ts, c: client.New(ts.URL), t: t}
}

// do issues a raw HTTP request — for the endpoints outside the typed v1
// surface (/healthz details, /debug/*) and for wire-shape assertions.
func (h *testServer) do(method, path string, body any) (int, []byte) {
	h.t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			h.t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, h.ts.URL+path, rd)
	if err != nil {
		h.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body) //nolint:errcheck
	return resp.StatusCode, buf.Bytes()
}

func (h *testServer) submit(req *serve.SubmitRequest) serve.JobView {
	h.t.Helper()
	resp, err := h.c.Submit(context.Background(), req)
	if err != nil {
		h.t.Fatalf("submit: %v", err)
	}
	return resp.Job
}

func (h *testServer) cancel(id string) *serve.JobView {
	h.t.Helper()
	v, err := h.c.Cancel(context.Background(), id)
	if err != nil {
		var apiErr *client.APIError
		if errors.As(err, &apiErr) && apiErr.Code == serve.CodeConflict {
			return nil // already finished
		}
		h.t.Fatalf("cancel %s: %v", id, err)
	}
	return v
}

// waitState polls a job until it reaches one of the wanted states.
func (h *testServer) waitState(id string, want ...string) serve.JobView {
	h.t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		v, err := h.c.Job(context.Background(), id)
		if err != nil {
			h.t.Fatalf("status %s: %v", id, err)
		}
		for _, w := range want {
			if v.State == w {
				return *v
			}
		}
		if time.Now().After(deadline) {
			h.t.Fatalf("job %s stuck in %q, want %v", id, v.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestAdmissionRejections(t *testing.T) {
	h := newTestServer(t, serve.Config{
		Threads:      2,
		MemoryBudget: dmav.FlatBytes(14, 2, dmav.Auto), // admits up to 14 qubits
	})
	cases := []struct {
		name string
		req  *serve.SubmitRequest
		code int
	}{
		{"over budget", &serve.SubmitRequest{Circuit: "ghz", N: 15}, http.StatusRequestEntityTooLarge},
		{"over qubit cap", &serve.SubmitRequest{Circuit: "ghz", N: dmav.MaxQubits + 1}, http.StatusRequestEntityTooLarge},
		{"no source", &serve.SubmitRequest{}, http.StatusBadRequest},
		{"both sources", &serve.SubmitRequest{QASM: bellQASM, Circuit: "ghz", N: 4}, http.StatusBadRequest},
		{"bad qasm", &serve.SubmitRequest{QASM: "qreg q[2]; bogus"}, http.StatusBadRequest},
		{"unknown workload", &serve.SubmitRequest{Circuit: "nope", N: 4}, http.StatusBadRequest},
		{"bad cache mode", &serve.SubmitRequest{Circuit: "ghz", N: 4, Cache: "sometimes"}, http.StatusBadRequest},
		{"negative shots", &serve.SubmitRequest{Circuit: "ghz", N: 4, Shots: -1}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		_, err := h.c.Submit(context.Background(), tc.req)
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) {
			t.Errorf("%s: err = %v, want *client.APIError", tc.name, err)
			continue
		}
		if apiErr.Status != tc.code {
			t.Errorf("%s: got %d (%s), want %d", tc.name, apiErr.Status, apiErr.Message, tc.code)
		}
	}
	if got := h.reg.Counter("serve.jobs.rejected.budget").Value(); got != 2 {
		t.Errorf("serve.jobs.rejected.budget = %d, want 2", got)
	}
	if got := h.reg.Counter("serve.jobs.rejected.invalid").Value(); got != 6 {
		t.Errorf("serve.jobs.rejected.invalid = %d, want 6", got)
	}
}

// TestErrorEnvelopeOnEveryRejection is the wire-shape contract: every
// non-2xx body of the v1 API parses as the structured envelope with the
// status-matched code and a non-empty message.
func TestErrorEnvelopeOnEveryRejection(t *testing.T) {
	h := newTestServer(t, serve.Config{
		Threads:      2,
		MaxInFlight:  1,
		QueueDepth:   1,
		MemoryBudget: dmav.FlatBytes(16, 2, dmav.Auto),
	})
	// Occupy the runner and the queue so 429s are reachable.
	running := h.submit(slowSubmit(1))
	h.waitState(running.ID, serve.StateRunning)
	h.submit(slowSubmit(2))

	cases := []struct {
		name     string
		method   string
		path     string
		body     any
		status   int
		code     string
		reason   string
		retryHdr bool
	}{
		{"invalid submit", "POST", "/v1/jobs", &serve.SubmitRequest{}, 400, serve.CodeInvalidRequest, "invalid", false},
		{"bad body", "POST", "/v1/jobs", "not json", 400, serve.CodeInvalidRequest, "invalid", false},
		{"over budget", "POST", "/v1/jobs", &serve.SubmitRequest{Circuit: "ghz", N: 20}, 413, serve.CodePayloadTooLarge, "memory_budget", false},
		{"queue full", "POST", "/v1/jobs", slowSubmit(3), 429, serve.CodeRateLimited, "queue_full", true},
		{"unknown status", "GET", "/v1/jobs/j-999999", nil, 404, serve.CodeNotFound, "unknown_job", false},
		{"unknown result", "GET", "/v1/jobs/j-999999/result", nil, 404, serve.CodeNotFound, "unknown_job", false},
		{"unknown cancel", "DELETE", "/v1/jobs/j-999999", nil, 404, serve.CodeNotFound, "unknown_job", false},
		{"result not ready", "GET", "/v1/jobs/" + running.ID + "/result", nil, 409, serve.CodeConflict, "not_ready", true},
		{"bad list limit", "GET", "/v1/jobs?limit=zero", nil, 400, serve.CodeInvalidRequest, "invalid", false},
		{"bad list cursor", "GET", "/v1/jobs?cursor=j-404404", nil, 400, serve.CodeInvalidRequest, "invalid_cursor", false},
	}
	for _, tc := range cases {
		code, raw := h.do(tc.method, tc.path, tc.body)
		if code != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, code, tc.status, raw)
			continue
		}
		var env serve.ErrorEnvelope
		if err := json.Unmarshal(raw, &env); err != nil {
			t.Errorf("%s: body does not parse as the envelope: %v (%s)", tc.name, err, raw)
			continue
		}
		if env.Error.Code != tc.code {
			t.Errorf("%s: code %q, want %q", tc.name, env.Error.Code, tc.code)
		}
		if tc.reason != "" && env.Error.Reason != tc.reason {
			t.Errorf("%s: reason %q, want %q", tc.name, env.Error.Reason, tc.reason)
		}
		if env.Error.Message == "" {
			t.Errorf("%s: empty message", tc.name)
		}
		if tc.retryHdr && env.Error.RetryAfterMS <= 0 {
			t.Errorf("%s: retry_after_ms = %d, want > 0", tc.name, env.Error.RetryAfterMS)
		}
	}
}

func TestBellJobEndToEnd(t *testing.T) {
	h := newTestServer(t, serve.Config{Threads: 2})
	v := h.submit(&serve.SubmitRequest{QASM: bellQASM, Shots: 1000, Top: 4, Seed: 42})
	if v.Qubits != 2 || v.Gates != 2 {
		t.Fatalf("view: %+v", v)
	}
	if v.Tenant != serve.DefaultTenant {
		t.Fatalf("tenant = %q, want %q", v.Tenant, serve.DefaultTenant)
	}
	if v.Cache != serve.CacheMiss {
		t.Fatalf("first submission cache = %q, want miss", v.Cache)
	}
	h.waitState(v.ID, serve.StateDone)

	res, err := h.c.Result(context.Background(), v.ID)
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	if res.Stats.FinalPhase != "dd" || res.Stats.ConvertedAtGate != -1 {
		t.Fatalf("bell circuit should finish in the DD phase: %+v", res.Stats)
	}
	// The v1 wire form keeps "fidelity", always 1: the engine simulates exactly.
	code, body := h.do("GET", "/v1/jobs/"+v.ID+"/result", nil)
	var wire struct {
		Stats map[string]any `json:"stats"`
	}
	if err := json.Unmarshal(body, &wire); err != nil || code != http.StatusOK || wire.Stats["fidelity"] != 1.0 {
		t.Fatalf("result wire stats (status %d, %v): fidelity = %v, want 1", code, err, wire.Stats["fidelity"])
	}
	if len(res.Top) != 2 {
		t.Fatalf("top amplitudes: %+v", res.Top)
	}
	for _, a := range res.Top {
		if a.Basis != "00" && a.Basis != "11" {
			t.Fatalf("unexpected basis state %q", a.Basis)
		}
		if math.Abs(a.Probability-0.5) > 1e-9 {
			t.Fatalf("P(%s) = %v, want 0.5", a.Basis, a.Probability)
		}
	}
	total := 0
	for bits, n := range res.Shots {
		if bits != "00" && bits != "11" {
			t.Fatalf("impossible shot %q", bits)
		}
		total += n
	}
	if total != 1000 {
		t.Fatalf("shot count %d, want 1000", total)
	}
}

func TestResultNotReadyAndUnknown(t *testing.T) {
	h := newTestServer(t, serve.Config{Threads: 2})
	var apiErr *client.APIError
	if _, err := h.c.Job(context.Background(), "j-999999"); !errors.As(err, &apiErr) || apiErr.Status != 404 {
		t.Fatalf("unknown job status: %v", err)
	}
	if _, err := h.c.Result(context.Background(), "j-999999"); !errors.As(err, &apiErr) || apiErr.Status != 404 {
		t.Fatalf("unknown job result: %v", err)
	}
	v := h.submit(slowSubmit(1))
	if _, err := h.c.Result(context.Background(), v.ID); !errors.As(err, &apiErr) ||
		apiErr.Status != 409 || apiErr.Reason != "not_ready" {
		t.Fatalf("unfinished result: %v, want 409 not_ready", err)
	}
	h.cancel(v.ID)
	h.waitState(v.ID, serve.StateCanceled, serve.StateDone)
}

// TestJobIDsDifferAcrossServers: two servers, as a process and its
// restart, issue different first job IDs, and one server's ID names no job
// on the other: status, result and cancel answer 404, and as a list cursor
// it answers 400 invalid_cursor.
func TestJobIDsDifferAcrossServers(t *testing.T) {
	a := newTestServer(t, serve.Config{Threads: 1})
	b := newTestServer(t, serve.Config{Threads: 1})
	va := a.submit(&serve.SubmitRequest{QASM: bellQASM})
	vb := b.submit(&serve.SubmitRequest{QASM: bellQASM})
	if va.ID == vb.ID {
		t.Fatalf("both servers issued %s first", va.ID)
	}
	a.waitState(va.ID, serve.StateDone)
	b.waitState(vb.ID, serve.StateDone)
	ctx := context.Background()
	var apiErr *client.APIError
	if _, err := b.c.Job(ctx, va.ID); !errors.As(err, &apiErr) || apiErr.Status != 404 {
		t.Errorf("status of %s on the other server: %v, want 404", va.ID, err)
	}
	if _, err := b.c.Result(ctx, va.ID); !errors.As(err, &apiErr) || apiErr.Status != 404 {
		t.Errorf("result of %s on the other server: %v, want 404", va.ID, err)
	}
	if _, err := b.c.Cancel(ctx, va.ID); !errors.As(err, &apiErr) || apiErr.Status != 404 {
		t.Errorf("cancel of %s on the other server: %v, want 404", va.ID, err)
	}
	if code, raw := b.do("GET", "/v1/jobs?cursor="+va.ID, nil); code != 400 || !bytes.Contains(raw, []byte("invalid_cursor")) {
		t.Errorf("cursor %s on the other server: %d %s, want 400 invalid_cursor", va.ID, code, raw)
	}
	if _, err := a.c.Job(ctx, va.ID); err != nil {
		t.Errorf("status of %s on its own server: %v", va.ID, err)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	h := newTestServer(t, serve.Config{Threads: 2, MaxInFlight: 1, QueueDepth: 4})
	running := h.submit(slowSubmit(1))
	h.waitState(running.ID, serve.StateRunning)
	queued := h.submit(slowSubmit(2))

	if got := h.cancel(queued.ID); got == nil {
		t.Fatalf("cancel queued job reported already-finished")
	}
	v := h.waitState(queued.ID, serve.StateCanceled)
	if !strings.Contains(v.Error, core.ErrCanceled.Error()) {
		t.Fatalf("canceled job error = %q, want the core sentinel", v.Error)
	}
	// The withdrawn job must be skipped by the runner, not executed: cancel
	// the running one and verify the queued one never starts.
	h.cancel(running.ID)
	h.waitState(running.ID, serve.StateCanceled, serve.StateDone)
	time.Sleep(20 * time.Millisecond)
	if v := h.waitState(queued.ID, serve.StateCanceled); v.StartedAt != nil {
		t.Fatal("withdrawn job was started anyway")
	}
}

func TestCancelRunningJobReturnsSentinel(t *testing.T) {
	h := newTestServer(t, serve.Config{Threads: 2})
	v := h.submit(slowSubmit(1))
	h.waitState(v.ID, serve.StateRunning)
	if got := h.cancel(v.ID); got == nil {
		t.Fatalf("cancel running job reported already-finished")
	}
	got := h.waitState(v.ID, serve.StateCanceled, serve.StateDone)
	if got.State == serve.StateDone {
		t.Skip("job finished before the cancel landed")
	}
	if !strings.Contains(got.Error, core.ErrCanceled.Error()) {
		t.Fatalf("error = %q, want core.ErrCanceled's message", got.Error)
	}
	// Double cancel of a finished job conflicts.
	if h.cancel(v.ID) != nil {
		t.Fatal("cancel of a finished job did not conflict")
	}
	if got := h.reg.Counter("serve.jobs.canceled").Value(); got != 1 {
		t.Fatalf("serve.jobs.canceled = %d, want 1", got)
	}
}

func TestQueueFullRejects(t *testing.T) {
	h := newTestServer(t, serve.Config{Threads: 2, MaxInFlight: 1, QueueDepth: 1})
	running := h.submit(slowSubmit(1))
	h.waitState(running.ID, serve.StateRunning)
	queued := h.submit(slowSubmit(2)) // fills the queue

	_, err := h.c.Submit(context.Background(), slowSubmit(3))
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests {
		t.Fatalf("over-depth submit: %v, want 429", err)
	}
	if apiErr.Reason != "queue_full" || !apiErr.IsRetryable() || apiErr.RetryAfter <= 0 {
		t.Fatalf("queue-full rejection: %+v", apiErr)
	}
	if got := h.reg.Counter("serve.jobs.rejected.queue_full").Value(); got != 1 {
		t.Fatalf("serve.jobs.rejected.queue_full = %d, want 1", got)
	}
	h.cancel(queued.ID)
	h.cancel(running.ID)
	h.waitState(running.ID, serve.StateCanceled, serve.StateDone)
}

func TestInFlightCapRespected(t *testing.T) {
	const inflight = 2
	h := newTestServer(t, serve.Config{Threads: 2, MaxInFlight: inflight, QueueDepth: 8})
	ids := make([]string, 0, 5)
	for i := 0; i < 5; i++ {
		ids = append(ids, h.submit(slowSubmit(int64(i+1))).ID)
	}
	deadline := time.Now().Add(30 * time.Second)
	sawParallel := false
	for {
		l, err := h.c.Jobs(context.Background(), client.JobsQuery{State: serve.StateRunning})
		if err != nil {
			t.Fatalf("list: %v", err)
		}
		if len(l.Jobs) > inflight {
			t.Fatalf("%d jobs running, cap is %d", len(l.Jobs), inflight)
		}
		if len(l.Jobs) == inflight {
			sawParallel = true
			break
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !sawParallel {
		t.Fatal("never saw the in-flight cap reached")
	}
	for _, id := range ids {
		h.cancel(id)
	}
	for _, id := range ids {
		h.waitState(id, serve.StateCanceled, serve.StateDone)
	}
}

func TestJobTimeoutFails(t *testing.T) {
	h := newTestServer(t, serve.Config{Threads: 2})
	req := slowSubmit(1)
	req.TimeoutMS = 1 // far below the QV n=16 runtime (tens of milliseconds)
	v := h.submit(req)
	got := h.waitState(v.ID, serve.StateFailed, serve.StateDone)
	if got.State == serve.StateDone {
		t.Skip("machine fast enough to beat a 30ms deadline")
	}
	if !strings.Contains(got.Error, core.ErrDeadlineExceeded.Error()) {
		t.Fatalf("timeout error = %q", got.Error)
	}
}

func TestDrainSemantics(t *testing.T) {
	h := newTestServer(t, serve.Config{
		Threads: 2, MaxInFlight: 1, QueueDepth: 4,
		DrainGrace: 50 * time.Millisecond,
	})
	running := h.submit(slowSubmit(1))
	h.waitState(running.ID, serve.StateRunning)
	queued := h.submit(slowSubmit(2))

	done := make(chan struct{})
	go func() { h.srv.Shutdown(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Shutdown did not drain")
	}

	v := h.waitState(queued.ID, serve.StateCanceled)
	if !strings.Contains(v.Error, "draining") {
		t.Fatalf("drained queued job error = %q", v.Error)
	}
	r := h.waitState(running.ID, serve.StateCanceled, serve.StateDone)
	if r.State == serve.StateCanceled && !strings.Contains(r.Error, core.ErrCanceled.Error()) {
		t.Fatalf("drained running job error = %q", r.Error)
	}
	_, err := h.c.Submit(context.Background(), &serve.SubmitRequest{Circuit: "ghz", N: 4})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit: %v, want 503", err)
	}
	health, err := h.c.Health(context.Background())
	if err != nil || health["status"] != "draining" {
		t.Fatalf("healthz after drain: %v %v", health["status"], err)
	}
}

func TestListFilterAndQueuePosition(t *testing.T) {
	h := newTestServer(t, serve.Config{Threads: 2, MaxInFlight: 1, QueueDepth: 4})
	running := h.submit(slowSubmit(1))
	h.waitState(running.ID, serve.StateRunning)
	q1 := h.submit(slowSubmit(2))
	q2 := h.submit(slowSubmit(3))

	l, err := h.c.Jobs(context.Background(), client.JobsQuery{State: serve.StateQueued})
	if err != nil {
		t.Fatalf("list queued: %v", err)
	}
	// Newest first: q2 leads, then q1.
	if len(l.Jobs) != 2 || l.Jobs[0].ID != q2.ID || l.Jobs[1].ID != q1.ID {
		t.Fatalf("queued list: %+v", l.Jobs)
	}
	if l.Jobs[0].QueuePosition != 2 || l.Jobs[1].QueuePosition != 1 {
		t.Fatalf("queue positions: %d, %d", l.Jobs[0].QueuePosition, l.Jobs[1].QueuePosition)
	}
	for _, id := range []string{q2.ID, q1.ID, running.ID} {
		h.cancel(id)
	}
	h.waitState(running.ID, serve.StateCanceled, serve.StateDone)
}

// TestListPagination walks GET /v1/jobs page by page: stable newest-first
// order, no duplicates, no gaps, and a bounded default page.
func TestListPagination(t *testing.T) {
	h := newTestServer(t, serve.Config{Threads: 2, QueueDepth: 16})
	ids := make([]string, 0, 7)
	for i := 0; i < 7; i++ {
		v := h.submit(&serve.SubmitRequest{Circuit: "ghz", N: 4, Seed: int64(i + 1)})
		ids = append(ids, v.ID)
	}
	for _, id := range ids {
		h.waitState(id, serve.StateDone)
	}

	var got []string
	cursor := ""
	pages := 0
	for {
		l, err := h.c.Jobs(context.Background(), client.JobsQuery{Limit: 3, Cursor: cursor})
		if err != nil {
			t.Fatalf("page %d: %v", pages, err)
		}
		if len(l.Jobs) > 3 {
			t.Fatalf("page %d has %d jobs, limit 3", pages, len(l.Jobs))
		}
		for _, j := range l.Jobs {
			got = append(got, j.ID)
		}
		pages++
		if l.NextCursor == "" {
			break
		}
		cursor = l.NextCursor
	}
	if pages != 3 {
		t.Errorf("pages = %d, want 3 (3+3+1)", pages)
	}
	if len(got) != 7 {
		t.Fatalf("paged through %d jobs, want 7: %v", len(got), got)
	}
	for i, id := range got {
		// Newest first: the last submitted id comes back first.
		if want := ids[len(ids)-1-i]; id != want {
			t.Fatalf("position %d: %s, want %s (full: %v)", i, id, want, got)
		}
	}
}

// TestListTenantFilter pins ?tenant= on the list endpoint.
func TestListTenantFilter(t *testing.T) {
	h := newTestServer(t, serve.Config{Threads: 2, QueueDepth: 16})
	alice := client.New(h.ts.URL, client.WithTenant("alice"))
	bob := client.New(h.ts.URL, client.WithTenant("bob"))
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := alice.Submit(ctx, &serve.SubmitRequest{Circuit: "ghz", N: 4, Seed: int64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := bob.Submit(ctx, &serve.SubmitRequest{Circuit: "ghz", N: 5}); err != nil {
		t.Fatal(err)
	}
	l, err := h.c.Jobs(ctx, client.JobsQuery{Tenant: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Jobs) != 2 {
		t.Fatalf("alice's jobs: %d, want 2", len(l.Jobs))
	}
	for _, j := range l.Jobs {
		if j.Tenant != "alice" {
			t.Fatalf("tenant filter leaked job of %q", j.Tenant)
		}
	}
}

func TestMetricsEndpointExposed(t *testing.T) {
	h := newTestServer(t, serve.Config{Threads: 2})
	v := h.submit(&serve.SubmitRequest{QASM: bellQASM})
	h.waitState(v.ID, serve.StateDone)
	code, body := h.do("GET", "/debug/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("/debug/metrics: %d", code)
	}
	for _, name := range []string{"serve.jobs.submitted", "serve.jobs.completed", "serve.queue.depth", "serve.cache.hits", "serve.engine.runs"} {
		if !bytes.Contains(body, []byte(fmt.Sprintf("%q", name))) {
			t.Fatalf("/debug/metrics missing %s: %s", name, body)
		}
	}
}
