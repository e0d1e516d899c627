package serve_test

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"

	"flatdd/internal/obs"
	"flatdd/internal/serve"
)

// ledgerBurst submits count qv-16 jobs (cache=never so the projected
// footprint undershoots the static worst case) and waits for all of
// them to finish, returning the observed peak of concurrently running
// jobs.
func ledgerBurst(t *testing.T, mode string, budget uint64, count int) (peak int64, srv *serve.Server) {
	t.Helper()
	h := newTestServer(t, serve.Config{
		Threads:           2,
		MaxInFlight:       8,
		AdmissionMode:     mode,
		TotalMemoryBudget: budget,
	})
	ids := make([]string, 0, count)
	for i := 0; i < count; i++ {
		v := h.submit(&serve.SubmitRequest{Circuit: "qv", N: 16, Seed: int64(i + 1),
			Cache: "never", TimeoutMS: 60_000})
		ids = append(ids, v.ID)
	}
	for _, id := range ids {
		if v := h.waitState(id, serve.StateDone, serve.StateFailed); v.State != serve.StateDone {
			t.Fatalf("job %s finished %s: %s", id, v.State, v.Error)
		}
	}
	return h.srv.Registry().Gauge("serve.jobs.running.peak").Value(), h.srv
}

// TestLedgerAdmissionHigherConcurrency is the tentpole's acceptance
// test: under the same process-wide budget, ledger-mode admission (which
// releases reservations down to the engine's projected footprint once
// fusion is done) achieves strictly higher admitted concurrency than
// worst-case admission on a burst of identical jobs.
//
// The arithmetic: WorstCaseBytes(16) = 48·2^16 ≈ 3.15 MB, and a budget
// just under 4 worst cases admits exactly 3 concurrent jobs in
// worst-case mode. The projected footprint of a cache=never qv-16 job
// after fusion is 32·2^16 + gate-DD nodes ≈ 2.9 MB (measured 2.89–2.95 MB
// over seeds), so once the three running jobs have projected, a fourth
// worst-case reservation fits (3·2.95 + 3.15 ≈ 12.0 MB ≤ budget) and
// ledger mode dispatches it while the others are still in their DMAV
// phase.
func TestLedgerAdmissionHigherConcurrency(t *testing.T) {
	if testing.Short() {
		t.Skip("burst of qv-16 jobs in -short mode")
	}
	budget := serve.WorstCaseBytes(16)*4 - 300_000

	worstPeak, wsrv := ledgerBurst(t, serve.AdmissionWorstCase, budget, 8)
	if worstPeak > 3 {
		t.Fatalf("worstcase mode admitted %d concurrent jobs; budget allows 3", worstPeak)
	}
	wsrv.Shutdown()

	ledgerPeak, lsrv := ledgerBurst(t, serve.AdmissionLedger, budget, 8)
	if ledgerPeak <= worstPeak {
		t.Errorf("ledger mode peak %d not above worstcase peak %d under the same budget",
			ledgerPeak, worstPeak)
	}
	if ledgerPeak < 4 {
		t.Errorf("ledger mode peak %d, want >= 4 (released reservations admit a 4th job)",
			ledgerPeak)
	}
	lsrv.Shutdown()
}

// TestReservationsReleasedAtTerminal asserts the budget comes back in
// full once every job is done, in both modes: leaked reservations would
// strangle a long-lived server.
func TestReservationsReleasedAtTerminal(t *testing.T) {
	for _, mode := range []string{serve.AdmissionWorstCase, serve.AdmissionLedger} {
		h := newTestServer(t, serve.Config{Threads: 2, AdmissionMode: mode})
		v := h.submit(&serve.SubmitRequest{Circuit: "ghz", N: 10})
		h.waitState(v.ID, serve.StateDone)
		reg := h.srv.Registry()
		if got := reg.Gauge("serve.mem.reserved").Value(); got != 0 {
			t.Errorf("%s: serve.mem.reserved = %d after all jobs done", mode, got)
		}
		budget := reg.Gauge("serve.mem.budget").Value()
		if got := reg.Gauge("serve.mem.headroom").Value(); got != budget {
			t.Errorf("%s: headroom %d != budget %d after all jobs done", mode, got, budget)
		}
	}
}

// TestDebugLedgerAndResultResources walks the resource-accounting
// observability surface: the job result carries the per-phase resource
// snapshot and /debug/ledger exposes the process-wide accounting.
func TestDebugLedgerAndResultResources(t *testing.T) {
	h := newTestServer(t, serve.Config{Threads: 2})
	v := h.submit(&serve.SubmitRequest{Circuit: "qv", N: 12, TimeoutMS: 60_000})
	h.waitState(v.ID, serve.StateDone)

	res, err := h.c.Result(context.Background(), v.ID)
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	r := res.Stats.Resources
	if r == nil || len(r.Phases) == 0 {
		t.Fatalf("result carries no resource ledger: %+v", res.Stats)
	}
	if r.CPUNs <= 0 || r.WallNs <= 0 {
		t.Errorf("ledger totals cpu=%d wall=%d, want > 0", r.CPUNs, r.WallNs)
	}
	if r.PeakBytes == 0 {
		t.Error("ledger peak bytes is zero for a converting job")
	}
	seen := map[string]bool{}
	for _, pc := range r.Phases {
		seen[pc.Phase] = true
	}
	for _, want := range []string{"dd", "convert", "fuse", "dmav"} {
		if !seen[want] {
			t.Errorf("result ledger missing phase %q: %v", want, r.Phases)
		}
	}

	code, body := h.do("GET", "/debug/ledger", nil)
	if code != http.StatusOK {
		t.Fatalf("/debug/ledger: %d %s", code, body)
	}
	var led struct {
		AdmissionMode string              `json:"admission_mode"`
		BudgetBytes   uint64              `json:"budget_bytes"`
		ReservedBytes uint64              `json:"reserved_bytes"`
		PeakBytes     uint64              `json:"observed_peak_bytes"`
		Jobs          []serve.LedgerEntry `json:"jobs"`
	}
	if err := json.Unmarshal(body, &led); err != nil {
		t.Fatal(err)
	}
	if led.AdmissionMode != serve.AdmissionWorstCase {
		t.Errorf("admission_mode = %q", led.AdmissionMode)
	}
	if led.BudgetBytes == 0 || led.ReservedBytes != 0 {
		t.Errorf("budget=%d reserved=%d, want budget > 0 and nothing reserved", led.BudgetBytes, led.ReservedBytes)
	}
	if len(led.Jobs) != 1 || led.Jobs[0].ID != v.ID {
		t.Fatalf("ledger jobs: %+v", led.Jobs)
	}
	if led.Jobs[0].Resources == nil || len(led.Jobs[0].Resources.Phases) == 0 {
		t.Errorf("finished job has no frozen resources in /debug/ledger: %+v", led.Jobs[0])
	}

	// The flight recorder carries the same snapshot.
	code, body = h.do("GET", "/debug/jobs?id="+v.ID, nil)
	if code != http.StatusOK {
		t.Fatalf("/debug/jobs: %d %s", code, body)
	}
	var jt obs.JobTrace
	if err := json.Unmarshal(body, &jt); err != nil {
		t.Fatal(err)
	}
	if jt.Ledger == nil || len(jt.Ledger.Phases) == 0 {
		t.Errorf("flight-recorder trace has no ledger: %+v", jt.Ledger)
	}
}

// TestOversizeJobRunsAlone: a job whose worst case exceeds the whole
// budget still dispatches when nothing else is reserved — the gate
// degrades to serial execution instead of deadlocking.
func TestOversizeJobRunsAlone(t *testing.T) {
	h := newTestServer(t, serve.Config{
		Threads:           2,
		TotalMemoryBudget: 1, // absurdly small; per-job MemoryBudget still admits
	})
	v := h.submit(&serve.SubmitRequest{Circuit: "ghz", N: 10})
	if got := h.waitState(v.ID, serve.StateDone, serve.StateFailed); got.State != serve.StateDone {
		t.Fatalf("oversize-vs-budget job %s: %s", got.State, got.Error)
	}
}
