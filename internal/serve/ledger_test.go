package serve_test

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"flatdd/internal/dmav"
	"flatdd/internal/obs"
	"flatdd/internal/serve"
)

// TestLedgerAdmissionHigherConcurrency: reservations are exact per cache
// mode, so cache=never jobs reserve 32·2^n, not the 48·2^n a cached job
// may need. The budget is just under four cached qv-16 jobs, so charging
// every job the cached figure ran three at once; it holds five
// cache=never jobs.
func TestLedgerAdmissionHigherConcurrency(t *testing.T) {
	if testing.Short() {
		t.Skip("burst of qv-16 jobs in -short mode")
	}
	const n, count = 16, 8
	budget := dmav.FlatBytes(n, 2, dmav.Auto)*4 - 300_000
	fits := int64(budget / dmav.FlatBytes(n, 2, dmav.NeverCache))
	h := newTestServer(t, serve.Config{Threads: 2, MaxInFlight: count, MemoryBudget: budget})
	ids := make([]string, 0, count)
	for i := 0; i < count; i++ {
		v := h.submit(&serve.SubmitRequest{Circuit: "qv", N: n, Seed: int64(i + 1),
			Cache: "never", TimeoutMS: 60_000})
		ids = append(ids, v.ID)
	}
	for _, id := range ids {
		if v := h.waitState(id, serve.StateDone, serve.StateFailed); v.State != serve.StateDone {
			t.Fatalf("job %s finished %s: %s", id, v.State, v.Error)
		}
	}
	peak := h.reg.Gauge("serve.jobs.running.peak").Value()
	t.Logf("%d concurrent cache=never jobs; the budget holds %d", peak, fits)
	if peak < 4 || peak > fits {
		t.Errorf("peak of %d concurrent cache=never jobs, want 4..%d under the budget", peak, fits)
	}
}

// churnSeed returns the seed of a randomized test: FLATDD_CHURN_SEED when
// set, else a fresh one. A failing test logs it, so the run replays.
func churnSeed(t *testing.T) int64 {
	t.Helper()
	seed := time.Now().UnixNano()
	if s := os.Getenv("FLATDD_CHURN_SEED"); s != "" {
		var err error
		if seed, err = strconv.ParseInt(s, 10, 64); err != nil {
			t.Fatalf("FLATDD_CHURN_SEED=%q: %v", s, err)
		}
	}
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("seed %d (replay with FLATDD_CHURN_SEED=%d)", seed, seed)
		}
	})
	return seed
}

// TestReservationsReleasedAtTerminal bursts jobs of mixed cache modes at
// a budget that fits two cached jobs and cancels a random subset of them,
// queued or running. Polled serve.mem.reserved never exceeds the budget,
// and once every job is terminal the whole budget is back: a leaked
// reservation would strangle a long-lived server. Failures print the
// seed; FLATDD_CHURN_SEED replays one.
func TestReservationsReleasedAtTerminal(t *testing.T) {
	rng := rand.New(rand.NewSource(churnSeed(t)))
	const n, count = 14, 16
	budget := 2 * dmav.FlatBytes(n, 2, dmav.AlwaysCache)
	h := newTestServer(t, serve.Config{
		Threads: 2, MaxInFlight: 4, MemoryBudget: budget,
		ResultCacheBudget: -1, // every job runs the engine
	})
	reg := h.reg

	var over atomic.Int64
	stop := make(chan struct{})
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		for {
			if r := reg.Gauge("serve.mem.reserved").Value(); r > int64(budget) {
				over.Store(r)
			}
			select {
			case <-stop:
				return
			case <-time.After(100 * time.Microsecond):
			}
		}
	}()

	modes := []string{"never", "auto", "always"}
	ids := make([]string, count)
	for i := range ids {
		ids[i] = h.submit(&serve.SubmitRequest{Circuit: "qv", N: n, Seed: int64(i + 1),
			Cache: modes[rng.Intn(len(modes))], TimeoutMS: 60_000}).ID
	}
	for _, id := range ids {
		if rng.Intn(2) == 0 {
			time.Sleep(time.Duration(rng.Intn(20)) * time.Millisecond)
			h.cancel(id)
		}
	}
	runningCancels := 0
	for _, id := range ids {
		v := h.waitState(id, serve.StateDone, serve.StateCanceled, serve.StateFailed)
		if v.State == serve.StateFailed {
			t.Fatalf("job %s failed: %s", id, v.Error)
		}
		if v.State == serve.StateCanceled && v.StartedAt != nil {
			runningCancels++
		}
	}
	t.Logf("%d jobs canceled while running", runningCancels)
	close(stop)
	<-polled

	if r := over.Load(); r != 0 {
		t.Errorf("serve.mem.reserved reached %d, over the %d-byte budget", r, budget)
	}
	if got := reg.Gauge("serve.mem.reserved").Value(); got != 0 {
		t.Errorf("serve.mem.reserved = %d after every job is terminal", got)
	}
	if got := reg.Gauge("serve.mem.headroom").Value(); got != int64(budget) {
		t.Errorf("headroom %d != budget %d after every job is terminal", got, budget)
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
		BudgetBytes   uint64              `json:"budget_bytes"`
		ReservedBytes uint64              `json:"reserved_bytes"`
		PeakBytes     uint64              `json:"observed_peak_bytes"`
		Jobs          []serve.LedgerEntry `json:"jobs"`
	}
	if err := json.Unmarshal(body, &led); err != nil {
		t.Fatal(err)
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
