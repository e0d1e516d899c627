package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"flatdd/internal/faults"
)

// TestTerminalJobRetention pins the job table's bound: once more than
// MaxRetainedJobs jobs have finished, the oldest-finished one is evicted
// — its ID answers 404 and its Idempotency-Key admits a new job — while
// the newest stays, queued and running jobs stay however old they are,
// the submission order is compacted behind them, and a list cursor
// naming an evicted job resumes at the retained jobs older than it.
func TestTerminalJobRetention(t *testing.T) {
	freg := faults.New(1)
	s := New(Config{Threads: 2, MaxInFlight: 1, Faults: freg})
	defer s.Shutdown()
	h := s.Handler()
	status := func(path string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Code
	}

	req := &SubmitRequest{Circuit: "ghz", N: 4}
	first, _, _, aerr := s.submit(req, "", DefaultTenant, "first")
	if aerr != nil {
		t.Fatal(aerr.msg)
	}
	waitJobState(t, s, first, StateDone)
	// From here every pool task sleeps, so the blocker runs until it is
	// canceled and the job behind it stays queued.
	freg.Arm(faults.SchedTaskSlow, faults.Trigger{Prob: 1, Delay: 100 * time.Millisecond})
	blocker := mustSubmit(t, s, &SubmitRequest{Circuit: "qv", N: 12, TimeoutMS: 60_000})
	waitJobState(t, s, blocker, StateRunning)
	queued := mustSubmit(t, s, &SubmitRequest{Circuit: "ghz", N: 5})
	// Cache hits finish at submit: three table-fulls of them, so the
	// submission order is compacted at least once.
	var firstHit, last *job
	for i := 0; i < 3*MaxRetainedJobs; i++ {
		if last = mustSubmit(t, s, req); last.cacheStatus != CacheHit {
			t.Fatalf("submission %d: cache %q, want hit", i, last.cacheStatus)
		}
		if firstHit == nil {
			firstHit = last
		}
	}

	if code := status("/v1/jobs/" + first.id); code != http.StatusNotFound {
		t.Errorf("oldest job after %d newer finished: %d, want 404", 3*MaxRetainedJobs, code)
	}
	if code := status("/v1/jobs/" + last.id); code != http.StatusOK {
		t.Errorf("newest job: %d, want 200", code)
	}
	if code := status("/v1/jobs?limit=1000"); code != http.StatusOK {
		t.Errorf("list over a compacted order: %d, want 200", code)
	}
	// The first hit is evicted; the page after it holds the two older
	// jobs that are still live, newest first, and not the evicted first.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs?cursor="+firstHit.id, nil))
	var page JobList
	if rec.Code != http.StatusOK {
		t.Errorf("list after evicted cursor %s: %d, want 200", firstHit.id, rec.Code)
	} else if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, v := range page.Jobs {
		got = append(got, v.ID)
	}
	if want := []string{queued.id, blocker.id}; !slices.Equal(got, want) || page.NextCursor != "" {
		t.Errorf("page after evicted cursor: %v (next %q), want %v", got, page.NextCursor, want)
	}
	s.mu.Lock()
	jobs, order, idem := len(s.jobs), len(s.order), len(s.idem)
	s.mu.Unlock()
	if jobs != MaxRetainedJobs+2 || order > 2*jobs || idem != 0 {
		t.Errorf("table holds %d jobs, %d order entries, %d idempotency keys; want %d, ≤ %d, 0",
			jobs, order, idem, MaxRetainedJobs+2, 2*jobs)
	}

	again, _, replayed, aerr := s.submit(req, "", DefaultTenant, "first")
	if aerr != nil {
		t.Fatal(aerr.msg)
	}
	if replayed || again.id == first.id {
		t.Errorf("evicted job's Idempotency-Key replayed %s (replayed %v), want a new job", again.id, replayed)
	}
	s.mu.Lock()
	s.cancelLocked(queued.id)
	s.cancelLocked(blocker.id)
	s.mu.Unlock()
}

// waitJobState polls a job's state under the server lock.
func waitJobState(t *testing.T, s *Server, j *job, want string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		s.mu.Lock()
		st, msg := j.state, j.errMsg
		s.mu.Unlock()
		if st == want {
			return
		}
		if st == StateFailed || st == StateCanceled {
			t.Fatalf("job %s reached %s waiting for %s (%s)", j.id, st, want, msg)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", j.id, want)
}

func mustSubmit(t *testing.T, s *Server, req *SubmitRequest) *job {
	t.Helper()
	j, _, _, aerr := s.submit(req, "", DefaultTenant, "")
	if aerr != nil {
		t.Fatalf("submit: %s", aerr.msg)
	}
	return j
}
