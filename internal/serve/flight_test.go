package serve

import (
	"testing"
	"time"
)

// in-package tests of flight bookkeeping edge cases the e2e suite cannot
// reach: completeFlightLocked's re-flighting of subscribers the leader's
// entry cannot serve is unreachable through submit (coalescable() gates
// the shots path), so the slip is simulated by mutating subscriber
// options under the lock.

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
	j, _, aerr := s.submit(req, "", DefaultTenant, "")
	if aerr != nil {
		t.Fatalf("submit: %s", aerr.msg)
	}
	return j
}

// TestCompleteFlightReflightsNonServableSubs pins the fallback in
// completeFlightLocked: when the leader's entry cannot serve a
// subscriber (it wants shots, the entry has no distribution), the first
// such subscriber becomes leader of a fresh flight and the rest ride it
// — one extra engine run total, not one per subscriber — and the chain
// then completes end to end.
func TestCompleteFlightReflightsNonServableSubs(t *testing.T) {
	s := New(Config{Threads: 2, MaxInFlight: 1, QueueDepth: 16})
	defer s.Shutdown()

	// Occupy the single runner so the leader and its flight stay queued.
	blocker := mustSubmit(t, s, &SubmitRequest{Circuit: "qv", N: 16, TimeoutMS: 60_000})
	waitJobState(t, s, blocker, StateRunning)

	req := &SubmitRequest{Circuit: "ghz", N: 5}
	leader := mustSubmit(t, s, req)
	if leader.cacheStatus != CacheMiss {
		t.Fatalf("leader cache = %q, want miss", leader.cacheStatus)
	}
	sub1 := mustSubmit(t, s, req)
	sub2 := mustSubmit(t, s, req)
	sub3 := mustSubmit(t, s, req)
	for _, sub := range []*job{sub1, sub2, sub3} {
		if sub.cacheStatus != CacheCoalesced {
			t.Fatalf("subscriber cache = %q, want coalesced", sub.cacheStatus)
		}
	}

	// Simulate the bookkeeping slip: the subscribers now want shots, and
	// the leader's entry arrives without a distribution.
	s.mu.Lock()
	for _, sub := range []*job{sub1, sub2, sub3} {
		sub.opts.shots = 100
	}
	s.completeFlightLocked(leader, &cacheEntry{qubits: 5})
	f := s.flights[leader.key]
	if f == nil || f.leader != sub1 {
		t.Fatal("first non-servable subscriber did not become the new flight leader")
	}
	if len(f.subs) != 2 || f.subs[0] != sub2 || f.subs[1] != sub3 {
		t.Fatalf("re-flight carries %d subscribers, want [sub2 sub3]", len(f.subs))
	}
	if sub1.cacheStatus != CacheMiss {
		t.Errorf("promoted leader cache = %q, want miss", sub1.cacheStatus)
	}
	// Both the original leader and the re-flighted one are queued; sub2
	// and sub3 are not (they ride sub1's flight).
	queued := s.fq.TenantQueued(DefaultTenant)
	s.mu.Unlock()
	if queued != 2 {
		t.Fatalf("tenant queued = %d after re-flight, want 2 (old + new leader)", queued)
	}

	// Drain: the original leader runs and completes alone (the flight is
	// no longer theirs); sub1 runs once more and its entry — ghz n=5 easily
	// fits a distribution — completes sub2 and sub3 with their shots.
	s.mu.Lock()
	s.cancelLocked(blocker.id)
	s.mu.Unlock()
	for _, j := range []*job{leader, sub1, sub2, sub3} {
		waitJobState(t, s, j, StateDone)
	}
	for _, sub := range []*job{sub2, sub3} {
		total := 0
		for _, n := range sub.result.Shots {
			total += n
		}
		if total != 100 {
			t.Errorf("re-flighted subscriber %s drew %d shots, want 100", sub.id, total)
		}
	}
	// Engine runs: blocker (canceled mid-run), original leader, sub1.
	if got := s.met.engineRuns.Value(); got != 3 {
		t.Errorf("engine runs = %d, want 3 (blocker, old leader, new leader)", got)
	}
}
