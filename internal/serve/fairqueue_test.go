package serve

import (
	"testing"
	"time"
)

// dispatch order of the round-robin queue, exercised directly — the e2e
// counterpart lives in tenants_test.go.

func fqJob(tenant string) *job { return &job{tenant: tenant} }

// popN pops n jobs and returns the dispatch counts per tenant.
func popN(t *testing.T, q *fairQueue, n int) map[string]int {
	t.Helper()
	counts := map[string]int{}
	for i := 0; i < n; i++ {
		j := q.Pop()
		if j == nil {
			t.Fatalf("Pop %d returned nil on an open queue", i)
		}
		counts[j.tenant]++
	}
	return counts
}

func TestFairQueueEqualWeightsInterleave(t *testing.T) {
	q := newFairQueue()
	for i := 0; i < 10; i++ {
		q.Push(fqJob("a"))
	}
	for i := 0; i < 10; i++ {
		q.Push(fqJob("b"))
	}
	// b queued all of its jobs behind a's, yet the two alternate.
	for i := 0; i < 20; i++ {
		want := []string{"a", "b"}[i%2]
		if j := q.Pop(); j.tenant != want {
			t.Fatalf("pop %d = %q, want %q", i, j.tenant, want)
		}
	}
}

// TestFairQueueReactivationNoBurst pins the re-activation rule: a tenant
// that was idle while others ran joins the back of the ring instead of
// replaying its missed turns as a burst.
func TestFairQueueReactivationNoBurst(t *testing.T) {
	q := newFairQueue()
	for i := 0; i < 6; i++ {
		q.Push(fqJob("a"))
	}
	popN(t, q, 3) // a runs alone for three turns
	q.Push(fqJob("b"))
	q.Push(fqJob("b"))

	// a was already in the ring, so it keeps its turn; b then gets one
	// turn per round like a — no catch-up burst of b's.
	for i, want := range []string{"a", "b", "a", "b", "a"} {
		if j := q.Pop(); j.tenant != want {
			t.Fatalf("pop %d after reactivation = %q, want %q", i, j.tenant, want)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("len = %d after draining, want 0", q.Len())
	}
}

func TestFairQueueCloseUnblocks(t *testing.T) {
	q := newFairQueue()
	got := make(chan *job, 1)
	go func() { got <- q.Pop() }()
	time.Sleep(10 * time.Millisecond)
	q.Close()
	select {
	case j := <-got:
		if j != nil {
			t.Fatalf("Pop on closed queue = %+v, want nil", j)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock Pop")
	}
	if q.Push(fqJob("a")) {
		t.Fatal("Push accepted a job after Close")
	}
	if q.Pop() != nil {
		t.Fatal("Pop on a closed empty queue did not return nil")
	}
}

func TestFairQueueAccounting(t *testing.T) {
	q := newFairQueue()
	q.Push(fqJob("a"))
	q.Push(fqJob("a"))
	q.Push(fqJob("b"))
	if q.Len() != 3 || q.TenantQueued("a") != 2 || q.TenantQueued("b") != 1 {
		t.Fatalf("len=%d a=%d b=%d", q.Len(), q.TenantQueued("a"), q.TenantQueued("b"))
	}
	j := q.Pop()
	if j.tenant != "a" || q.Len() != 2 || q.TenantQueued("a") != 1 {
		t.Fatalf("after pop of %s: len=%d a=%d", j.tenant, q.Len(), q.TenantQueued("a"))
	}
	popN(t, q, 2)
	if q.Len() != 0 || q.TenantQueued("a") != 0 || q.TenantQueued("b") != 0 || q.TenantQueued("ghost") != 0 {
		t.Fatalf("drained: len=%d a=%d b=%d", q.Len(), q.TenantQueued("a"), q.TenantQueued("b"))
	}
}
