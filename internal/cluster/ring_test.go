package cluster

import (
	"fmt"
	"testing"
)

func TestRingDeterministic(t *testing.T) {
	names := []string{"a", "b", "c"}
	r1 := newRing(names, 64)
	r2 := newRing(names, 64)
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("circuit-%d", i)
		if r1.Owner(key) != r2.Owner(key) {
			t.Fatalf("key %q: owners differ across identical rings", key)
		}
	}
}

func TestRingPreferenceDistinct(t *testing.T) {
	r := newRing([]string{"a", "b", "c"}, 64)
	pref := r.Preference("some-circuit-hash", 0)
	if len(pref) != 3 {
		t.Fatalf("want all 3 replicas in preference list, got %v", pref)
	}
	seen := map[string]bool{}
	for _, name := range pref {
		if seen[name] {
			t.Fatalf("duplicate replica %q in preference list %v", name, pref)
		}
		seen[name] = true
	}
}

func TestRingBalance(t *testing.T) {
	names := []string{"a", "b", "c", "d"}
	r := newRing(names, 64)
	counts := map[string]int{}
	const keys = 10000
	for i := 0; i < keys; i++ {
		counts[r.Owner(fmt.Sprintf("key-%d", i))]++
	}
	for _, name := range names {
		frac := float64(counts[name]) / keys
		// Perfect balance is 0.25; 64 vnodes keeps every replica well
		// within a 2x band of the mean.
		if frac < 0.125 || frac > 0.5 {
			t.Errorf("replica %s owns %.1f%% of keys (counts %v)", name, 100*frac, counts)
		}
	}
}

// TestRingStability is the cache-locality property: removing one replica
// (as failover does by skipping it) must move only that replica's keys —
// every key owned by a survivor keeps its owner.
func TestRingStability(t *testing.T) {
	names := []string{"a", "b", "c", "d"}
	full := newRing(names, 64)
	const keys = 2000
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("key-%d", i)
		owner := full.Owner(key)
		// Simulate replica "b" dying: walk the preference list skipping b,
		// exactly as routeSubmit does.
		var failoverOwner string
		for _, cand := range full.Preference(key, 0) {
			if cand != "b" {
				failoverOwner = cand
				break
			}
		}
		if owner != "b" && failoverOwner != owner {
			t.Fatalf("key %q moved from %s to %s although %s survived", key, owner, failoverOwner, owner)
		}
		if owner == "b" && failoverOwner == "b" {
			t.Fatalf("key %q still routed to dead replica b", key)
		}
	}
}

func TestRingSingleReplica(t *testing.T) {
	r := newRing([]string{"solo"}, 64)
	if got := r.Owner("anything"); got != "solo" {
		t.Fatalf("single-replica ring routed to %q", got)
	}
	if pref := r.Preference("anything", 5); len(pref) != 1 {
		t.Fatalf("single-replica preference list: %v", pref)
	}
}

func TestRingEmpty(t *testing.T) {
	r := newRing(nil, 64)
	if got := r.Owner("anything"); got != "" {
		t.Fatalf("empty ring returned owner %q", got)
	}
}

// Owner returns the key's first-choice replica.
func (r *ring) Owner(key string) string {
	pref := r.Preference(key, 1)
	if len(pref) == 0 {
		return ""
	}
	return pref[0]
}
