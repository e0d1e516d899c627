package serve

import (
	"reflect"
	"testing"
	"time"

	"flatdd/internal/core"
	"flatdd/internal/obs"
)

// unit tests of the result cache's keying, LRU accounting, and shot
// sampling — the e2e behavior (hits without engine runs, coalescing)
// lives in cache_e2e_test.go.

func TestOptionsKeyIgnoresPerRequestFields(t *testing.T) {
	base := runOptions{}
	perRequest := runOptions{shots: 500, seed: 9, top: 3, timeout: 1}
	if optionsKey(base) != optionsKey(perRequest) {
		t.Errorf("shots/seed/top/timeout leaked into the cache key: %q vs %q",
			optionsKey(base), optionsKey(perRequest))
	}
	for name, o := range map[string]runOptions{
		"cache":  {cache: 1},
		"fusion": {fusion: 1},
	} {
		if optionsKey(o) == optionsKey(base) {
			t.Errorf("engine option %s does not change the cache key", name)
		}
	}
}

func TestResultCacheLRUEviction(t *testing.T) {
	c := newResultCache(300, 300)
	k := func(s string) cacheKey { return cacheKey{circuit: s} }
	e := func(bytes int64) *cacheEntry { return &cacheEntry{bytes: bytes} }

	if !c.put(k("a"), e(100)) || !c.put(k("b"), e(100)) {
		t.Fatal("puts within budget rejected")
	}
	if c.get(k("a"), 0) == nil {
		t.Fatal("entry a missing before eviction")
	}
	// a was just touched, so inserting an entry that overflows the budget
	// evicts b, the least recently used.
	if !c.put(k("c"), e(150)) {
		t.Fatal("put c rejected")
	}
	if c.get(k("b"), 0) != nil {
		t.Error("b survived eviction though it was LRU")
	}
	if c.get(k("a"), 0) == nil || c.get(k("c"), 0) == nil {
		t.Error("eviction removed the wrong entry")
	}
	entries, bytes, evictions := c.Stats()
	if entries != 2 || bytes != 250 || evictions != 1 {
		t.Errorf("Stats() = %d entries, %d bytes, %d evictions; want 2, 250, 1", entries, bytes, evictions)
	}
}

func TestResultCacheCostAwareEviction(t *testing.T) {
	c := newResultCache(300, 300)
	k := func(s string) cacheKey { return cacheKey{circuit: s} }

	// cheap costs 1ns/byte to recompute, exp costs 1000ns/byte.
	if !c.put(k("cheap"), &cacheEntry{bytes: 100, costNs: 100}) ||
		!c.put(k("exp"), &cacheEntry{bytes: 100, costNs: 100_000}) {
		t.Fatal("puts within budget rejected")
	}
	// Touch cheap so it is the most recently used; cost must still win.
	if c.get(k("cheap"), 0) == nil {
		t.Fatal("entry cheap missing before eviction")
	}
	if !c.put(k("new"), &cacheEntry{bytes: 150, costNs: 150}) {
		t.Fatal("put new rejected")
	}
	if c.get(k("cheap"), 0) != nil {
		t.Error("cheap-to-recompute entry survived though an expensive one was evictable")
	}
	if c.get(k("exp"), 0) == nil {
		t.Error("expensive entry evicted ahead of a cheap one")
	}
}

func TestResultCacheInflationAgesExpensiveEntries(t *testing.T) {
	// An expensive entry that is never touched again must not pin its
	// cache space forever: each eviction raises the inflation floor, so
	// fresh cheap entries eventually out-rank it.
	c := newResultCache(300, 300)
	k := func(s string) cacheKey { return cacheKey{circuit: s} }
	if !c.put(k("exp"), &cacheEntry{bytes: 100, costNs: 100_000}) {
		t.Fatal("put exp rejected")
	}
	// Probing with get would re-stamp exp's priority (a hit is a hit), so
	// the loop only inserts; exp must stay cold to age out.
	for i := 0; i < 500; i++ {
		c.put(cacheKey{circuit: "cheap", options: string(rune(i))}, &cacheEntry{bytes: 100, costNs: 1000})
	}
	if c.get(k("exp"), 0) != nil {
		t.Error("cold expensive entry never aged out under sustained cheap inserts")
	}
}

func TestEntryCostPrefersLedgerCPU(t *testing.T) {
	st := core.Stats{TotalTime: 5 * time.Millisecond}
	if got := entryCost(st); got != st.TotalTime.Nanoseconds() {
		t.Errorf("entryCost without ledger = %d, want wall time %d", got, st.TotalTime.Nanoseconds())
	}
	st.Resources = &obs.LedgerSnapshot{CPUNs: 42_000}
	if got := entryCost(st); got != 42_000 {
		t.Errorf("entryCost with ledger = %d, want CPUNs 42000", got)
	}
}

func TestResultCacheLimits(t *testing.T) {
	c := newResultCache(300, 200)
	if c.put(cacheKey{circuit: "big"}, &cacheEntry{bytes: 250}) {
		t.Error("entry above maxEntry admitted")
	}
	disabled := newResultCache(0, 200)
	if disabled.enabled() {
		t.Error("zero-budget cache reports enabled")
	}
	if disabled.put(cacheKey{circuit: "x"}, &cacheEntry{bytes: 1}) {
		t.Error("disabled cache accepted an entry")
	}
}

func TestResultCacheShotsNeedDistribution(t *testing.T) {
	c := newResultCache(1<<20, 1<<20)
	key := cacheKey{circuit: "no-cum"}
	c.put(key, &cacheEntry{qubits: 30, bytes: 64}) // too large for a stored distribution
	if c.get(key, 100) != nil {
		t.Error("entry without a distribution served a shots request")
	}
	if c.get(key, 0) == nil {
		t.Error("entry without a distribution refused a shot-less request")
	}
}

func TestSampleFromCumDeterministicPerSeed(t *testing.T) {
	cum := []float64{0.5, 1.0} // single qubit, equal superposition
	a1 := sampleFromCum(cum, 1, 1000, 7)
	a2 := sampleFromCum(cum, 1, 1000, 7)
	if !reflect.DeepEqual(a1, a2) {
		t.Errorf("same seed, different streams: %v vs %v", a1, a2)
	}
	total := 0
	for bits, n := range a1 {
		if bits != "0" && bits != "1" {
			t.Errorf("impossible basis state %q", bits)
		}
		total += n
	}
	if total != 1000 {
		t.Errorf("drew %d shots, want 1000", total)
	}
	// Skewed distribution: the heavy state dominates.
	heavy := sampleFromCum([]float64{0.99, 1.0}, 1, 1000, 3)
	if heavy["0"] < 900 {
		t.Errorf("P=0.99 state drew only %d of 1000", heavy["0"])
	}
}
