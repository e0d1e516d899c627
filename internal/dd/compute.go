package dd

import (
	"hash/maphash"

	"flatdd/internal/obs"
)

// Compute tables are direct-mapped with overwrite-on-collision, the classic
// DD package design: memory stays bounded while the hit rate on the
// repetitive sub-computations of structured circuits stays high. A lost
// entry is a recompute, never a wrong answer: every cached value is a pure
// function of its key, so a table's capacity moves only its hit rate.
//
// A table is sized from its use. It starts at 2^ctMinBits slots and
// doubles each time more than half of its slots hold an entry, up to
// 2^ctMaxBits. A job that puts few entries never pays for the full
// table; a DD-heavy run ends up at the cap.
const (
	ctMinBits = 10
	ctMaxBits = 17
)

type ctEntry[K comparable, V any] struct {
	key   K
	value V
	valid bool
}

// ctable is a direct-mapped memoization cache for DD operations.
type ctable[K comparable, V any] struct {
	seed    maphash.Seed
	entries []ctEntry[K, V]
	// used counts the slots holding a valid entry.
	used int

	// lookups and hits count over the table's lifetime; clear keeps them.
	lookups uint64
	hits    uint64

	// Optional registry handles (nil when metrics are off; the handle
	// methods no-op after one pointer check).
	obsLookups *obs.Counter
	obsHits    *obs.Counter
}

// setMetrics attaches (or, with nil counters, detaches) registry handles.
func (c *ctable[K, V]) setMetrics(lookups, hits *obs.Counter) {
	c.obsLookups = lookups
	c.obsHits = hits
}

func (c *ctable[K, V]) init() {
	c.seed = maphash.MakeSeed()
	c.entries = make([]ctEntry[K, V], 1<<ctMinBits)
}

func (c *ctable[K, V]) slot(k K) *ctEntry[K, V] {
	return &c.entries[maphash.Comparable(c.seed, k)&uint64(len(c.entries)-1)]
}

func (c *ctable[K, V]) get(k K) (V, bool) {
	c.lookups++
	c.obsLookups.Inc()
	if e := c.slot(k); e.valid && e.key == k {
		c.hits++
		c.obsHits.Inc()
		return e.value, true
	}
	var zero V
	return zero, false
}

func (c *ctable[K, V]) put(k K, v V) {
	e := c.slot(k)
	if !e.valid {
		c.used++
	}
	*e = ctEntry[K, V]{key: k, value: v, valid: true}
	if 2*c.used > len(c.entries) && len(c.entries) < 1<<ctMaxBits {
		c.grow()
	}
}

// grow doubles the table and re-inserts every valid entry. The seed is
// kept, so an entry in old slot i lands in new slot i or i+len(old): two
// survivors never collide, and every entry cached before a grow is still
// found after it.
func (c *ctable[K, V]) grow() {
	old := c.entries
	c.entries = make([]ctEntry[K, V], 2*len(old))
	for i := range old {
		if old[i].valid {
			*c.slot(old[i].key) = old[i]
		}
	}
}

// clear drops every entry, keeping the capacity: they hold raw node
// pointers the GC may have swept.
func (c *ctable[K, V]) clear() {
	clear(c.entries)
	c.used = 0
}
