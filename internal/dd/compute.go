package dd

import (
	"hash/maphash"

	"flatdd/internal/obs"
)

// ctBits sets the compute-table capacity to 2^ctBits entries. Compute
// tables are direct-mapped with overwrite-on-collision, the classic DD
// package design: memory stays bounded while the hit rate on the repetitive
// sub-computations of structured circuits stays high. A lost entry is a
// recompute, never a wrong answer: every cached value is a pure function
// of its key.
const ctBits = 17

type ctEntry[K comparable, V any] struct {
	key   K
	value V
	valid bool
}

// ctable is a direct-mapped memoization cache for DD operations.
type ctable[K comparable, V any] struct {
	seed    maphash.Seed
	entries []ctEntry[K, V]

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
	c.entries = make([]ctEntry[K, V], 1<<ctBits)
}

func (c *ctable[K, V]) slot(k K) *ctEntry[K, V] {
	return &c.entries[maphash.Comparable(c.seed, k)&(1<<ctBits-1)]
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
	*c.slot(k) = ctEntry[K, V]{key: k, value: v, valid: true}
}

// clear drops every entry: they hold raw node pointers the GC may have
// swept.
func (c *ctable[K, V]) clear() {
	clear(c.entries)
}
