package serve

import (
	"fmt"
	"math/cmplx"
	"math/rand"
	"sync"

	"flatdd/internal/core"
)

// This file implements the canonical-circuit result cache and the
// machinery behind single-flight shot batching (DESIGN.md §13).
//
// Key derivation: a cache key is (canonical circuit hash, normalized
// engine options). The circuit hash (circuit.Hash) identifies what is
// simulated; the options string covers exactly the request fields that
// can change the simulated *state* or the reported engine statistics —
// the DMAV cache mode, the fusion mode, and the fusion width k. Fields
// that only shape the response (top, shots, seed) or the run's lifetime
// (timeout) are deliberately excluded: those are recomputed per request
// from the cached final state, which is what makes shot batching
// possible in the first place.
//
// An entry stores the top maxTopAmps amplitudes (the response cap, so
// any top= request can be served) and the cumulative probability
// distribution for shot sampling. The distribution is the expensive
// part — 8·2^n bytes — so it is only retained when it fits the per-entry
// budget; an entry without it still serves shot-less requests, and a
// shots>0 request against such an entry is a miss.

// maxTopAmps matches the submit-time cap on top= (normalize); storing
// this many amplitudes means every admissible request is servable.
const maxTopAmps = 1024

// cacheKey identifies one simulation outcome.
type cacheKey struct {
	circuit string // canonical circuit hash
	options string // normalized result-affecting engine options
}

// optionsKey renders the result-affecting slice of a job's options.
func optionsKey(o runOptions) string {
	return fmt.Sprintf("cache=%d fusion=%d", o.cache, o.fusion)
}

// cacheEntry is one cached simulation outcome.
type cacheEntry struct {
	qubits int
	// top holds the maxTopAmps largest-magnitude basis states, rendered
	// once; per-request top= slices a prefix.
	top []AmpView
	// cum is the cumulative probability distribution (index-ordered) for
	// seeded shot sampling; nil when the distribution was too large to
	// retain, in which case the entry cannot serve shots>0 requests.
	cum []float64
	// stats is the producing run's engine statistics with the per-job
	// Resources attribution stripped (a served hit did not spend them).
	stats ResultStats
	bytes int64
	seq   uint64 // recency stamp, maintained by resultCache
	// costNs is the ledger-observed engine cost of producing this entry
	// (worker CPU time; wall time when no ledger ran). It feeds the
	// cost-aware eviction priority: cheap-to-recompute entries go first.
	costNs int64
	// pri is the entry's GDSF priority (inflation + cost/size), assigned
	// by resultCache on insert and on every hit.
	pri float64
}

// servable reports whether the entry can answer a request with the given
// shot count.
func (e *cacheEntry) servable(shots int) bool {
	return e != nil && (shots <= 0 || e.cum != nil)
}

// resultCache is a bounded cache with cost-aware (GDSF-style) eviction.
// Each entry's priority is inflation + costNs/bytes: entries that were
// cheap to compute relative to the space they occupy evict first. The
// inflation term is the classic GreedyDual aging trick — it is raised to
// the evicted entry's priority on every eviction, so entries that have
// not been touched since long-ago insertions age out no matter how
// expensive they once were. Hits re-stamp the priority at the current
// inflation, which is what makes the scheme recency-aware: with uniform
// costs it degenerates to exact LRU (the seq tiebreak orders equal
// priorities by recency). Lock ordering: the server may call into the
// cache while holding Server.mu; the cache never calls back out.
type resultCache struct {
	mu        sync.Mutex
	budget    int64 // total byte budget; <= 0 disables the cache
	maxEntry  int64 // per-entry cap; larger results are not stored
	entries   map[cacheKey]*cacheEntry
	bytes     int64
	seq       uint64
	evicted   int64
	inflation float64 // GDSF aging floor; rises to each evicted priority
}

func newResultCache(budget, maxEntry int64) *resultCache {
	return &resultCache{
		budget:   budget,
		maxEntry: maxEntry,
		entries:  make(map[cacheKey]*cacheEntry),
	}
}

func (c *resultCache) enabled() bool { return c.budget > 0 }

// priority computes an entry's GDSF eviction priority at the current
// inflation. The cost/size ratio is "nanoseconds of engine work saved
// per byte of cache spent"; zero-cost entries sit at the inflation
// floor, where the seq tiebreak makes eviction pure LRU.
func (c *resultCache) priority(e *cacheEntry) float64 {
	if e.costNs <= 0 || e.bytes <= 0 {
		return c.inflation
	}
	return c.inflation + float64(e.costNs)/float64(e.bytes)
}

// get returns the entry for key if present and servable for the given
// shot count, bumping its recency and re-stamping its priority at the
// current inflation.
func (c *resultCache) get(key cacheKey, shots int) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	if !e.servable(shots) {
		return nil
	}
	c.seq++
	e.seq = c.seq
	e.pri = c.priority(e)
	return e
}

// put stores an entry, evicting lowest-priority entries until the
// budget holds: cheap-to-recompute entries go first, ties broken by
// recency. Oversized entries and a disabled cache are no-ops.
func (c *resultCache) put(key cacheKey, e *cacheEntry) bool {
	if e == nil || c.budget <= 0 || e.bytes > c.maxEntry || e.bytes > c.budget {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old := c.entries[key]; old != nil {
		c.bytes -= old.bytes
	}
	c.seq++
	e.seq = c.seq
	e.pri = c.priority(e)
	c.entries[key] = e
	c.bytes += e.bytes
	for c.bytes > c.budget {
		var vicKey cacheKey
		var vic *cacheEntry
		for k, v := range c.entries {
			if v == e {
				continue // never evict the entry just inserted
			}
			if vic == nil || v.pri < vic.pri || (v.pri == vic.pri && v.seq < vic.seq) {
				vicKey, vic = k, v
			}
		}
		if vic == nil {
			break
		}
		delete(c.entries, vicKey)
		c.bytes -= vic.bytes
		c.evicted++
		// Age the cache: everything inserted or touched from now on must
		// beat the priority this victim died at.
		if vic.pri > c.inflation {
			c.inflation = vic.pri
		}
	}
	return true
}

// Stats returns (entries, bytes, evictions) for gauges and /healthz.
func (c *resultCache) Stats() (int, int64, int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries), c.bytes, c.evicted
}

// buildCacheEntry captures a finished simulation as a cache entry. The
// cumulative distribution is built only when withProbs is set (it is the
// 8·2^n-byte part); the top-amplitude prefix is always captured.
func buildCacheEntry(j *job, sim *core.Simulator, st core.Stats, withProbs bool) *cacheEntry {
	n := j.circ.Qubits
	entries := sim.TopAmplitudes(maxTopAmps)
	top := make([]AmpView, 0, len(entries))
	for _, e := range entries {
		a := e.Amplitude
		top = append(top, AmpView{
			Basis:       fmt.Sprintf("%0*b", n, e.Index),
			Probability: cmplx.Abs(a) * cmplx.Abs(a),
			Re:          real(a),
			Im:          imag(a),
		})
	}
	e := &cacheEntry{
		qubits: n,
		top:    top,
		stats:  resultStats(st),
		costNs: entryCost(st),
	}
	e.stats.Resources = nil // per-job attribution does not transfer to hits
	if withProbs {
		probs := sim.Probabilities()
		cum := make([]float64, len(probs))
		acc := 0.0
		for i, p := range probs {
			acc += p
			cum[i] = acc
		}
		e.cum = cum
	}
	// Entry footprint: the distribution dominates; the amplitude views
	// cost ~64 B of numbers plus an n-char basis string each.
	e.bytes = int64(len(e.cum))*8 + int64(len(e.top))*int64(64+n)
	return e
}

// entryCost is the engine cost of recomputing an entry: the ledger's
// attributed worker CPU time when a ledger ran, otherwise the run's wall
// time. This is what the eviction policy weighs against entry size.
func entryCost(st core.Stats) int64 {
	if st.Resources != nil && st.Resources.CPUNs > 0 {
		return st.Resources.CPUNs
	}
	return st.TotalTime.Nanoseconds()
}

// resultFromEntry assembles a job's result from a cache entry, applying
// the job's own top= and drawing its own seeded shot stream.
func resultFromEntry(j *job, e *cacheEntry) *JobResult {
	top := e.top
	if j.opts.top < len(top) {
		top = top[:j.opts.top]
	}
	out := make([]AmpView, len(top))
	copy(out, top)
	res := &JobResult{
		ID:      j.id,
		Circuit: j.circ.Name,
		Tenant:  j.tenant,
		Cache:   j.cacheStatus,
		Stats:   e.stats,
		Top:     out,
	}
	if j.opts.shots > 0 {
		res.Shots = sampleFromCum(e.cum, e.qubits, j.opts.shots, j.opts.seed)
	}
	return res
}

// sampleFromCum draws seeded measurement shots from a cumulative
// distribution, matching core.Simulator.Sample's semantics (first index
// with x < cum[i], falling through to the last state) so a cache hit's
// shot stream is identical to a fresh simulation's for the same seed.
func sampleFromCum(cum []float64, n, shots int, seed int64) map[string]int {
	if shots <= 0 || len(cum) == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	counts := make(map[string]int)
	for k := 0; k < shots; k++ {
		x := rng.Float64()
		lo, hi := 0, len(cum)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if x < cum[mid] {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		counts[fmt.Sprintf("%0*b", n, uint64(lo))]++
	}
	return counts
}

// flight is one in-progress simulation with coalesced subscribers: the
// leader runs the engine; subscribers are fully admitted jobs that never
// enter the queue and are completed from the leader's entry, each with
// its own top= prefix and seeded shot stream. If the leader fails or is
// canceled, the oldest live subscriber is promoted to leader so the
// remaining subscribers still get a result.
type flight struct {
	leader *job
	subs   []*job
}
