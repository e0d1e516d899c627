package cluster

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// ring is a consistent-hash ring over replica names. Each replica owns
// vnodes points on a 64-bit circle; a key's owner is the replica of the
// first point at or after the key's hash (wrapping). Preference returns
// the distinct replicas in ring-walk order, so when the first choice is
// dead its hash range falls to the next replica on the ring — and only
// that range moves, which is what preserves the per-replica result-cache
// locality PR 9 built (the same canonical circuit hash keeps landing on
// the same replica across unrelated membership changes).
//
// The ring is immutable after build: membership transitions do not
// rebuild it. Liveness filtering happens at lookup time (the coordinator
// walks the preference list and takes the first routable replica), so a
// replica flapping between suspect and alive never reshuffles ranges it
// still owns.
type ring struct {
	points []ringPoint // sorted by hash
	names  []string    // distinct replica names, build order
}

type ringPoint struct {
	hash    uint64
	replica string
}

func newRing(names []string, vnodes int) *ring {
	r := &ring{
		points: make([]ringPoint, 0, len(names)*vnodes),
		names:  append([]string(nil), names...),
	}
	for _, name := range names {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{
				hash:    hashKey(name + "#" + strconv.Itoa(i)),
				replica: name,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Deterministic order for (vanishingly unlikely) hash collisions.
		return r.points[i].replica < r.points[j].replica
	})
	return r
}

// hashKey maps an arbitrary key (a canonical circuit hash, a vnode
// label) onto the ring circle. Raw FNV-64a clusters badly on the short,
// near-identical vnode labels ("a#0", "a#1", ...), leaving some
// replicas with several-times-average arcs, so the FNV value is run
// through a splitmix64-style finalizer to spread the points uniformly.
func hashKey(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key)) //nolint:errcheck // fnv never fails
	z := h.Sum64()
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// Preference returns up to max distinct replicas for a key, in ring-walk
// order starting at the key's owner. max <= 0 returns all replicas.
func (r *ring) Preference(key string, max int) []string {
	if len(r.points) == 0 {
		return nil
	}
	if max <= 0 || max > len(r.names) {
		max = len(r.names)
	}
	h := hashKey(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, max)
	seen := make(map[string]bool, max)
	for i := 0; i < len(r.points) && len(out) < max; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.replica] {
			seen[p.replica] = true
			out = append(out, p.replica)
		}
	}
	return out
}
