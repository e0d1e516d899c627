package dd

import "flatdd/internal/obs"

// metrics holds the manager's observability handles. The zero value (all
// nil) is the disabled state: every handle method no-ops after one pointer
// check, so unmetered managers pay nothing beyond that check on the node
// construction and compute-table paths.
type metrics struct {
	vHits, vMisses *obs.Counter
	mHits, mMisses *obs.Counter
	peakNodes      *obs.Gauge
	gcRuns         *obs.Counter
	gcPauseNs      *obs.Counter
	gcReclaimed    *obs.Counter
}

// SetMetrics attaches the manager (and its complex-number table and compute
// tables) to a registry. Metric names are documented in DESIGN.md
// ("Observability"). Passing a nil registry detaches everything.
func (m *Manager) SetMetrics(r *obs.Registry) {
	m.met = metrics{
		vHits:       r.Counter("dd.unique.v.hits"),
		vMisses:     r.Counter("dd.unique.v.misses"),
		mHits:       r.Counter("dd.unique.m.hits"),
		mMisses:     r.Counter("dd.unique.m.misses"),
		peakNodes:   r.Gauge("dd.nodes.peak"),
		gcRuns:      r.Counter("dd.gc.runs"),
		gcPauseNs:   r.Counter("dd.gc.pause_ns"),
		gcReclaimed: r.Counter("dd.gc.reclaimed"),
	}
	m.addCT.setMetrics(r.Counter("dd.ct.add.lookups"), r.Counter("dd.ct.add.hits"))
	m.maddCT.setMetrics(r.Counter("dd.ct.madd.lookups"), r.Counter("dd.ct.madd.hits"))
	m.mvCT.setMetrics(r.Counter("dd.ct.mv.lookups"), r.Counter("dd.ct.mv.hits"))
	m.mmCT.setMetrics(r.Counter("dd.ct.mm.lookups"), r.Counter("dd.ct.mm.hits"))
	m.C.SetMetrics(r)
}
