package dd

import "time"

// Garbage collection. DD packages conventionally reference-count nodes; we
// instead run a mark-and-sweep over the unique tables from a set of live
// roots. Compute tables hold raw node pointers, so they are cleared on every
// collection — a stale entry whose node was swept could otherwise alias a
// newly allocated node.

// Roots is the set of live DD roots a caller wants preserved across a
// collection.
type Roots struct {
	V []VEdge
	M []MEdge
}

// Collect sweeps every node not reachable from roots out of the unique
// tables and clears the compute tables. It returns the number of nodes
// removed.
func (m *Manager) Collect(roots Roots) int {
	start := time.Now()
	for _, e := range roots.V {
		if !e.IsZero() {
			markV(e.N)
		}
	}
	for _, e := range roots.M {
		if !e.IsZero() {
			markM(e.N)
		}
	}
	// Sweep: survivors have their mark cleared for the next collection.
	removed := 0
	for k, n := range m.vUnique {
		if n.marked {
			n.marked = false
		} else {
			delete(m.vUnique, k)
			removed++
		}
	}
	for k, n := range m.mUnique {
		if n.marked {
			n.marked = false
		} else {
			delete(m.mUnique, k)
			removed++
		}
	}
	m.nodeCount -= removed
	m.addCT.clear()
	m.maddCT.clear()
	m.mvCT.clear()
	m.mmCT.clear()
	m.met.gcRuns.Inc()
	m.met.gcReclaimed.Add(int64(removed))
	m.met.gcPauseNs.Add(time.Since(start).Nanoseconds())
	return removed
}

// SetGCThreshold sets the node count above which CollectIfNeeded runs a
// collection. Non-positive values disable automatic collection.
func (m *Manager) SetGCThreshold(n int) { m.gcThreshold = n }

// CollectIfNeeded runs Collect(roots) when the node count exceeds the GC
// threshold. It returns the number of nodes removed (0 when no collection
// ran).
func (m *Manager) CollectIfNeeded(roots Roots) int {
	if m.gcThreshold <= 0 || m.NodeCount() <= m.gcThreshold {
		return 0
	}
	return m.Collect(roots)
}

func markV(n *VNode) {
	if n.Level == TerminalLevel || n.marked {
		return
	}
	n.marked = true
	for _, c := range n.E {
		if !c.IsZero() {
			markV(c.N)
		}
	}
}

func markM(n *MNode) {
	if n.Level == TerminalLevel || n.marked {
		return
	}
	n.marked = true
	for _, c := range n.E {
		if !c.IsZero() {
			markM(c.N)
		}
	}
}
