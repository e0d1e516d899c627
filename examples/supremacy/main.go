// Supremacy: simulate a Google-quantum-supremacy-style random circuit — the
// motivating irregular workload of the FlatDD paper — with all three
// engines and show why the hybrid wins: the pure DD engine's per-gate cost
// explodes as the state scrambles, the array engine is steady but pays
// generic-indexing overhead, and FlatDD rides the DD phase while it is
// cheap, then switches to DMAV.
//
//	go run ./examples/supremacy
package main

import (
	"fmt"
	"time"

	"flatdd/internal/core"
	"flatdd/internal/harness"
	"flatdd/internal/workloads"
)

func main() {
	const n = 12
	c := workloads.SupremacyGrid(n, 40, 7)
	fmt.Printf("supremacy circuit: %d qubits (grid), %d gates, depth %d\n\n",
		c.Qubits, c.GateCount(), c.Depth())

	flat := harness.RunFlatDD(c, core.Options{Threads: 4}, time.Minute)
	fmt.Printf("FlatDD:    %10v  (DD phase for %d gates, then parallel DMAV)\n",
		flat.Runtime, flat.ConvertedAt)
	fmt.Printf("           dd=%v convert=%v dmav=%v, %d/%d DMAV gates used caching\n",
		flat.Stats.DDTime, flat.Stats.ConversionTime, flat.Stats.DMAVTime,
		flat.Stats.DMAVStats.CachedGates, flat.Stats.DMAVStats.Gates)

	dd := harness.RunDDSIM(c, time.Minute)
	fmt.Printf("DDSIM:     %10v  (pure DD: %s)\n", dd.Runtime, timedOut(dd))

	sv := harness.RunStatevec(c, 4, time.Minute)
	fmt.Printf("Quantum++: %10v  (flat array)\n\n", sv.Runtime)

	fmt.Printf("speed-up vs DDSIM:     %.2fx\n", dd.Runtime.Seconds()/flat.Runtime.Seconds())
	fmt.Printf("speed-up vs Quantum++: %.2fx\n", sv.Runtime.Seconds()/flat.Runtime.Seconds())
}

func timedOut(r harness.Result) string {
	if r.TimedOut {
		return "timed out"
	}
	return "completed"
}
