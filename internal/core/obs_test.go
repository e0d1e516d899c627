package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"flatdd/internal/circuit"
	"flatdd/internal/obs"
	"flatdd/internal/sched"
	"flatdd/internal/statevec"
	"flatdd/internal/workloads"
)

// TestControllerFiresOnFinalGate is the controller-driven companion of
// TestConversionOnLastGateStaysDD: instead of forcing conversion on the
// last gate, it finds the gate where the EWMA controller actually fires
// and truncates the circuit so that firing lands on the final gate. The
// `convertNow && i+1 < len(c.Gates)` guard must then suppress conversion:
// ConvertedAtGate stays -1, the run ends in the DD phase, the trace never
// flags Converted, and the amplitudes stay correct.
func TestControllerFiresOnFinalGate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 10
	full := randomCircuit(rng, n, 120)
	ref := New(n, Options{}).Run(full)
	if ref.ConvertedAtGate <= 0 {
		t.Fatalf("reference run did not convert (ConvertedAtGate=%d); pick a different seed", ref.ConvertedAtGate)
	}
	// ConvertedAtGate is the first DMAV gate, so the controller fired on
	// gate ConvertedAtGate-1. Truncating there makes that the final gate.
	trunc := circuit.New("trunc", n)
	trunc.Gates = append(trunc.Gates, full.Gates[:ref.ConvertedAtGate]...)

	var events []TraceEvent
	s := New(n, Options{Trace: func(e TraceEvent) { events = append(events, e) }})
	st := s.Run(trunc)
	if st.ConvertedAtGate != -1 {
		t.Fatalf("ConvertedAtGate = %d, want -1 when the controller fires on the final gate", st.ConvertedAtGate)
	}
	if s.Phase() != PhaseDD {
		t.Fatal("phase left DD with no remaining gates to run in DMAV")
	}
	if len(events) != trunc.GateCount() {
		t.Fatalf("got %d trace events, want %d", len(events), trunc.GateCount())
	}
	for _, e := range events {
		if e.Converted {
			t.Fatalf("gate %d flagged Converted, but no conversion happened", e.GateIndex)
		}
		if e.Phase != PhaseDD {
			t.Fatalf("gate %d ran in %v, want DD", e.GateIndex, e.Phase)
		}
	}
	sv := statevec.New(n, 2)
	sv.ApplyCircuit(trunc)
	got := s.Amplitudes()
	for i, w := range sv.Amplitudes() {
		if !approx(got[i], w) {
			t.Fatalf("amplitude %d: %v, want %v", i, got[i], w)
		}
	}
}

// TestMetricsRegistryEndToEnd runs a converting circuit with a live
// registry and checks that every instrumented layer reported in.
func TestMetricsRegistryEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 7
	c := randomCircuit(rng, n, 50)
	r := obs.New()
	s := New(n, Options{ForceConvertAfter: 10, Threads: 4, Metrics: r})
	st := s.Run(c)

	snap := r.Snapshot()
	ctr := func(name string) int64 { return snap.Counters[name] }
	if got := ctr("core.gates.dd"); got != 10 {
		t.Errorf("core.gates.dd = %d, want 10", got)
	}
	if got := ctr("core.gates.dmav"); got != int64(st.FusedGates) {
		t.Errorf("core.gates.dmav = %d, want %d", got, st.FusedGates)
	}
	if got := ctr("core.phase_transitions"); got != 1 {
		t.Errorf("core.phase_transitions = %d, want 1", got)
	}
	if got := snap.Gauges["core.converted_at_gate"]; got != 10 {
		t.Errorf("core.converted_at_gate = %d, want 10", got)
	}
	if got := ctr("convert.runs"); got != 1 {
		t.Errorf("convert.runs = %d, want 1", got)
	}
	if ctr("dd.unique.v.misses") == 0 {
		t.Error("dd.unique.v.misses never incremented")
	}
	if snap.Gauges["dd.nodes.peak"] != int64(st.PeakDDNodes) {
		t.Errorf("dd.nodes.peak = %d, want %d", snap.Gauges["dd.nodes.peak"], st.PeakDDNodes)
	}
	if ctr("cnum.lookups") == 0 {
		t.Error("cnum.lookups never incremented")
	}
	if got := ctr("dmav.gates"); got != int64(st.FusedGates) {
		t.Errorf("dmav.gates = %d, want %d", got, st.FusedGates)
	}
	if ctr("dmav.gates.cached")+ctr("dmav.gates.uncached") != ctr("dmav.gates") {
		t.Errorf("cached(%d)+uncached(%d) != gates(%d)",
			ctr("dmav.gates.cached"), ctr("dmav.gates.uncached"), ctr("dmav.gates"))
	}
	if snap.FloatGauges["core.ewma"] <= 0 {
		t.Error("core.ewma gauge never set")
	}
	h, ok := snap.Histograms["core.gate_ns.dd"]
	if !ok || h.Count != 10 {
		t.Errorf("core.gate_ns.dd histogram count = %d, want 10", h.Count)
	}
	if h, ok := snap.Histograms["dmav.apply_ns"]; !ok || h.Count != int64(st.FusedGates) {
		t.Errorf("dmav.apply_ns count = %d, want %d", h.Count, st.FusedGates)
	}

	// The per-worker MAC counts must sum to something positive and the
	// modeled total must be registered.
	if ctr("dmav.macs.modeled") <= 0 {
		t.Error("dmav.macs.modeled not populated")
	}

	// A registry-off run of the same circuit produces identical amplitudes.
	s2 := New(n, Options{ForceConvertAfter: 10, Threads: 4})
	s2.Run(c)
	got, want := s.Amplitudes(), s2.Amplitudes()
	for i := range want {
		if !approx(got[i], want[i]) {
			t.Fatalf("metrics changed amplitude %d: %v vs %v", i, got[i], want[i])
		}
	}
}

// TestFlatPhaseWiring pins how a run's concerns reach the flat phase:
// the conversion batch and the DMAV pool batches hang off their phase
// spans, the ledger credits CPU time to the convert and dmav phases, and
// the registry counts one conversion and every DMAV gate. A 4-qubit
// k-operations fusion makes the fused gates heavy enough at n=15 to run
// on the pool instead of inline.
func TestFlatPhaseWiring(t *testing.T) {
	const n = 15
	c, err := workloads.Build("qv", n, 1)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	led := obs.NewResourceLedger()
	root := obs.NewTracer(nil).Root("test", obs.TraceID{}, obs.SpanID{})
	s := New(n, Options{Threads: 2, ForceConvertAfter: 5, Fusion: KOps, Metrics: reg, Ledger: led})
	st, err := s.RunContext(obs.ContextWithSpan(context.Background(), root), c)
	if err != nil {
		t.Fatal(err)
	}
	if st.ConvertedAtGate != 5 {
		t.Fatalf("ConvertedAtGate = %d, want 5", st.ConvertedAtGate)
	}
	root.End()
	recs, _ := root.Collected()
	ids := map[string]string{} // phase span name -> span ID
	for _, r := range recs {
		if r.Name == "phase.convert" || r.Name == "phase.dmav" {
			ids[r.Name] = r.Span
		}
	}
	children := map[string]map[string]int{} // parent name -> child name -> count
	for _, r := range recs {
		for name, id := range ids {
			if r.Parent == id {
				if children[name] == nil {
					children[name] = map[string]int{}
				}
				children[name][r.Name]++
			}
		}
	}
	if children["phase.convert"]["convert.batch"] == 0 {
		t.Errorf("phase.convert children = %v, want a convert.batch", children["phase.convert"])
	}
	dm := children["phase.dmav"]
	if dm["dmav.rows"]+dm["dmav.chunks"]+dm["dmav.sum"] == 0 {
		t.Errorf("phase.dmav children = %v, want a dmav.rows, dmav.chunks or dmav.sum batch", dm)
	}

	cpu := map[string]int64{}
	for _, p := range led.Snapshot().Phases {
		cpu[p.Phase] += p.CPUNs
	}
	if cpu["convert"] <= 0 || cpu["dmav"] <= 0 {
		t.Errorf("ledger CPU: convert=%d dmav=%d, want both > 0", cpu["convert"], cpu["dmav"])
	}

	snap := reg.Snapshot()
	if got := snap.Counters["convert.runs"]; got != 1 {
		t.Errorf("convert.runs = %d, want 1", got)
	}
	if got := snap.Counters["dmav.gates"]; got != int64(st.DMAVStats.Gates) || got == 0 {
		t.Errorf("dmav.gates = %d, want the %d DMAV gates", got, st.DMAVStats.Gates)
	}
}

// TestAmplitudesConvertsOnOptionsPool: a DD-phase result is converted on
// the run's pool when one is given, so it shows up in that pool's task
// totals and in the run's scheduler counters.
func TestAmplitudesConvertsOnOptionsPool(t *testing.T) {
	pool := sched.New(2)
	defer pool.Close()
	reg := obs.New()
	n := 12
	s := New(n, Options{Pool: pool, Metrics: reg, MemoryBudget: 1})
	s.Run(ghz(n))
	before, tasksBefore := reg.Snapshot().Counters["sched.batches"], poolTasks(pool)
	amps := s.Amplitudes()
	if after := reg.Snapshot().Counters["sched.batches"]; after <= before {
		t.Fatalf("sched.batches %d -> %d: Amplitudes did not convert in the run's environment", before, after)
	}
	if after := poolTasks(pool); after <= tasksBefore {
		t.Fatalf("pool tasks %d -> %d: Amplitudes did not convert on Options.Pool", tasksBefore, after)
	}
	if !approx(amps[0], complex(1/math.Sqrt2, 0)) || !approx(amps[len(amps)-1], complex(1/math.Sqrt2, 0)) {
		t.Fatalf("GHZ amplitudes %v, %v", amps[0], amps[len(amps)-1])
	}
}

func poolTasks(p *sched.Pool) (n int64) {
	for _, w := range p.Stats() {
		n += w.Tasks
	}
	return n
}
