package harness

import (
	"fmt"
	"io"
	"math"
	"time"

	"flatdd/internal/core"
	"flatdd/internal/ddsim"
	"flatdd/internal/dmav"
	"flatdd/internal/obs"
)

// Config parameterizes an experiment run.
type Config struct {
	Scale   Scale
	Threads int           // worker count for FlatDD and Quantum++ (paper: 16)
	Timeout time.Duration // per-engine-run cutoff (paper: 24 h)
	Out     io.Writer
	// CSVDir, when non-empty, additionally saves every rendered table as
	// <CSVDir>/<experiment-id>.csv for external plotting.
	CSVDir string
	// Reps re-runs every timed engine cell this many times (default 1);
	// tables then show mean ±stddev.
	Reps int
}

func (c Config) withDefaults() Config {
	if c.Scale == "" {
		c.Scale = ScaleSmall
	}
	if c.Reps < 1 {
		c.Reps = 1
	}
	if c.Threads < 1 {
		c.Threads = 16
	}
	if c.Timeout <= 0 {
		c.Timeout = 5 * time.Minute
	}
	return c
}

// Fig1 reproduces Figure 1: normalized runtime and memory of the DD-based
// and array-based baselines on two regular and two irregular circuits.
func Fig1(cfg Config) []Result {
	cfg = cfg.withDefaults()
	tbl := NewTable("Figure 1: DD-based vs array-based simulation (normalized; lower is better)",
		"Circuit", "Qubits", "Gates", "DD runtime", "Array runtime", "DD rt (norm)", "Array rt (norm)",
		"DD memory", "Array memory", "DD mem (norm)", "Array mem (norm)")
	var all []Result
	for _, nc := range Fig1Circuits(cfg.Scale) {
		nc := nc
		dd, dw := cfg.runReps(func() Result { return RunDDSIM(nc.C, cfg.Timeout) })
		arr, aw := cfg.runReps(func() Result { return RunStatevec(nc.C, cfg.Threads, cfg.Timeout) })
		all = append(all, dd, arr)
		ddSec, arrSec := dw.MeanNs/1e9, aw.MeanNs/1e9
		minRT := math.Min(ddSec, arrSec)
		minMem := float64(minU64(dd.Memory, arr.Memory))
		tbl.AddRow(nc.Label, nc.C.Qubits, nc.C.GateCount(),
			fmtRun(dd, dw), fmtRun(arr, aw),
			ddSec/minRT, arrSec/minRT,
			fmtMB(dd.Memory), fmtMB(arr.Memory),
			float64(dd.Memory)/minMem, float64(arr.Memory)/minMem)
	}
	emit(cfg, "fig1", tbl)
	return all
}

// Fig3 reproduces Figure 3: the per-gate runtime trace of FlatDD showing
// the DD phase, the conversion point, and the stable DMAV phase.
func Fig3(cfg Config) core.Stats {
	cfg = cfg.withDefaults()
	nc := Fig1Circuits(cfg.Scale)[2] // the DNN circuit
	var events []core.TraceEvent
	opts := core.Options{Threads: cfg.Threads, Trace: func(e core.TraceEvent) { events = append(events, e) }}
	res := RunFlatDD(nc.C, opts, cfg.Timeout)
	tbl := NewTable(fmt.Sprintf("Figure 3: FlatDD per-gate trace on %s (conversion at gate %d)",
		nc.Label, res.ConvertedAt),
		"Gate", "Engine", "DD size", "EWMA", "Gate runtime")
	step := len(events) / 40
	if step < 1 {
		step = 1
	}
	for i, e := range events {
		if i%step != 0 && !e.Converted {
			continue
		}
		mark := ""
		if e.Converted {
			mark = " <= convert"
		}
		tbl.AddRow(fmt.Sprintf("%d%s", e.GateIndex, mark), e.Phase.String(), e.DDSize, e.EWMA, e.Duration)
	}
	emit(cfg, "fig3", tbl)
	// Inline chart of the full per-gate runtime series (log scale), the
	// visual shape of Figure 3: flat DD phase, conversion spike, steady
	// DMAV plateau.
	times := make([]float64, len(events))
	sizes := make([]float64, len(events))
	for i, ev := range events {
		times[i] = ev.Duration.Seconds()
		sizes[i] = float64(ev.DDSize)
	}
	fmt.Fprintf(cfg.Out, "per-gate runtime (log): %s\n", LogSparkline(Downsample(times, 72)))
	fmt.Fprintf(cfg.Out, "state-DD size:          %s\n\n", Sparkline(Downsample(sizes, 72)))
	return *res.Stats
}

// Table1 reproduces Table 1: runtime and memory of FlatDD, DDSIM and
// Quantum++ over the 12-circuit suite, with per-circuit speed-ups and
// geometric means.
func Table1(cfg Config) []Result {
	cfg = cfg.withDefaults()
	tbl := NewTable(fmt.Sprintf("Table 1: overall comparison (threads=%d, timeout=%v)", cfg.Threads, cfg.Timeout),
		"Circuit", "n", "Gates",
		"FlatDD rt", "FlatDD mem",
		"DDSIM rt", "DDSIM speedup", "DDSIM mem",
		"Q++ rt", "Q++ speedup", "Q++ mem")
	var all []Result
	var fRT, dRT, qRT, fMem, dMem, qMem, dSp, qSp []float64
	for _, nc := range Table1Circuits(cfg.Scale) {
		nc := nc
		f, fw := cfg.runReps(func() Result { return RunFlatDD(nc.C, core.Options{Threads: cfg.Threads}, cfg.Timeout) })
		d, dw := cfg.runReps(func() Result { return RunDDSIM(nc.C, cfg.Timeout) })
		q, qw := cfg.runReps(func() Result { return RunStatevec(nc.C, cfg.Threads, cfg.Timeout) })
		all = append(all, f, d, q)
		sd := dw.MeanNs / fw.MeanNs
		sq := qw.MeanNs / fw.MeanNs
		tbl.AddRow(nc.Label, nc.C.Qubits, nc.C.GateCount(),
			fmtRun(f, fw), fmtMB(f.Memory),
			fmtRun(d, dw), fmtSpeedup(sd, d.TimedOut), fmtMB(d.Memory),
			fmtRun(q, qw), fmtSpeedup(sq, q.TimedOut), fmtMB(q.Memory))
		fRT = append(fRT, fw.MeanNs/1e9)
		dRT = append(dRT, dw.MeanNs/1e9)
		qRT = append(qRT, qw.MeanNs/1e9)
		fMem = append(fMem, float64(f.Memory))
		dMem = append(dMem, float64(d.Memory))
		qMem = append(qMem, float64(q.Memory))
		dSp = append(dSp, sd)
		qSp = append(qSp, sq)
	}
	tbl.AddRow("Geomean", "", "",
		fmtSeconds(time.Duration(GeoMean(fRT)*float64(time.Second))), fmtMB(uint64(GeoMean(fMem))),
		fmtSeconds(time.Duration(GeoMean(dRT)*float64(time.Second))), fmtSpeedup(GeoMean(dSp), anyTimedOut(all, EngineDDSIM)), fmtMB(uint64(GeoMean(dMem))),
		fmtSeconds(time.Duration(GeoMean(qRT)*float64(time.Second))), fmtSpeedup(GeoMean(qSp), anyTimedOut(all, EngineQuantum)), fmtMB(uint64(GeoMean(qMem))))
	emit(cfg, "table1", tbl)
	return all
}

// Fig11 reproduces Figure 11: per-gate runtime of the three engines on one
// DNN and one supremacy circuit, bucketed over gate indices.
func Fig11(cfg Config) {
	cfg = cfg.withDefaults()
	set := DeepCircuits(cfg.Scale)
	for _, nc := range []Named{set[1], set[4]} { // a DNN and a supremacy circuit
		var flat []core.TraceEvent
		RunFlatDD(nc.C, core.Options{Threads: cfg.Threads,
			Trace: func(e core.TraceEvent) { flat = append(flat, e) }}, cfg.Timeout)
		ddTimes := TraceDDSIM(nc.C, cfg.Timeout)
		svTimes := TraceStatevec(nc.C, cfg.Threads)
		buckets := 20
		tbl := NewTable(fmt.Sprintf("Figure 11: per-gate runtime on %s (bucket averages)", nc.Label),
			"Gates", "FlatDD", "DDSIM", "Quantum++")
		total := nc.C.GateCount()
		for b := 0; b < buckets; b++ {
			lo := b * total / buckets
			hi := (b + 1) * total / buckets
			if lo >= hi {
				continue
			}
			tbl.AddRow(fmt.Sprintf("%d-%d", lo, hi-1),
				avgEventDur(flat, lo, hi), avgDur(ddTimes, lo, hi), avgDur(svTimes, lo, hi))
		}
		emit(cfg, "fig11-"+nc.Label, tbl)
		flatS := make([]float64, len(flat))
		for i, ev := range flat {
			flatS[i] = ev.Duration.Seconds()
		}
		fmt.Fprintf(cfg.Out, "FlatDD    (log): %s\n", LogSparkline(Downsample(flatS, 72)))
		fmt.Fprintf(cfg.Out, "DDSIM     (log): %s\n", LogSparkline(Downsample(DurationSeries(ddTimes), 72)))
		fmt.Fprintf(cfg.Out, "Quantum++ (log): %s\n\n", LogSparkline(Downsample(DurationSeries(svTimes), 72)))
	}
}

// Fig12 reproduces Figure 12: runtime of FlatDD and Quantum++ at 1..16
// threads on a supremacy and a KNN circuit.
func Fig12(cfg Config) map[string]map[int][2]time.Duration {
	cfg = cfg.withDefaults()
	// 3 is deliberate: the scheduler accepts arbitrary thread counts, so
	// the sweep exercises a non-power-of-two point.
	threadCounts := []int{1, 2, 3, 4, 8, 16}
	out := make(map[string]map[int][2]time.Duration)
	for _, nc := range ScalabilityCircuits(cfg.Scale) {
		tbl := NewTable(fmt.Sprintf("Figure 12: thread scalability on %s", nc.Label),
			"Threads", "FlatDD", "FlatDD speedup vs t=1", "Quantum++", "Q++ speedup vs t=1")
		rows := make(map[int][2]time.Duration)
		var f1, q1 time.Duration
		for _, t := range threadCounts {
			t := t
			f, fw := cfg.runReps(func() Result { return RunFlatDD(nc.C, core.Options{Threads: t}, cfg.Timeout) })
			q, qw := cfg.runReps(func() Result { return RunStatevec(nc.C, t, cfg.Timeout) })
			fMean, qMean := time.Duration(fw.MeanNs), time.Duration(qw.MeanNs)
			rows[t] = [2]time.Duration{fMean, qMean}
			if t == 1 {
				f1, q1 = fMean, qMean
			}
			tbl.AddRow(t, fmtRun(f, fw), fmtSpeedup(f1.Seconds()/fMean.Seconds(), false),
				fmtRun(q, qw), fmtSpeedup(q1.Seconds()/qMean.Seconds(), false))
		}
		out[nc.Label] = rows
		emit(cfg, "fig12-"+nc.Label, tbl)
	}
	return out
}

// Fig13 reproduces Figure 13: FlatDD's parallel DD-to-array conversion vs
// the sequential DDSIM-style conversion, in absolute time and as a share
// of total simulation time (for the sequential one, of the FlatDD run
// with its conversion swapped for the sequential one).
func Fig13(cfg Config) {
	cfg = cfg.withDefaults()
	tbl := NewTable(fmt.Sprintf("Figure 13: DD-to-array conversion, parallel (FlatDD) vs sequential (DDSIM-style), threads=%d", cfg.Threads),
		"Circuit", "Converted at", "Parallel conv", "Sequential conv", "Conv speedup",
		"Parallel conv %", "Sequential conv %")
	var speedups []float64
	for _, nc := range ConversionCircuits(cfg.Scale) {
		par := RunFlatDD(nc.C, core.Options{Threads: cfg.Threads}, cfg.Timeout)
		if par.ConvertedAt < 0 {
			tbl.AddRow(nc.Label, "never", "-", "-", "-", "-", "-")
			continue
		}
		// Replay the run's DD phase, then time what its conversion phase
		// covers: the array's allocation and the conversion.
		s := ddsim.New(nc.C.Qubits)
		for i := range nc.C.Gates[:par.ConvertedAt] {
			s.ApplyGate(&nc.C.Gates[i])
		}
		start := time.Now()
		s.Manager().FillArray(s.State(), nc.C.Qubits, make([]complex128, uint64(1)<<uint(nc.C.Qubits)))
		seqConv, parConv := time.Since(start), par.Stats.ConversionTime
		sp := seqConv.Seconds() / parConv.Seconds()
		speedups = append(speedups, sp)
		tbl.AddRow(nc.Label, par.ConvertedAt,
			parConv, seqConv, fmtSpeedup(sp, false),
			fmt.Sprintf("%.2f%%", 100*parConv.Seconds()/par.Runtime.Seconds()),
			fmt.Sprintf("%.2f%%", 100*seqConv.Seconds()/(par.Runtime-parConv+seqConv).Seconds()))
	}
	if len(speedups) > 0 {
		tbl.AddRow("Geomean", "", "", "", fmtSpeedup(GeoMean(speedups), false), "", "")
	}
	emit(cfg, "fig13", tbl)
}

// Fig14 reproduces Figure 14: computational-cost reduction and measured
// speed-up of DMAV caching over 1..16 threads on the six deep circuits.
func Fig14(cfg Config) {
	cfg = cfg.withDefaults()
	threadCounts := []int{1, 2, 4, 8, 16}
	tbl := NewTable("Figure 14: DMAV caching vs no caching (average over the six deep circuits)",
		"Threads", "Cost reduction %", "Speedup %")
	for _, t := range threadCounts {
		var reds, sps []float64
		for _, nc := range DeepCircuits(cfg.Scale) {
			noc := RunFlatDD(nc.C, core.Options{Threads: t, CacheMode: dmav.NeverCache, ForceConvertAfter: 1}, cfg.Timeout)
			auto := RunFlatDD(nc.C, core.Options{Threads: t, CacheMode: dmav.Auto, ForceConvertAfter: 1}, cfg.Timeout)
			c1 := auto.Stats.DMAVStats.MACsC1
			cmin := auto.Stats.DMAVStats.MACsModeled
			if c1 > 0 {
				reds = append(reds, 100*(c1-cmin)/c1)
			}
			sps = append(sps, 100*(noc.Runtime.Seconds()/auto.Runtime.Seconds()-1))
		}
		tbl.AddRow(t, mean(reds), mean(sps))
	}
	emit(cfg, "fig14", tbl)
}

// Table2 reproduces Table 2: FlatDD with DMAV-aware fusion vs without
// fusion vs k-operations on the six deep circuits.
func Table2(cfg Config) {
	cfg = cfg.withDefaults()
	tbl := NewTable(fmt.Sprintf("Table 2: gate fusion on deep circuits (threads=%d)", cfg.Threads),
		"Circuit", "n", "Gates",
		"Fusion rt", "Fusion cost",
		"NoFusion rt", "Speedup", "NoFusion cost", "Red.",
		"K-ops rt", "Speedup", "K-ops cost", "Red.")
	var fuRT, noRT, koRT, spNo, spKo, redNo, redKo []float64
	for _, nc := range DeepCircuits(cfg.Scale) {
		fu := RunFlatDD(nc.C, core.Options{Threads: cfg.Threads, Fusion: core.DMAVAware}, cfg.Timeout)
		no := RunFlatDD(nc.C, core.Options{Threads: cfg.Threads}, cfg.Timeout)
		ko := RunFlatDD(nc.C, core.Options{Threads: cfg.Threads, Fusion: core.KOps}, cfg.Timeout)
		cFu, cNo, cKo := fusionCost(fu), fusionCost(no), fusionCost(ko)
		tbl.AddRow(nc.Label, nc.C.Qubits, nc.C.GateCount(),
			maybeTimeout(fu), cFu,
			maybeTimeout(no), fmtSpeedup(no.Runtime.Seconds()/fu.Runtime.Seconds(), no.TimedOut), cNo,
			fmt.Sprintf("%.2fx", cNo/cFu),
			maybeTimeout(ko), fmtSpeedup(ko.Runtime.Seconds()/fu.Runtime.Seconds(), ko.TimedOut), cKo,
			fmt.Sprintf("%.2fx", cKo/cFu))
		fuRT = append(fuRT, fu.Runtime.Seconds())
		noRT = append(noRT, no.Runtime.Seconds())
		koRT = append(koRT, ko.Runtime.Seconds())
		spNo = append(spNo, no.Runtime.Seconds()/fu.Runtime.Seconds())
		spKo = append(spKo, ko.Runtime.Seconds()/fu.Runtime.Seconds())
		redNo = append(redNo, cNo/cFu)
		redKo = append(redKo, cKo/cFu)
	}
	tbl.AddRow("Geomean", "", "",
		fmtSeconds(time.Duration(GeoMean(fuRT)*float64(time.Second))), "",
		fmtSeconds(time.Duration(GeoMean(noRT)*float64(time.Second))), fmtSpeedup(GeoMean(spNo), false), "",
		fmt.Sprintf("%.2fx", GeoMean(redNo)),
		fmtSeconds(time.Duration(GeoMean(koRT)*float64(time.Second))), fmtSpeedup(GeoMean(spKo), false), "",
		fmt.Sprintf("%.2fx", GeoMean(redKo)))
	emit(cfg, "table2", tbl)
}

// MetricsReport runs the instrumented FlatDD engine over the Figure 1
// circuits (two regular, two irregular) and tabulates the internal-layer
// metrics — unique/compute-table hit rates, DMAV caching and conversion
// efficiency — that the other experiments keep hidden. It returns the
// per-circuit results, each carrying its registry snapshot.
func MetricsReport(cfg Config) []Result {
	cfg = cfg.withDefaults()
	tbl := NewTable(fmt.Sprintf("Engine metrics per circuit (threads=%d)", cfg.Threads),
		"Circuit", "Converted at",
		"Unique hit %", "CT hit %",
		"DMAV cache hit %", "MACs (modeled)", "Conv eff %", "GC runs")
	pct := func(hits, total int64) string {
		if total == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f", 100*float64(hits)/float64(total))
	}
	// One registry spans every circuit; Snapshot.Delta isolates each
	// run's counters.
	reg := obs.New()
	var all []Result
	for _, nc := range Fig1Circuits(cfg.Scale) {
		prev := reg.Snapshot()
		res := RunFlatDD(nc.C, core.Options{Threads: cfg.Threads, Metrics: reg}, cfg.Timeout)
		d := res.Metrics.Delta(prev)
		res.Metrics = &d
		all = append(all, res)
		c := res.Metrics.Counters
		uniq := c["dd.unique.v.hits"] + c["dd.unique.m.hits"]
		uniqTotal := uniq + c["dd.unique.v.misses"] + c["dd.unique.m.misses"]
		ctHits := c["dd.ct.add.hits"] + c["dd.ct.madd.hits"] + c["dd.ct.mv.hits"] + c["dd.ct.mm.hits"]
		ctTotal := c["dd.ct.add.lookups"] + c["dd.ct.madd.lookups"] + c["dd.ct.mv.lookups"] + c["dd.ct.mm.lookups"]
		convEff := "-"
		if c["convert.runs"] > 0 {
			convEff = fmt.Sprintf("%.0f", 100*res.Metrics.FloatGauges["convert.efficiency"])
		}
		tbl.AddRow(nc.Label, res.ConvertedAt,
			pct(uniq, uniqTotal), pct(ctHits, ctTotal),
			pct(c["dmav.cache.hits"], c["dmav.cache.hits"]+c["dmav.cache.misses"]),
			c["dmav.macs.modeled"], convEff, c["dd.gc.runs"])
	}
	emit(cfg, "metrics", tbl)
	return all
}

// fusionCost extracts the modeled DMAV cost of a FlatDD run: the total
// min(C1, C2) over every executed DMAV gate.
func fusionCost(r Result) float64 {
	if r.Stats == nil {
		return 0
	}
	return r.Stats.DMAVStats.MACsModeled
}

// RunExperiment dispatches an experiment by its DESIGN.md identifier.
// An unknown scale is an error: the circuit sets would otherwise fall
// back to the small scale under the wrong label.
func RunExperiment(id string, cfg Config) error {
	switch cfg.Scale {
	case "", ScaleTiny, ScaleSmall, ScalePaper:
	default:
		return fmt.Errorf("harness: unknown scale %q (known: %s, %s, %s)", cfg.Scale, ScaleTiny, ScaleSmall, ScalePaper)
	}
	switch id {
	case "fig1":
		Fig1(cfg)
	case "fig3":
		Fig3(cfg)
	case "table1":
		Table1(cfg)
	case "fig11":
		Fig11(cfg)
	case "fig12":
		Fig12(cfg)
	case "fig13":
		Fig13(cfg)
	case "fig14":
		Fig14(cfg)
	case "table2":
		Table2(cfg)
	case "ablation":
		Ablation(cfg)
	case "metrics":
		MetricsReport(cfg)
	case "all":
		for _, e := range ExperimentIDs() {
			if e == "all" {
				continue
			}
			if err := RunExperiment(e, cfg); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("harness: unknown experiment %q (known: %v)", id, ExperimentIDs())
	}
	return nil
}

// ExperimentIDs lists the recognized experiment identifiers.
func ExperimentIDs() []string {
	return []string{"fig1", "fig3", "table1", "fig11", "fig12", "fig13", "fig14", "table2", "ablation", "metrics", "all"}
}

// Helpers.

func maybeTimeout(r Result) string {
	if r.TimedOut {
		return "> " + fmtSeconds(r.Runtime)
	}
	return fmtSeconds(r.Runtime)
}

func anyTimedOut(rs []Result, engine string) bool {
	for _, r := range rs {
		if r.Engine == engine && r.TimedOut {
			return true
		}
	}
	return false
}

func minU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

func avgDur(ds []time.Duration, lo, hi int) time.Duration {
	if lo >= len(ds) {
		return 0
	}
	if hi > len(ds) {
		hi = len(ds)
	}
	var sum time.Duration
	for _, d := range ds[lo:hi] {
		sum += d
	}
	return sum / time.Duration(hi-lo)
}

func avgEventDur(es []core.TraceEvent, lo, hi int) time.Duration {
	if lo >= len(es) {
		return 0
	}
	if hi > len(es) {
		hi = len(es)
	}
	var sum time.Duration
	for _, e := range es[lo:hi] {
		sum += e.Duration
	}
	return sum / time.Duration(hi-lo)
}
