package main

import (
	"fmt"
	"time"

	"flatdd/internal/sched"
)

func (e *engineEnv) close() {}

func (e *engineEnv) kernel() *hostRef { return e.ref }

// Shares of an engine workload's traced budget: the job loop ends at the
// first, whole replay rounds (always at least one) at the second, and the
// rest covers the fixed probes.
const (
	tracedLoopShare   = 0.45
	tracedReplayShare = 0.90
)

// replayIDBase separates the span job ids of replays from those of jobs.
const replayIDBase = 1_000_000

// probeOut is what the job loop and the replay rounds of a traced run
// collected.
type probeOut struct {
	all, tracedMS, untracedMS []float64 // job times, ms
	newAlloc, calib           []float64
	outs                      [][]jobOut    // verified jobs per circuit
	replays                   [][]replayOut // verified replays per circuit
	replayIDs                 [][]int       // their span job ids
}

// probe alternates untraced and traced jobs on the same circuit until
// loopEnd (their medians give the tracing overhead), then replays every
// circuit through the layers' public functions in whole rounds until
// replayEnd, at least once. Both ends are offsets from t0.
func (e *engineEnv) probe(tr *tracer, r *loopResult, t0 time.Time, loopEnd, replayEnd time.Duration) probeOut {
	nc := len(e.circuits)
	p := probeOut{outs: make([][]jobOut, nc), replays: make([][]replayOut, nc), replayIDs: make([][]int, nc)}
	for i := 0; i < 2*nc || time.Since(t0) < loopEnd; i++ {
		ci, t := (i/2)%nc, tr
		if i%2 == 0 {
			t = nil
		}
		cpu0 := cpuTime()
		out := e.job(t, e.idBase+i, ci)
		r.cpu += cpuTime() - cpu0 // the reference kernel's CPU stays out
		r.attempted++
		if !out.ok {
			r.fail(out.err)
			continue
		}
		p.all = append(p.all, ms(out.dur))
		p.outs[ci] = append(p.outs[ci], out)
		if t == nil {
			p.untracedMS = append(p.untracedMS, ms(out.dur))
		} else {
			p.tracedMS = append(p.tracedMS, ms(out.dur))
			p.newAlloc = append(p.newAlloc, float64(out.newAlloc)/mib)
		}
		p.calib = append(p.calib, e.ref.run())
	}

	var roundTime time.Duration
	for round := 0; round == 0 || time.Since(t0)+roundTime < replayEnd; round++ {
		rt0 := time.Now()
		for ci, c := range e.circuits {
			id := e.idBase + replayIDBase + round*nc + ci
			ro, err := replay(tr, id, c, e.spec.fusion, e.threads)
			r.attempted++
			if err == nil {
				err = e.checkReplay(ci, &ro)
			}
			if err == nil && len(p.outs[ci]) > 0 && ro.convertedAt != p.outs[ci][0].stats.ConvertedAtGate {
				err = fmt.Errorf("converted at gate %d, core at %d", ro.convertedAt, p.outs[ci][0].stats.ConvertedAtGate)
			}
			if err != nil {
				r.fail(fmt.Errorf("replay of %s: %w", c.Name, err))
				continue
			}
			p.replays[ci] = append(p.replays[ci], ro)
			p.replayIDs[ci] = append(p.replayIDs[ci], id)
		}
		roundTime = time.Since(rt0)
	}
	return p
}

func (e *engineEnv) traced(budget time.Duration, tr *tracer) (loopResult, map[string]float64, map[string]string) {
	var r loopResult
	host0, gc0, t0 := readHostCPU(), gcPauseTotal(), time.Now()
	p := e.probe(tr, &r, t0, time.Duration(float64(budget)*tracedLoopShare), time.Duration(float64(budget)*tracedReplayShare))
	batchUS := schedProbe(e.threads)
	r.wall, r.durs = time.Since(t0), p.all
	spans := tr.finish()

	v := map[string]float64{
		"job.count":          float64(len(p.all)),
		"job.failed":         float64(r.failed),
		"job.cpu_ms":         ms(r.cpu) / float64(max(1, len(p.all))),
		"statevec.run_ms":    median(e.statevecMS),
		"sched.batch_us_p50": median(batchUS),
		"host.calib_ms_p50":  median(p.calib),
		"host.factor":        e.ref.factor(p.calib),
		"host.peak_rss_mb":   peakRSSMB(),
		"host.steal_pct":     stealPct(host0, readHostCPU()),
		"host.gc_pause_ms":   ms(gcPauseTotal() - gc0),
	}
	tailP := tailPercentile(len(p.all))
	v["job.tail_ms"] = percentile(p.all, tailP)
	notes := map[string]string{"job.tail_ms": fmt.Sprintf("p%g of %d jobs", tailP, len(p.all))}
	if u := median(p.untracedMS); u > 0 {
		v["trace.overhead_pct"] = 100 * (median(p.tracedMS) - u) / u
	}
	e.layerValues(v, spans, p)
	return r, v, notes
}

// layerValues fills in the core, dd, ddsim, ewma, convert, fusion, dmav
// and sched values of a probe.
func (e *engineEnv) layerValues(v map[string]float64, spans []span, p probeOut) {
	v["core.new_ms_p50"] = median(durationsOf(spans, "core.new", ms))
	v["core.new_alloc_mb"] = median(p.newAlloc)
	v["core.run_ms_p50"] = median(durationsOf(spans, "core.run", ms))
	v["core.result_ms_p50"] = median(durationsOf(spans, "core.result", ms))
	coreLayerValues(v, p.outs)
	replayLayerValues(v, spans, e.spec.qubits, p)
}

// coreLayerValues fills in what core.Stats of the loop's jobs says.
func coreLayerValues(v map[string]float64, outs [][]jobOut) {
	var dd, conv, fuse, dmav, unacc, convAt, fused []float64
	for _, jobs := range outs {
		for i, o := range jobs {
			s := o.stats
			dd = append(dd, ms(s.DDTime))
			conv = append(conv, ms(s.ConversionTime))
			fuse = append(fuse, ms(s.FusionTime))
			dmav = append(dmav, ms(s.DMAVTime))
			unacc = append(unacc, ms(o.runD-s.DDTime-s.ConversionTime-s.FusionTime-s.DMAVTime))
			if i == 0 { // counts: once per circuit
				convAt = append(convAt, float64(s.ConvertedAtGate))
				fused = append(fused, float64(s.FusedGates))
			}
		}
	}
	v["core.phase_dd_ms_p50"] = median(dd)
	v["core.phase_convert_ms_p50"] = median(conv)
	v["core.phase_fuse_ms_p50"] = median(fuse)
	v["core.phase_dmav_ms_p50"] = median(dmav)
	v["core.unaccounted_ms_p50"] = median(unacc)
	v["core.converted_at_gate"] = mean(convAt)
	v["core.fused_gates"] = mean(fused)
}

// replayLayerValues turns the replay spans and counts into layer values.
// Counts are means over the circuits; times per replay are medians.
func replayLayerValues(v map[string]float64, spans []span, qubits int, p probeOut) {
	perJob := func(name string) map[int]time.Duration {
		m := make(map[int]time.Duration)
		for i := range spans {
			if spans[i].Name == name {
				m[spans[i].Job] += spans[i].dur()
			}
		}
		return m
	}
	ddBusy, dmavBusy := perJob("ddsim.apply"), perJob("dmav.apply")
	ddPhase, convPar, fusePhase, dmavPhase := perJob("replay.dd"), perJob("convert.parallel"), perJob("replay.fuse"), perJob("replay.dmav")

	var ddBusyMS, dmavBusyMS, macsPerS, gbPerS, steals, idle []float64
	var gates, peak, fired, gatesIn, gatesOut, dmavGates, cached, macs, accounted []float64
	converted := false
	amps := float64(uint64(1) << uint(qubits))
	for ci := range p.replays {
		var phases []float64
		for k, ro := range p.replays[ci] {
			id := p.replayIDs[ci][k]
			ddBusyMS = append(ddBusyMS, ms(ddBusy[id]))
			phases = append(phases, ms(ddPhase[id]+convPar[id]+fusePhase[id]+dmavPhase[id]))
			if ro.convertedAt >= 0 {
				converted = true
				busy := dmavBusy[id]
				dmavBusyMS = append(dmavBusyMS, ms(busy))
				macsPerS = append(macsPerS, ro.dmav.MACsModeled/busy.Seconds())
				gbPerS = append(gbPerS, 32*amps*float64(ro.dmav.Gates)/busy.Seconds()/1e9)
				steals = append(steals, float64(ro.steals))
				idle = append(idle, ms(ro.idle))
			}
			if k > 0 {
				continue // counts: once per circuit
			}
			gates = append(gates, float64(ro.ddGates))
			peak = append(peak, float64(ro.peakNodes))
			fired = append(fired, float64(ro.firedAt))
			gatesIn = append(gatesIn, float64(ro.gatesIn))
			gatesOut = append(gatesOut, float64(ro.gatesOut))
			dmavGates = append(dmavGates, float64(ro.dmav.Gates))
			cached = append(cached, float64(ro.dmav.CachedGates))
			macs = append(macs, ro.dmav.MACsModeled)
		}
		// Per circuit: do the replay's phases plus what core spends
		// outside its phases add up to core's run?
		var run, unacc []float64
		for _, o := range p.outs[ci] {
			s := o.stats
			run = append(run, ms(o.runD))
			unacc = append(unacc, ms(o.runD-s.DDTime-s.ConversionTime-s.FusionTime-s.DMAVTime))
		}
		if len(phases) > 0 && len(run) > 0 {
			accounted = append(accounted, 100*(median(phases)+median(unacc))/median(run))
		}
	}
	v["dd.manager_new_ms_p50"] = median(durationsOf(spans, "dd.manager_new", ms))
	v["ddsim.apply_us_p50"] = median(durationsOf(spans, "ddsim.apply", us))
	v["ddsim.busy_ms"] = median(ddBusyMS)
	v["ddsim.gates"] = mean(gates)
	v["ddsim.peak_nodes"] = mean(peak)
	v["ewma.fired_at_gate"] = mean(fired)
	v["trace.accounted_pct"] = mean(accounted)
	if !converted {
		return // conversion, fusion, DMAV and the pool stayed idle
	}
	conv := durationsOf(spans, "convert.parallel", ms)
	v["dd.build_gate_us_p50"] = median(durationsOf(spans, "dd.build_gate", us))
	v["convert.busy_ms_p50"] = median(conv)
	v["convert.amps_per_s"] = amps / (median(conv) / 1e3)
	v["convert.seq_ms_p50"] = median(durationsOf(spans, "convert.seq", ms))
	if f := durationsOf(spans, "fusion.fuse", ms); len(f) > 0 {
		v["fusion.fuse_ms_p50"] = median(f)
	}
	v["fusion.gates_in"] = mean(gatesIn)
	v["fusion.gates_out"] = mean(gatesOut)
	v["dmav.apply_us_p50"] = median(durationsOf(spans, "dmav.apply", us))
	v["dmav.busy_ms"] = median(dmavBusyMS)
	v["dmav.gates"] = mean(dmavGates)
	v["dmav.cached_gates"] = mean(cached)
	v["dmav.macs_modeled"] = mean(macs)
	v["dmav.macs_per_s"] = median(macsPerS)
	v["dmav.computed_gb_per_s"] = median(gbPerS)
	v["sched.steals"] = median(steals)
	v["sched.idle_ms"] = median(idle)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// schedProbe times Pool.Run on batches of 16 empty tasks: the fixed cost
// every DMAV gate and conversion pays to fan out and join.
func schedProbe(threads int) []float64 {
	pool := sched.New(threads)
	defer pool.Close()
	tasks := make([]sched.Task, 16)
	for i := range tasks {
		tasks[i] = func() {}
	}
	out := make([]float64, 2000)
	for i := range out {
		t0 := time.Now()
		pool.Run(tasks)
		out[i] = us(time.Since(t0))
	}
	return out
}
