package main

import (
	"context"
	"fmt"
	"math"
	"math/cmplx"
	"net/http/httptest"
	"time"

	"flatdd/internal/circuit"
	"flatdd/internal/cluster"
	"flatdd/internal/core"
	"flatdd/internal/obs"
	"flatdd/internal/qasm"
	"flatdd/internal/serve/client"
	"flatdd/internal/statevec"
)

const (
	// serveLoopShare of a traced serve_regular budget goes to the client
	// loop; the probes below have fixed sizes and use the rest.
	serveLoopShare = 0.40
	// hitProbeJobs of the loop's jobs are resubmitted to time cache hits.
	hitProbeJobs = 200
	// engineProbeJobs of the loop's jobs are parsed, hashed, run on a bare
	// engine and replayed: eight per family.
	engineProbeJobs = 24
	// clusterProbePairs fresh jobs go through a coordinator, alternating
	// with as many sent directly.
	clusterProbePairs = 100
	// clusterPoll is the status-poll interval of the coordinator probe: a
	// hop costs less than servePoll, so the probe's single client polls
	// finely enough not to round it away.
	clusterPoll      = 250 * time.Microsecond
	serveProbeIDBase = 10_000_000
)

// checkTop compares a run's most probable state with the job's analytic
// answer.
func checkTop(j serveJob, idx uint64, amp complex128) error {
	p := real(amp)*real(amp) + imag(amp)*imag(amp)
	if got := basis(len(j.wantBasis), idx); got != j.wantBasis || math.Abs(p-j.wantProb) > ampTol {
		return fmt.Errorf("%s: top state %s p=%.12f, want %s p=%.12f", j.familyName(), got, p, j.wantBasis, j.wantProb)
	}
	return nil
}

// traced runs the client loop with every second job traced, then takes
// the layers apart: cache hits, a coordinator hop, and a sample of the
// loop's circuits parsed, hashed, run on a bare engine and replayed.
func (e *serveEnv) traced(budget time.Duration, tr *tracer) (loopResult, map[string]float64, map[string]string) {
	host0, gc0, t0 := readHostCPU(), gcPauseTotal(), time.Now()
	r, outs := e.clientLoop(time.Duration(float64(budget)*serveLoopShare), tr, 2)
	loopCPU := r.cpu // the engine probe below adds its own CPU to r
	ctx := context.Background()
	nextID := serveProbeIDBase
	probeJob := func(cl *client.Client, poll time.Duration, t *tracer, j serveJob) serveOut {
		nextID++
		out := runServeJob(ctx, cl, poll, t, nextID, j)
		r.attempted++
		if !out.ok {
			if out.refused {
				r.refused++
			}
			r.fail(out.err)
		}
		return out
	}

	var e2e, tracedMS, untracedMS, submit, wait, fetch, queue, run, bytes []float64
	for _, o := range outs {
		e2e = append(e2e, ms(o.dur))
		if o.traced {
			tracedMS = append(tracedMS, ms(o.dur))
		} else {
			untracedMS = append(untracedMS, ms(o.dur))
		}
		submit, wait, fetch = append(submit, ms(o.submitD)), append(wait, ms(o.waitD)), append(fetch, ms(o.fetchD))
		queue, run = append(queue, ms(o.queueD)), append(run, ms(o.runD))
		bytes = append(bytes, float64(o.resultBytes))
	}

	// Cache hits: resubmit the most recent texts.
	var hitMS []float64
	hits, resubmitted := 0, outs[max(0, len(outs)-hitProbeJobs):]
	for _, o := range resubmitted {
		if h := probeJob(e.cl, servePoll, tr, o.job); h.ok {
			hitMS = append(hitMS, ms(h.dur))
			if h.cache == "hit" {
				hits++
			}
		}
	}

	// Coordinator hop: the same server behind a one-replica coordinator.
	reg := obs.New()
	var direct, hop []float64
	coord, err := cluster.New(cluster.Config{Replicas: []cluster.ReplicaSpec{{Name: "r1", URL: e.ts.URL}}, Metrics: reg})
	if err != nil {
		r.fail(err)
	} else {
		cts := httptest.NewServer(coord.Handler())
		ccl := client.New(cts.URL)
		for i := 0; i < clusterProbePairs; i++ {
			if d := probeJob(e.cl, clusterPoll, nil, e.gen.next()); d.ok {
				direct = append(direct, ms(d.dur))
			}
			if h := probeJob(ccl, clusterPoll, tr, e.gen.next()); h.ok {
				hop = append(hop, ms(h.dur))
			}
		}
		cts.Close()
		coord.Shutdown()
	}

	// The engine underneath: a sample of the loop's own circuits.
	pe, sample, parseUS, hashUS := engineSample(outs, &r)
	p := pe.probe(tr, &r, time.Now(), 0, 0)

	// State-vector baseline, one circuit per family; it also checks the
	// analytic answers against an engine that shares no code with the DD.
	for ci := 0; ci < min(len(serveFamilies), len(pe.circuits)); ci++ {
		d, err := statevecBaseline(pe.circuits[ci], sample[ci])
		if err != nil {
			r.fail(err)
		}
		pe.statevecMS = append(pe.statevecMS, d)
	}
	batchUS := schedProbe(1)
	r.wall = time.Since(t0)
	spans := tr.finish()

	tailP := tailPercentile(len(e2e))
	v := map[string]float64{
		"job.tail_ms":            percentile(e2e, tailP),
		"job.count":              float64(len(e2e)),
		"job.failed":             float64(r.failed),
		"job.cpu_ms":             ms(loopCPU) / float64(max(1, len(e2e))),
		"serve.submit_ms_p50":    median(submit),
		"serve.wait_ms_p50":      median(wait),
		"serve.fetch_ms_p50":     median(fetch),
		"serve.queue_ms_p50":     median(queue),
		"serve.run_ms_p50":       median(run),
		"serve.overhead_ms_p50":  median(e2e) - median(p.all),
		"serve.hit_ms_p50":       median(hitMS),
		"serve.hit_ratio":        float64(hits) / float64(max(1, len(resubmitted))),
		"serve.rejected":         float64(r.refused),
		"serve.result_bytes_p50": median(bytes),
		"cluster.hop_ms_p50":     median(hop) - median(direct),
		"cluster.retries":        float64(reg.Counter("cluster.rpc.retries").Value()),
		"qasm.parse_us_p50":      median(parseUS),
		"circuit.hash_us_p50":    median(hashUS),
		"statevec.run_ms":        median(pe.statevecMS),
		"sched.batch_us_p50":     median(batchUS),
		"host.calib_ms_p50":      median(p.calib),
		"host.factor":            pe.ref.factor(p.calib),
		"host.peak_rss_mb":       peakRSSMB(),
		"host.steal_pct":         stealPct(host0, readHostCPU()),
		"host.gc_pause_ms":       ms(gcPauseTotal() - gc0),
	}
	families := "p50 by family:"
	for f, name := range serveFamilies {
		families += fmt.Sprintf(" %s %.2f ms", name, median(r.groups[f]))
	}
	notes := map[string]string{
		"job.count":          families,
		"job.tail_ms":        fmt.Sprintf("p%g of %d jobs", tailP, len(e2e)),
		"cluster.hop_ms_p50": fmt.Sprintf("%d jobs through the coordinator, %d direct", len(hop), len(direct)),
	}
	if u := median(untracedMS); u > 0 {
		v["trace.overhead_pct"] = 100 * (median(tracedMS) - u) / u
	}
	pe.layerValues(v, spans, p)
	return r, v, notes
}

// engineSample parses and hashes the first engineProbeJobs circuits of the
// loop, timing both, and wraps them as an engine workload whose checks are
// the jobs' analytic answers. sample[ci] is the job behind circuit ci.
func engineSample(outs []serveOut, r *loopResult) (pe *engineEnv, sample []serveJob, parseUS, hashUS []float64) {
	pe = &engineEnv{spec: engineSpec{qubits: serveQubits}, threads: 1, idBase: 2 * serveProbeIDBase, ref: newHostRef(serveQubits, 1)}
	for _, o := range outs[:min(engineProbeJobs, len(outs))] {
		p0 := time.Now()
		c, err := qasm.Parse(o.job.qasm)
		parseUS = append(parseUS, us(time.Since(p0)))
		if err != nil {
			r.fail(err)
			continue
		}
		h0 := time.Now()
		c.Hash()
		hashUS = append(hashUS, us(time.Since(h0)))
		pe.circuits = append(pe.circuits, c)
		sample = append(sample, o.job)
	}
	pe.checkSim = func(ci int, sim *core.Simulator) error {
		top := sim.TopAmplitudes(1)
		if len(top) == 0 {
			return fmt.Errorf("no amplitudes")
		}
		return checkTop(sample[ci], top[0].Index, top[0].Amplitude)
	}
	pe.checkReplay = func(ci int, ro *replayOut) error {
		return checkTop(sample[ci], ro.top.Index, ro.top.Amplitude)
	}
	return pe, sample, parseUS, hashUS
}

// statevecBaseline times the plain single-thread state-vector run of c
// and checks the job's analytic answer against it.
func statevecBaseline(c *circuit.Circuit, j serveJob) (float64, error) {
	t0 := time.Now()
	sv := statevec.New(c.Qubits, 1)
	sv.SetFastPath(true)
	sv.ApplyCircuit(c)
	d := ms(time.Since(t0))
	best, bestP := 0, 0.0
	for i, a := range sv.Amplitudes() {
		if p := cmplx.Abs(a); p > bestP {
			best, bestP = i, p
		}
	}
	return d, checkTop(j, uint64(best), sv.Amplitudes()[best])
}
