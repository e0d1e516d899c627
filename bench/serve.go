package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"flatdd/internal/serve"
	"flatdd/internal/serve/client"
)

const (
	serveClients = 2
	// servePoll is the client's status-poll interval: short against the
	// ~30 ms job, long enough that polling stays a small share of the CPU.
	servePoll = 2 * time.Millisecond
)

// serveEnv is a set-up serve_regular workload: an in-process server
// behind httptest, a typed client and the seeded job stream.
type serveEnv struct {
	gen *serveGen
	srv *serve.Server
	ts  *httptest.Server
	cl  *client.Client
}

func setupServe(seed int64) (*serveEnv, error) {
	srv := serve.New(serve.Config{
		Threads:     1,
		MaxInFlight: serveClients,
		// Entries above this size would also store the 8·2^n-byte
		// cumulative distribution, which at n=20 costs more than the
		// job. No job asks for shots, so cached results stay small.
		ResultCacheMaxEntry: 1 << 20,
	})
	ts := httptest.NewServer(srv.Handler())
	e := &serveEnv{gen: newServeGen(seed, serveQubits), srv: srv, ts: ts, cl: client.New(ts.URL)}
	for i := 0; i < warmupJobs; i++ {
		if out := runServeJob(context.Background(), e.cl, servePoll, nil, 0, e.gen.next()); !out.ok {
			e.close()
			return nil, fmt.Errorf("warm-up job failed: %w", out.err)
		}
	}
	return e, nil
}

func (e *serveEnv) close() {
	e.ts.Close()
	e.srv.Shutdown()
}

// serveOut is one client-side job: Submit, Wait, fetch the result.
type serveOut struct {
	ok, refused, traced    bool
	err                    error
	job                    serveJob
	dur                    time.Duration
	submitD, waitD, fetchD time.Duration
	queueD, runD           time.Duration // from the server's JobView timestamps
	resultBytes            int
	cache                  string
}

func runServeJob(ctx context.Context, cl *client.Client, poll time.Duration, tr *tracer, id int, j serveJob) (out serveOut) {
	out = serveOut{job: j, traced: tr != nil}
	t0 := time.Now()
	root := tr.start(0, id, "job")
	defer func() {
		tr.end(root)
		out.ok = out.err == nil
	}()

	sp := tr.start(root, id, "serve.submit")
	resp, err := cl.Submit(ctx, &serve.SubmitRequest{QASM: j.qasm})
	tr.end(sp)
	t1 := time.Now()
	if err != nil {
		var apiErr *client.APIError
		out.refused = errors.As(err, &apiErr) && apiErr.IsRetryable()
		out.err = fmt.Errorf("submit: %w", err)
		return out
	}
	out.cache = resp.Job.Cache

	sp = tr.start(root, id, "serve.wait")
	view, err := cl.Wait(ctx, resp.Job.ID, poll)
	tr.end(sp)
	t2 := time.Now()
	if err != nil {
		out.err = fmt.Errorf("wait: %w", err)
		return out
	}
	if view.State != serve.StateDone {
		out.err = fmt.Errorf("job %s ended %s: %s", view.ID, view.State, view.Error)
		return out
	}

	sp = tr.start(root, id, "serve.fetch")
	raw, err := cl.ResultRaw(ctx, view.ID)
	var res serve.JobResult
	if err == nil {
		err = json.Unmarshal(raw, &res)
	}
	tr.end(sp)
	t3 := time.Now()
	if err != nil {
		out.err = fmt.Errorf("result: %w", err)
		return out
	}

	out.dur, out.submitD, out.waitD, out.fetchD = t3.Sub(t0), t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	out.resultBytes = len(raw)
	if view.StartedAt != nil && view.FinishedAt != nil {
		out.queueD, out.runD = view.StartedAt.Sub(view.SubmittedAt), view.FinishedAt.Sub(*view.StartedAt)
	}
	switch {
	case len(res.Top) == 0:
		out.err = fmt.Errorf("job %s (%s): no amplitudes in the result", view.ID, j.familyName())
	case res.Top[0].Basis != j.wantBasis || math.Abs(res.Top[0].Probability-j.wantProb) > ampTol:
		out.err = fmt.Errorf("job %s (%s): top state %s p=%.12f, want %s p=%.12f",
			view.ID, j.familyName(), res.Top[0].Basis, res.Top[0].Probability, j.wantBasis, j.wantProb)
	}
	return out
}

// clientLoop runs serveClients closed-loop clients until the budget has
// elapsed. traceEvery > 0 traces every traceEvery-th job of each client.
func (e *serveEnv) clientLoop(budget time.Duration, tr *tracer, traceEvery int) (loopResult, []serveOut) {
	var (
		r    = loopResult{groups: make([][]float64, len(serveFamilies))}
		outs []serveOut
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	runtime.GC()
	cpu0, alloc0, t0 := cpuTime(), heapAllocBytes(), time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Since(t0) < budget; i++ {
				var t *tracer
				if traceEvery > 0 && i%traceEvery == traceEvery-1 {
					t = tr
				}
				out := runServeJob(context.Background(), e.cl, servePoll, t, c+serveClients*i, e.gen.next())
				mu.Lock()
				r.attempted++
				switch {
				case out.ok:
					r.durs = append(r.durs, ms(out.dur))
					r.groups[out.job.family] = append(r.groups[out.job.family], ms(out.dur))
					if len(r.durs)%16 == 0 { // reading /proc costs more than it should next to a 15 ms job
						r.rssMB = append(r.rssMB, rssMB())
					}
					outs = append(outs, out)
				case out.refused:
					r.refused++
					fallthrough
				default:
					r.fail(out.err)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	r.wall, r.cpu, r.allocBytes = time.Since(t0), cpuTime()-cpu0, heapAllocBytes()-alloc0
	return r, outs
}

// kernel is nil: a serve job's time is not proportional to CPU speed (the
// clients sleep between polls and the CPUs are 90 % busy; ten runs in a
// slow host phase spread 8.6 % raw and 12.4 % corrected), so serve_regular
// reports raw times.
func (e *serveEnv) kernel() *hostRef { return nil }

func (e *serveEnv) timedLoop(budget time.Duration) loopResult {
	r, _ := e.clientLoop(budget, nil, 0)
	return r
}
