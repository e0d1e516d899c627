package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"flatdd/internal/serve"
	"flatdd/internal/serve/client"
	"flatdd/internal/testproc"
)

// TestServeSmoke builds the flatdd-serve binary (race-enabled) and
// drives it end to end through the typed client: admission control, job
// completion, result-cache hits, tenant accounting, client
// cancellation, the in-flight cap, and SIGTERM drain. It is the
// `make serve-smoke` target.
func TestServeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke test builds and runs the server binary")
	}
	bin := filepath.Join(t.TempDir(), "flatdd-serve")
	build := exec.Command("go", "build", "-race", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}

	// 256 MiB budget: WorstCaseBytes admits up to 22 qubits.
	cmd := exec.Command(bin,
		"-listen", "127.0.0.1:0",
		"-mem-budget-mb", "256",
		"-queue", "8",
		"-inflight", "2",
		"-timeout", "60s",
		"-grace", "2s",
		"-tenant-weights", "gold=4",
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = &bytes.Buffer{}
	// Dies with this test process; killed and reaped at test end as a
	// backstop (the SIGTERM path below is the real teardown).
	proc := testproc.Start(t, cmd)

	sc := bufio.NewScanner(stdout)
	base := ""
	for sc.Scan() {
		if line := sc.Text(); strings.Contains(line, "listening on http://") {
			base = "http://" + strings.TrimSpace(strings.Fields(strings.SplitAfter(line, "http://")[1])[0])
			break
		}
	}
	if base == "" {
		t.Fatalf("no listen line on stdout (stderr: %s)", cmd.Stderr)
	}
	// Keep draining stdout so the server never blocks on a full pipe.
	go func() {
		for sc.Scan() {
		}
	}()

	ctx := context.Background()
	c := client.New(base, client.WithTenant("gold"))
	wait := func(id string, states ...string) *serve.JobView {
		t.Helper()
		wctx, cancel := context.WithTimeout(ctx, 60*time.Second)
		defer cancel()
		v, err := c.Wait(wctx, id, 10*time.Millisecond)
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		for _, s := range states {
			if v.State == s {
				return v
			}
		}
		t.Fatalf("job %s ended %q (%s), want %v", id, v.State, v.Error, states)
		return nil
	}

	// Over-budget job: 26 qubits needs 3 GiB, budget is 256 MiB. The
	// rejection arrives as the typed envelope error.
	_, err = c.Submit(ctx, &serve.SubmitRequest{Circuit: "ghz", N: 26})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusRequestEntityTooLarge ||
		apiErr.Code != serve.CodePayloadTooLarge || apiErr.Reason != "memory_budget" {
		t.Fatalf("over-budget submit: %v, want 413 payload_too_large/memory_budget", err)
	}

	// A bell pair from QASM runs to completion with correct results.
	bellReq := &serve.SubmitRequest{
		QASM: "qreg q[2]; h q[0]; cx q[0],q[1];", Shots: 500, Seed: 7}
	bell, err := c.Submit(ctx, bellReq)
	if err != nil {
		t.Fatalf("bell submit: %v", err)
	}
	wait(bell.Job.ID, serve.StateDone)
	res, err := c.Result(ctx, bell.Job.ID)
	if err != nil {
		t.Fatalf("bell result: %v", err)
	}
	total := 0
	for bits, n := range res.Shots {
		if bits != "00" && bits != "11" {
			t.Fatalf("impossible bell shot %q", bits)
		}
		total += n
	}
	if total != 500 {
		t.Fatalf("bell shots: %v", res.Shots)
	}

	// Resubmitting the same circuit hits the result cache: done in the
	// submit response, no second engine run.
	again, err := c.Submit(ctx, bellReq)
	if err != nil {
		t.Fatalf("bell resubmit: %v", err)
	}
	if again.Job.Cache != serve.CacheHit || again.Job.State != serve.StateDone {
		t.Fatalf("bell resubmit = cache %q state %q, want an immediate hit",
			again.Job.Cache, again.Job.State)
	}

	// A named random Clifford+T workload completes too (exercises the
	// hybrid DD→DMAV path end to end).
	randct, err := c.Submit(ctx, &serve.SubmitRequest{Circuit: "randct", N: 12, Seed: 3, Top: 4})
	if err != nil {
		t.Fatalf("randct submit: %v", err)
	}
	wait(randct.Job.ID, serve.StateDone)

	// Client cancellation: a long QV job transitions to canceled with the
	// engine's sentinel message.
	slow, err := c.Submit(ctx, &serve.SubmitRequest{Circuit: "qv", N: 16, Seed: 1})
	if err != nil {
		t.Fatalf("qv submit: %v", err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		v, err := c.Job(ctx, slow.Job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if v.State != serve.StateQueued || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := c.Cancel(ctx, slow.Job.ID); err != nil {
		var cancelErr *client.APIError
		if !errors.As(err, &cancelErr) || cancelErr.Code != serve.CodeConflict {
			t.Fatalf("cancel: %v", err)
		}
	}
	if v := wait(slow.Job.ID, serve.StateCanceled, serve.StateDone); v.State == serve.StateCanceled &&
		!strings.Contains(v.Error, "canceled") {
		t.Fatalf("cancel error: %v", v.Error)
	}

	// Concurrent submits respect the in-flight cap of 2.
	for i := 0; i < 4; i++ {
		if _, err := c.Submit(ctx, &serve.SubmitRequest{Circuit: "qv", N: 16, Seed: int64(i + 10)}); err != nil {
			t.Fatalf("fanout submit %d: %v", i, err)
		}
	}
	sawTwo := false
	for end := time.Now().Add(30 * time.Second); time.Now().Before(end); {
		l, err := c.Jobs(ctx, client.JobsQuery{State: serve.StateRunning})
		if err != nil {
			t.Fatal(err)
		}
		if len(l.Jobs) > 2 {
			t.Fatalf("%d jobs running, cap is 2", len(l.Jobs))
		}
		if len(l.Jobs) == 2 {
			sawTwo = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !sawTwo {
		t.Fatal("never saw two jobs in flight")
	}

	// The tenant view accounts the whole session under "gold" with its
	// configured weight.
	tenants, err := c.Tenants(ctx)
	if err != nil {
		t.Fatal(err)
	}
	foundGold := false
	for _, tv := range tenants {
		if tv.Name != "gold" {
			continue
		}
		foundGold = true
		if tv.Weight != 4 {
			t.Errorf("gold weight = %d, want 4 (-tenant-weights)", tv.Weight)
		}
		if tv.Submitted < 7 || tv.CacheHits < 1 {
			t.Errorf("gold accounting = %+v, want >=7 submitted, >=1 cache hit", tv)
		}
	}
	if !foundGold {
		t.Fatalf("tenant gold missing from /v1/tenants: %+v", tenants)
	}

	// SIGTERM drains: queued fan-out jobs are canceled, the process exits 0.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- proc.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("server exited non-zero after SIGTERM: %v (stderr: %s)", err, cmd.Stderr)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("server did not exit after SIGTERM")
	}
}
