package main

import (
	"bufio"
	"bytes"
	"context"
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

// TestCoordSmoke builds flatdd-serve and flatdd-coord (race-enabled) and
// drives a two-replica cluster end to end through the coordinator's v1
// API: routed job completion, result-cache locality on resubmit, the
// fleet-merged tenant view, a replica kill surfacing in /healthz
// membership, and a SIGTERM drain to exit 0. It is part of the
// `make serve-smoke` target.
func TestCoordSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke test builds and runs three binaries")
	}
	dir := t.TempDir()
	serveBin := filepath.Join(dir, "flatdd-serve")
	coordBin := filepath.Join(dir, "flatdd-coord")
	for bin, pkg := range map[string]string{serveBin: "../flatdd-serve", coordBin: "."} {
		build := exec.Command("go", "build", "-race", "-o", bin, pkg)
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", pkg, err, out)
		}
	}

	// startProc launches a binary and returns its base URL scraped from
	// the "listening on http://..." stdout line.
	startProc := func(bin string, args ...string) (*testproc.Proc, string) {
		t.Helper()
		cmd := exec.Command(bin, args...)
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		cmd.Stderr = &bytes.Buffer{}
		// Dies with this test process; killed and reaped at test end.
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
			t.Fatalf("%s: no listen line on stdout (stderr: %s)", bin, cmd.Stderr)
		}
		go func() {
			for sc.Scan() {
			}
		}()
		return proc, base
	}

	r1, url1 := startProc(serveBin, "-listen", "127.0.0.1:0", "-inflight", "2", "-queue", "16")
	_, url2 := startProc(serveBin, "-listen", "127.0.0.1:0", "-inflight", "2", "-queue", "16")
	coord, base := startProc(coordBin,
		"-listen", "127.0.0.1:0",
		"-replicas", "r1="+url1+",r2="+url2,
		"-probe-interval", "100ms",
		"-log-format", "off",
	)

	ctx := context.Background()
	c := client.New(base, client.WithTenant("gold"))

	// A cluster-routed job completes through the coordinator's API.
	bellReq := &serve.SubmitRequest{
		QASM: "qreg q[2]; h q[0]; cx q[0],q[1];", Shots: 200, Seed: 7}
	sub, err := c.Submit(ctx, bellReq)
	if err != nil {
		t.Fatalf("submit via coordinator: %v", err)
	}
	if !strings.HasPrefix(sub.Job.ID, "cj-") || sub.Job.Replica == "" {
		t.Fatalf("coordinator job view = id %q replica %q, want cj- id with attribution",
			sub.Job.ID, sub.Job.Replica)
	}
	wctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	v, err := c.Wait(wctx, sub.Job.ID, 10*time.Millisecond)
	cancel()
	if err != nil || v.State != serve.StateDone {
		t.Fatalf("bell via coordinator: %+v, %v", v, err)
	}
	res, err := c.Result(ctx, sub.Job.ID)
	if err != nil {
		t.Fatalf("result via coordinator: %v", err)
	}
	total := 0
	for bits, n := range res.Shots {
		if bits != "00" && bits != "11" {
			t.Fatalf("impossible bell shot %q", bits)
		}
		total += n
	}
	if total != 200 {
		t.Fatalf("bell shots: %v", res.Shots)
	}

	// Consistent hashing sends the identical circuit back to the same
	// replica, where it hits that replica's result cache.
	again, err := c.Submit(ctx, bellReq)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if again.Job.Replica != sub.Job.Replica {
		t.Errorf("resubmit routed to %q, first to %q; hashing lost locality",
			again.Job.Replica, sub.Job.Replica)
	}
	if again.Job.Cache != serve.CacheHit {
		t.Errorf("resubmit cache = %q, want hit on the owning replica", again.Job.Cache)
	}

	// The fleet-merged tenant view accounts the session under "gold".
	tenants, err := c.Tenants(ctx)
	if err != nil {
		t.Fatal(err)
	}
	foundGold := false
	for _, tv := range tenants {
		if tv.Name == "gold" {
			foundGold = true
			if tv.Submitted < 2 {
				t.Errorf("gold accounting = %+v, want >=2 submitted", tv)
			}
		}
	}
	if !foundGold {
		t.Fatalf("tenant gold missing from the coordinator's /v1/tenants: %+v", tenants)
	}

	// Membership: /healthz reports the full fleet alive, then the kill of
	// r1 surfaces as a dead replica while the coordinator stays serving.
	health, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if health["role"] != "coordinator" || health["alive"].(float64) != 2 {
		t.Fatalf("healthz = %v, want coordinator role with 2 alive", health)
	}
	if err := r1.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	deadSeen := false
	for end := time.Now().Add(30 * time.Second); time.Now().Before(end); {
		health, err = c.Health(ctx)
		if err == nil && health["alive"].(float64) == 1 {
			deadSeen = true
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !deadSeen {
		t.Fatalf("coordinator never marked the killed replica dead: %v", health)
	}
	// The survivor still serves new work through the coordinator.
	after, err := c.Submit(ctx, &serve.SubmitRequest{Circuit: "ghz", N: 8})
	if err != nil {
		t.Fatalf("submit after replica death: %v", err)
	}
	wctx, cancel = context.WithTimeout(ctx, 60*time.Second)
	v, err = c.Wait(wctx, after.Job.ID, 10*time.Millisecond)
	cancel()
	if err != nil || v.State != serve.StateDone {
		t.Fatalf("post-failover job: %+v, %v", v, err)
	}

	// SIGTERM: the coordinator drains and exits 0.
	if err := coord.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- coord.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("coordinator exited non-zero after SIGTERM: %v (stderr: %s)", err, coord.Stderr)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("coordinator did not exit after SIGTERM")
	}
}
