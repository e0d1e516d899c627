// Command flatdd-serve runs the FlatDD simulation job service: a
// long-lived, multi-tenant HTTP/JSON server that accepts OpenQASM or
// named-workload circuits, admits them against memory budgets and
// per-tenant quotas, serves repeats from a canonical-circuit result
// cache (coalescing identical in-flight submissions), and executes the
// rest on one shared worker pool via a weighted-fair queue with
// per-job deadlines and cancellation.
//
//	flatdd-serve -listen :8080 -threads 8 -inflight 2 -mem-budget-mb 4096 \
//	    -cache-budget-mb 64 -tenant-weights gold=4,bronze=1
//
//	curl -s localhost:8080/v1/jobs -H 'X-Tenant: gold' -d '{"circuit":"ghz","n":20,"shots":100}'
//	curl -s localhost:8080/v1/jobs/j-000001
//	curl -s localhost:8080/v1/jobs/j-000001/result
//	curl -s localhost:8080/v1/tenants
//	curl -s -X DELETE localhost:8080/v1/jobs/j-000001
//
// SIGINT/SIGTERM triggers a graceful drain: admission stops (503),
// queued jobs are canceled, in-flight jobs get -grace to finish before
// their contexts are canceled, then the process exits 0.
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"flatdd/internal/serve"
)

func main() {
	var (
		listen    = flag.String("listen", ":8080", "HTTP listen address (e.g. :8080, 127.0.0.1:0)")
		threads   = flag.Int("threads", 0, "shared scheduler pool workers (0 = GOMAXPROCS)")
		queue     = flag.Int("queue", 64, "max queued jobs (FIFO depth)")
		inflight  = flag.Int("inflight", 2, "max concurrently running jobs")
		budgetMB  = flag.Int("mem-budget-mb", 4096, "per-job flat-array memory budget in MiB (admission control)")
		maxQ      = flag.Int("max-qubits", 30, "hard register-size cap")
		timeout   = flag.Duration("timeout", 2*time.Minute, "default per-job deadline")
		maxTO     = flag.Duration("max-timeout", 10*time.Minute, "cap on requested per-job deadlines")
		grace     = flag.Duration("grace", 10*time.Second, "drain grace for in-flight jobs on SIGTERM")
		engMB     = flag.Int("memory-budget", 0, "engine flat-array budget in MiB: over-budget jobs complete DD-only in degraded mode (0 = off)")
		retries   = flag.Int("retries", 2, "max re-queues of a job that fails with a transient engine fault (0 = off)")
		integrity = flag.Int("integrity-every", 0, "NaN/Inf/norm-sweep job states every N DMAV gates (0 = off)")
		traceOut  = flag.String("trace-out", "", "append span + per-gate trace events as JSONL to this file (empty = off)")
		flight    = flag.Int("flight", 64, "flight recorder capacity: last N job span trees kept at /debug/jobs")
		logFormat = flag.String("log-format", "text", "request log format on stderr: text, json, or off")
		admission = flag.String("admission", serve.AdmissionWorstCase,
			"dispatch-gate accounting: worstcase holds each job's static worst case; ledger releases down to the observed/projected footprint (higher concurrency under the same budget)")
		totalMB = flag.Int("total-mem-budget-mb", 0, "process-wide concurrent-memory budget in MiB for the dispatch gate (0 = inflight x mem-budget-mb)")
		cacheMB = flag.Int("cache-budget-mb", 64, "result cache budget in MiB: repeat submissions of a circuit complete without an engine run (0 = off)")
		tenantQ = flag.Int("tenant-queue", 0, "per-tenant queued-job quota (0 = the global queue depth)")
		tenantI = flag.Int("tenant-inflight", 0, "per-tenant running-job cap (0 = the global inflight cap)")
		tenantW = flag.String("tenant-weights", "", "comma-separated fair-scheduling weights, e.g. gold=4,bronze=1 (unlisted tenants weigh 1)")
	)
	flag.Parse()
	weights, err := parseWeights(*tenantW)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flatdd-serve:", err)
		os.Exit(2)
	}
	if *admission != serve.AdmissionWorstCase && *admission != serve.AdmissionLedger {
		fmt.Fprintf(os.Stderr, "flatdd-serve: unknown -admission %q (want %s or %s)\n",
			*admission, serve.AdmissionWorstCase, serve.AdmissionLedger)
		os.Exit(2)
	}

	var traceW io.Writer
	if *traceOut != "" {
		f, err := os.OpenFile(*traceOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "flatdd-serve:", err)
			os.Exit(1)
		}
		defer f.Close() //nolint:errcheck // serve.Shutdown flushed already
		traceW = f
	}
	var logger *slog.Logger
	switch *logFormat {
	case "text":
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	case "json":
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	case "off":
		logger = slog.New(slog.DiscardHandler)
	default:
		fmt.Fprintf(os.Stderr, "flatdd-serve: unknown -log-format %q (want text, json, or off)\n", *logFormat)
		os.Exit(2)
	}

	srv := serve.New(serve.Config{
		Threads:            *threads,
		QueueDepth:         *queue,
		MaxInFlight:        *inflight,
		MemoryBudget:       uint64(*budgetMB) << 20,
		MaxQubits:          *maxQ,
		DefaultTimeout:     *timeout,
		MaxTimeout:         *maxTO,
		DrainGrace:         *grace,
		EngineMemoryBudget: uint64(*engMB) << 20,
		MaxRetries:         normRetries(*retries),
		IntegrityEvery:     *integrity,
		TraceJSONL:         traceW,
		FlightRecorderSize: *flight,
		Logger:             logger,
		AdmissionMode:      *admission,
		TotalMemoryBudget:  uint64(*totalMB) << 20,
		ResultCacheBudget:  normCacheBudget(*cacheMB),
		TenantMaxQueued:    *tenantQ,
		TenantMaxInFlight:  *tenantI,
		TenantWeights:      weights,
	})

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flatdd-serve:", err)
		os.Exit(1)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln) //nolint:errcheck // ErrServerClosed after Close
	fmt.Printf("flatdd-serve listening on http://%s (budget %d MiB, queue %d, inflight %d)\n",
		ln.Addr(), *budgetMB, *queue, *inflight)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	// Drain with the HTTP server still up so status polls keep working;
	// admission already rejects with 503.
	fmt.Println("flatdd-serve: draining...")
	srv.Shutdown()
	httpSrv.Close() //nolint:errcheck // process is exiting
	fmt.Println("flatdd-serve: drained, exiting")
}

// normRetries maps the flag's "0 = off" convention onto the Config's
// "negative = off, 0 = default" one.
func normRetries(n int) int {
	if n <= 0 {
		return -1
	}
	return n
}

// normCacheBudget maps the flag's "0 = off" convention onto the Config's
// "negative = off, 0 = default" one.
func normCacheBudget(mb int) int64 {
	if mb <= 0 {
		return -1
	}
	return int64(mb) << 20
}

// parseWeights parses "a=4,b=1" into Config.TenantWeights.
func parseWeights(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	weights := make(map[string]int)
	for _, pair := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			return nil, fmt.Errorf("bad -tenant-weights entry %q (want tenant=weight)", pair)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("bad weight %q for tenant %q (want a positive integer)", val, name)
		}
		weights[name] = w
	}
	return weights, nil
}
