// Command flatdd-serve runs the FlatDD simulation job service: a
// long-lived, multi-tenant HTTP/JSON server that accepts OpenQASM or
// named-workload circuits, admits them against one memory budget,
// serves repeats from a canonical-circuit result cache (coalescing
// identical in-flight submissions), and executes the rest on one shared
// worker pool, round-robin across tenants, with per-job deadlines and
// cancellation. The service's fixed limits (1 MiB bodies, a 2 m default
// and 10 m maximum job deadline, registers up to dmav.MaxQubits, the
// 64-trace flight recorder) are constants of internal/serve, not flags.
//
//	flatdd-serve -listen :8080 -threads 8 -inflight 2 -mem-budget-mb 8192 \
//	    -cache-budget-mb 64
//
//	curl -s localhost:8080/v1/jobs -H 'X-Tenant: gold' -d '{"circuit":"ghz","n":20,"shots":100}'
//	curl -s localhost:8080/v1/jobs/j-5f3a9c21-000001
//	curl -s localhost:8080/v1/jobs/j-5f3a9c21-000001/result
//	curl -s localhost:8080/v1/tenants
//	curl -s -X DELETE localhost:8080/v1/jobs/j-5f3a9c21-000001
//
// Job IDs are "j-<prefix>-<n>": the prefix is random per process, so an
// ID issued before a restart names no job after it (404), and n counts the
// process's submissions from 1 (take the ID from the submit response).
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
	"syscall"
	"time"

	"flatdd/internal/serve"
)

func main() {
	var (
		listen    = flag.String("listen", ":8080", "HTTP listen address (e.g. :8080, 127.0.0.1:0)")
		threads   = flag.Int("threads", 0, "shared scheduler pool workers (0 = GOMAXPROCS)")
		queue     = flag.Int("queue", 64, "max queued jobs across all tenants (a full queue rejects with 429)")
		inflight  = flag.Int("inflight", 2, "max concurrently running jobs")
		budgetMB  = flag.Int("mem-budget-mb", 8192, "process-wide flat-array memory budget in MiB. An n-qubit job needs (1+c)*16*2^n bytes, c the next power of two >= -threads (c = 1 with cache=never); a job over the budget is rejected (413), and running jobs together stay within it")
		grace     = flag.Duration("grace", 10*time.Second, "drain grace for in-flight jobs on SIGTERM")
		retries   = flag.Int("retries", 2, "max re-queues of a job that fails with a transient engine fault (0 = off)")
		integrity = flag.Int("integrity-every", 0, "NaN/Inf/norm-sweep job states every N DMAV gates (0 = off)")
		traceOut  = flag.String("trace-out", "", "append the span stream as JSONL to this file (empty = off)")
		logFormat = flag.String("log-format", "text", "request log format on stderr: text, json, or off")
		cacheMB   = flag.Int("cache-budget-mb", 64, "result cache budget in MiB: repeat submissions of a circuit complete without an engine run (0 = off)")
	)
	flag.Parse()

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
		Threads:           *threads,
		QueueDepth:        *queue,
		MaxInFlight:       *inflight,
		MemoryBudget:      uint64(*budgetMB) << 20,
		DrainGrace:        *grace,
		MaxRetries:        normRetries(*retries),
		IntegrityEvery:    *integrity,
		TraceJSONL:        traceW,
		Logger:            logger,
		ResultCacheBudget: normCacheBudget(*cacheMB),
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
