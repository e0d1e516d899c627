// Command flatdd-bench regenerates the tables and figures of the FlatDD
// paper's evaluation (Section 4). Each experiment id matches DESIGN.md:
//
//	flatdd-bench -exp table1                 # Table 1 at container scale
//	flatdd-bench -exp fig13 -threads 8
//	flatdd-bench -exp all -scale tiny        # quick smoke run of everything
//	flatdd-bench -exp table2 -scale paper -timeout 24h   # the real thing
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"flatdd/internal/harness"
	"flatdd/internal/obs"
)

func main() { os.Exit(run()) }

// run carries the whole process body so deferred cleanup (the debug
// server shutdown) always executes and can fail the run — main os.Exits
// on the returned code only after every defer has run.
func run() (code int) {
	var (
		exp     = flag.String("exp", "all", fmt.Sprintf("experiment id, or a comma-separated list %v", harness.ExperimentIDs()))
		scale   = flag.String("scale", "small", "benchmark scale: tiny | small | paper")
		threads = flag.Int("threads", 16, "worker threads for FlatDD and Quantum++")
		timeout = flag.Duration("timeout", 5*time.Minute, "per-engine-run cutoff (paper: 24h)")
		reps    = flag.Int("reps", 1, "repetitions per engine-circuit cell; tables show mean ±stddev")
		csvDir  = flag.String("csv", "", "also export every table as CSV into this directory")
		listen  = flag.String("listen", "", "serve /debug/pprof and /debug/vars on this address while the experiments run")
	)
	flag.Parse()

	if *listen != "" {
		addr, shutdown, err := obs.Serve(*listen, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "flatdd-bench:", err)
			return 1
		}
		defer func() {
			if err := shutdown(); err != nil {
				fmt.Fprintln(os.Stderr, "flatdd-bench: debug server shutdown:", err)
				if code == 0 {
					code = 1
				}
			}
		}()
		fmt.Printf("debug server on http://%s/debug/pprof/\n", addr)
	}

	cfg := harness.Config{
		Scale:   harness.Scale(*scale),
		Threads: *threads,
		Timeout: *timeout,
		Out:     os.Stdout,
		CSVDir:  *csvDir,
		Reps:    *reps,
	}
	fmt.Printf("flatdd-bench: exp=%s scale=%s threads=%d reps=%d timeout=%v GOMAXPROCS=%d\n\n",
		*exp, *scale, *threads, *reps, *timeout, runtime.GOMAXPROCS(0))
	start := time.Now()
	for _, id := range strings.Split(*exp, ",") {
		if err := harness.RunExperiment(strings.TrimSpace(id), cfg); err != nil {
			fmt.Fprintln(os.Stderr, "flatdd-bench:", err)
			return 1
		}
	}
	fmt.Printf("done in %v\n", time.Since(start))
	return 0
}
