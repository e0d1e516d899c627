// Command flatdd simulates a quantum circuit with the FlatDD hybrid engine
// (or one of the two baseline engines) and reports the final state.
//
// Circuits come either from an OpenQASM 2.0 file (-qasm) or from a built-in
// workload generator (-circuit, -n). Examples:
//
//	flatdd -circuit ghz -n 20 -top 4
//	flatdd -circuit supremacy -n 16 -threads 8 -trace
//	flatdd -qasm bench.qasm -engine ddsim
//	flatdd -circuit dnn -n 14 -fusion dmav -shots 1000
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/cmplx"
	"math/rand"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"flatdd/internal/circuit"
	"flatdd/internal/core"
	"flatdd/internal/dd"
	"flatdd/internal/dmav"
	"flatdd/internal/harness"
	"flatdd/internal/obs"
	"flatdd/internal/qasm"
	"flatdd/internal/workloads"
)

func main() {
	var (
		qasmPath  = flag.String("qasm", "", "OpenQASM 2.0 file to simulate")
		name      = flag.String("circuit", "", fmt.Sprintf("built-in workload %v", workloads.Names()))
		n         = flag.Int("n", 16, "qubit count for built-in workloads")
		seed      = flag.Int64("seed", 1, "workload generator seed")
		engine    = flag.String("engine", "flatdd", "engine: flatdd | ddsim | statevec")
		threads   = flag.Int("threads", 4, "worker threads (FlatDD and statevec)")
		beta      = flag.Float64("beta", 0.9, "EWMA beta (FlatDD)")
		epsilon   = flag.Float64("epsilon", 2.0, "EWMA epsilon (FlatDD)")
		fusionF   = flag.String("fusion", "none", "gate fusion: none | dmav | kops (k-operations, k = 4) (FlatDD)")
		cache     = flag.String("cache", "auto", "DMAV caching: auto | always | never")
		top       = flag.Int("top", 8, "print the K largest final amplitudes")
		shots     = flag.Int("shots", 0, "sample this many measurement shots")
		trace     = flag.Bool("trace", false, "print a per-gate trace (FlatDD)")
		traceOut  = flag.String("trace-out", "", "write a JSONL per-gate trace to this file (FlatDD)")
		listen    = flag.String("listen", "", "serve /debug/metrics, /debug/vars and /debug/pprof on this address during the run (e.g. :6060, :0)")
		timeout   = flag.Duration("timeout", 0, "abort after this duration (0 = none)")
		memMB     = flag.Int("memory-budget-mb", 0, "flat-array memory budget in MiB; over-budget runs stay DD-only (0 = unlimited, FlatDD)")
		integrity = flag.Int("integrity-every", 0, "NaN/Inf/norm-sweep the flat state every N DMAV gates (0 = off, FlatDD)")
		emit      = flag.String("emit", "", "write the loaded circuit as OpenQASM 2.0 to this file and exit")
	)
	flag.Parse()

	c, err := loadCircuit(*qasmPath, *name, *n, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flatdd:", err)
		os.Exit(1)
	}
	fmt.Printf("circuit %s: %d qubits, %d gates, depth %d\n",
		c.Name, c.Qubits, c.GateCount(), c.Depth())

	if *emit != "" {
		f, err := os.Create(*emit)
		if err != nil {
			fmt.Fprintln(os.Stderr, "flatdd:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := qasm.Write(f, c); err != nil {
			fmt.Fprintln(os.Stderr, "flatdd:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *emit)
		return
	}

	// The registry is always on for the flatdd engine: handle updates are
	// single atomics, and the end-of-run metrics table is part of the
	// report. The debug server works for every engine (pprof and expvar are
	// engine-independent; /debug/metrics is only populated by flatdd).
	var reg *obs.Registry
	if *engine == "flatdd" {
		reg = obs.New()
	}
	if *listen != "" {
		addr, shutdown, err := obs.Serve(*listen, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "flatdd:", err)
			os.Exit(1)
		}
		defer shutdown() //nolint:errcheck // process is exiting anyway
		fmt.Printf("debug server on http://%s/debug/metrics\n", addr)
	}

	switch *engine {
	case "flatdd":
		opts := core.Options{
			Threads: *threads, Beta: *beta, Epsilon: *epsilon, Metrics: reg,
			MemoryBudget:   uint64(*memMB) << 20,
			IntegrityEvery: *integrity,
		}
		// With -trace-out, gate lines and phase spans share one buffered
		// TraceWriter, so the JSONL stream interleaves safely.
		var tw *obs.TraceWriter
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, "flatdd:", err)
				os.Exit(1)
			}
			defer f.Close()
			tw = obs.NewTraceWriter(f)
		}
		switch *fusionF {
		case "none":
		case "dmav":
			opts.Fusion = core.DMAVAware
		case "kops":
			opts.Fusion = core.KOps
		default:
			fmt.Fprintf(os.Stderr, "flatdd: unknown fusion mode %q\n", *fusionF)
			os.Exit(1)
		}
		switch *cache {
		case "auto":
			opts.CacheMode = dmav.Auto
		case "always":
			opts.CacheMode = dmav.AlwaysCache
		case "never":
			opts.CacheMode = dmav.NeverCache
		default:
			fmt.Fprintf(os.Stderr, "flatdd: unknown cache mode %q\n", *cache)
			os.Exit(1)
		}
		var printTo io.Writer
		if *trace {
			printTo = os.Stdout
		}
		opts.Trace = traceHook(printTo, tw)
		// The run context carries the timeout and Ctrl-C/SIGTERM: the
		// engine observes either within one gate (core.RunContext).
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		sim := core.New(c.Qubits, opts)
		st, err := runTraced(ctx, sim, c, tw)
		switch {
		case errors.Is(err, core.ErrDeadlineExceeded):
			fmt.Println("TIMED OUT")
			os.Exit(2)
		case errors.Is(err, core.ErrCanceled):
			fmt.Println("CANCELED (signal)")
			os.Exit(2)
		case errors.Is(err, core.ErrNumericalDrift):
			fmt.Fprintln(os.Stderr, "flatdd: ABORTED,", err)
			os.Exit(3)
		case err != nil:
			fmt.Fprintln(os.Stderr, "flatdd:", err)
			os.Exit(1)
		}
		fmt.Printf("engine: FlatDD (threads=%d, beta=%g, epsilon=%g, fusion=%s)\n",
			*threads, *beta, *epsilon, *fusionF)
		if st.ConvertedAtGate >= 0 {
			fmt.Printf("converted to DMAV at gate %d (DD size %d); conversion took %v\n",
				st.ConvertedAtGate, st.FinalDDSize, st.ConversionTime)
			fmt.Printf("phases: dd=%v convert=%v fusion=%v dmav=%v\n",
				st.DDTime, st.ConversionTime, st.FusionTime, st.DMAVTime)
			fmt.Printf("dmav: %d gates (%d cached, %d cache hits)\n",
				st.DMAVStats.Gates, st.DMAVStats.CachedGates, st.DMAVStats.CacheHits)
		} else if st.Degraded {
			fmt.Printf("DEGRADED (%s): conversion suppressed, entire circuit ran in the DD phase\n",
				st.DegradedReason)
		} else {
			fmt.Println("entire circuit ran in the DD phase (regular state)")
		}
		fmt.Printf("total: %v, peak DD nodes: %d, est. memory: %.2f MB\n",
			st.TotalTime, st.PeakDDNodes, float64(st.MemoryBytes)/1e6)
		printResources(st.Resources)
		printMetrics(reg.Snapshot())
		printTop(sim.TopAmplitudes(*top), c.Qubits)
		if *shots > 0 {
			printShots(sim.Sample(rand.New(rand.NewSource(*seed)), *shots), c.Qubits)
		}

	case "ddsim":
		report(harness.RunDDSIM(c, *timeout))

	case "statevec":
		res := harness.RunStatevec(c, *threads, *timeout)
		report(res)

	default:
		fmt.Fprintf(os.Stderr, "flatdd: unknown engine %q\n", *engine)
		os.Exit(1)
	}
}

func loadCircuit(qasmPath, name string, n int, seed int64) (*circuit.Circuit, error) {
	switch {
	case qasmPath != "" && name != "":
		return nil, fmt.Errorf("use either -qasm or -circuit, not both")
	case qasmPath != "":
		return qasm.ParseFile(qasmPath)
	case name != "":
		return workloads.Build(name, n, seed)
	default:
		return nil, fmt.Errorf("nothing to simulate: pass -qasm <file> or -circuit <name>")
	}
}

// printResources renders the run's resource-ledger breakdown: what each
// engine phase cost in CPU time, allocation, and live memory.
func printResources(res *obs.LedgerSnapshot) {
	if res == nil || len(res.Phases) == 0 {
		return
	}
	fmt.Println("resources:")
	fmt.Printf("  %-8s %12s %12s %12s %12s\n", "phase", "wall", "cpu", "alloc", "peak mem")
	for _, pc := range res.Phases {
		fmt.Printf("  %-8s %12v %12v %12s %12s\n",
			pc.Phase, time.Duration(pc.WallNs).Round(time.Microsecond),
			time.Duration(pc.CPUNs).Round(time.Microsecond),
			fmtBytes(pc.AllocBytes), fmtBytes(pc.PeakDDBytes+pc.PeakFlatBytes))
	}
	fmt.Printf("  %-8s %12v %12v %12s %12s   (gc cycles: %d)\n",
		"total", time.Duration(res.WallNs).Round(time.Microsecond),
		time.Duration(res.CPUNs).Round(time.Microsecond),
		fmtBytes(res.AllocBytes), fmtBytes(res.PeakBytes), res.GCCycles)
}

// fmtBytes renders a byte quantity with adaptive binary units.
func fmtBytes(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%d B", b)
	}
}

// printMetrics renders the registry highlights as a small table: table
// sizes and hit rates for the DD layers, cache behaviour and MAC volume
// for DMAV, and the conversion parallelism. The full snapshot is always
// available as JSON via -listen.
func printMetrics(snap obs.Snapshot) {
	rate := func(hits, total int64) string {
		if total == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f%%", 100*float64(hits)/float64(total))
	}
	c, g := snap.Counters, snap.Gauges
	fmt.Println("metrics:")
	fmt.Printf("  %-22s %12s %10s\n", "layer", "lookups", "hit rate")
	fmt.Printf("  %-22s %12d %10s\n", "dd unique (vector)",
		c["dd.unique.v.hits"]+c["dd.unique.v.misses"],
		rate(c["dd.unique.v.hits"], c["dd.unique.v.hits"]+c["dd.unique.v.misses"]))
	fmt.Printf("  %-22s %12d %10s\n", "dd unique (matrix)",
		c["dd.unique.m.hits"]+c["dd.unique.m.misses"],
		rate(c["dd.unique.m.hits"], c["dd.unique.m.hits"]+c["dd.unique.m.misses"]))
	ctLookups := c["dd.ct.add.lookups"] + c["dd.ct.madd.lookups"] + c["dd.ct.mv.lookups"] + c["dd.ct.mm.lookups"]
	ctHits := c["dd.ct.add.hits"] + c["dd.ct.madd.hits"] + c["dd.ct.mv.hits"] + c["dd.ct.mm.hits"]
	fmt.Printf("  %-22s %12d %10s\n", "dd compute tables", ctLookups, rate(ctHits, ctLookups))
	fmt.Printf("  %-22s %12d\n", "cnum interning", c["cnum.lookups"])
	if c["dmav.gates"] > 0 {
		fmt.Printf("  %-22s %12d %10s   (%d/%d gates cached)\n", "dmav amplitude cache",
			c["dmav.cache.hits"]+c["dmav.cache.misses"],
			rate(c["dmav.cache.hits"], c["dmav.cache.hits"]+c["dmav.cache.misses"]),
			c["dmav.gates.cached"], c["dmav.gates"])
		fmt.Printf("  dmav MACs (modeled): %d, executed: %d over %d tasks in %d chunks\n",
			c["dmav.macs.modeled"], c["dmav.macs.executed"], c["dmav.tasks"], c["dmav.chunks"])
	}
	if c["dd.gc.runs"] > 0 {
		fmt.Printf("  dd GC: %d runs, %d nodes reclaimed, %v paused\n",
			c["dd.gc.runs"], c["dd.gc.reclaimed"], time.Duration(c["dd.gc.pause_ns"]))
	}
	if c["convert.runs"] > 0 {
		fmt.Printf("  conversion: %d tasks, %.0f%% parallel efficiency\n",
			c["convert.tasks"], 100*snap.FloatGauges["convert.efficiency"])
	}
	if c["sched.batches"] > 0 {
		fmt.Printf("  scheduler: %d workers ran %d tasks in %d batches, %d steals, %v idle\n",
			g["sched.workers"], c["sched.tasks"], c["sched.batches"],
			c["sched.steals"], time.Duration(c["sched.idle_ns"]))
	}
}

func report(res harness.Result) {
	if res.TimedOut {
		fmt.Printf("engine: %s TIMED OUT after %v\n", res.Engine, res.Runtime)
		os.Exit(2)
	}
	fmt.Printf("engine: %s\nruntime: %v, est. memory: %.2f MB\n",
		res.Engine, res.Runtime, float64(res.Memory)/1e6)
}

// printTop renders the dominant basis states. In the DD phase the entries
// come from a branch-and-bound query, so even a 30-qubit GHZ state prints
// instantly without expanding 2^30 amplitudes.
func printTop(entries []dd.AmpEntry, n int) {
	if len(entries) == 0 {
		return
	}
	fmt.Printf("top %d basis states:\n", len(entries))
	for _, e := range entries {
		a := e.Amplitude
		p := real(a)*real(a) + imag(a)*imag(a)
		fmt.Printf("  |%0*b>  p=%.6f  amp=%v\n", n, e.Index, p, cround(a))
	}
}

func printShots(counts map[uint64]int, n int) {
	type kv struct {
		idx uint64
		c   int
	}
	var list []kv
	for i, c := range counts {
		list = append(list, kv{i, c})
	}
	sort.Slice(list, func(i, j int) bool { return list[i].c > list[j].c })
	fmt.Println("measurement shots:")
	for i, e := range list {
		if i >= 10 {
			fmt.Printf("  ... and %d more outcomes\n", len(list)-10)
			break
		}
		fmt.Printf("  |%0*b>  %d\n", n, e.idx, e.c)
	}
}

func cround(c complex128) complex128 {
	if cmplx.Abs(c) < 1e-12 {
		return 0
	}
	return c
}
