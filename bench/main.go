// Command bench is the repository benchmark: four closed-loop workloads,
// six end-to-end metrics measured with tracing off, and per-layer
// metrics from a separate traced run. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// An untraced run sets the workload up at least setupRepeats times, and a
// cheap set-up (serve_regular's takes 40 ms) until setupFill has been
// spent or setupMaxRepeats reached. setup_s is the median, so a disturbed
// set-up does not move it.
const (
	setupRepeats    = 3
	setupMaxRepeats = 25
	setupFill       = time.Second
)

const mib = 1 << 20

var workloadNames = []string{"irregular_dmav", "fused_deep", "wide_handoff", "serve_regular"}

// workload is a set-up workload ready to be measured.
type workload interface {
	// timedLoop runs the untraced closed loop for the budget.
	timedLoop(budget time.Duration) loopResult
	// kernel is the reference kernel the workload's times are corrected
	// with, nil when it reports raw times.
	kernel() *hostRef
	// traced spends the budget on the traced loop, the staged replay and
	// the layer probes, and returns the measured per-layer values.
	traced(budget time.Duration, tr *tracer) (loopResult, map[string]float64, map[string]string)
	close()
}

func setup(name string, seed int64, threads int) (workload, error) {
	if spec, ok := engineSpecs[name]; ok {
		return setupEngine(spec, seed, threads, newHostRef(spec.qubits, threads))
	}
	if name == "serve_regular" {
		return setupServe(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (known: %v)", name, workloadNames)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of a run's standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: irregular_dmav, fused_deep, wide_handoff or serve_regular")
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same circuits and QASM texts")
	seconds := fs.Float64("seconds", 25, "length of the measured loop")
	trace := fs.String("trace", "0", "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run; any other value: as 1, writing the spans to that file")
	out := fs.String("out", "bench/out", "directory for trace files")
	all := fs.Bool("all", false, "run every workload untraced; exit non-zero if any job fails")
	aa := fs.Int("aa", 0, "A/A check: two interleaved sets of N runs per workload; exit non-zero if a metric's medians differ by more than its bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *aa > 0:
		return runAA(*aa, *name, *seed, *seconds, stdout, stderr)
	case *all:
		return runAll(*seed, *seconds, *trace, stdout, stderr)
	}

	threads := min(2, runtime.NumCPU())
	runtime.GOMAXPROCS(threads)
	fmt.Fprintf(stdout, "workload=%s seed=%d seconds=%g trace=%s nproc=%d gomaxprocs=%d threads=%d go=%s commit=%s\n",
		*name, *seed, *seconds, *trace, runtime.NumCPU(), threads, threads, runtime.Version(), commit())
	budget := time.Duration(*seconds * float64(time.Second))

	var (
		rep report
		err error
	)
	if *trace == "0" {
		rep, err = runUntraced(*name, *seed, threads, budget, stdout)
	} else {
		path := *trace
		if path == "1" {
			path = filepath.Join(*out, *name+".trace.jsonl")
		}
		rep, err = runTraced(*name, *seed, threads, budget, path, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rep.Correct {
		return 1
	}
	return 0
}

// commit is the VCS revision stamped into the binary, when there is one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func runUntraced(name string, seed int64, threads int, budget time.Duration, stdout io.Writer) (report, error) {
	var (
		w         workload
		setups    []float64 // seconds
		setupRefs []float64 // reference kernel before every set-up and after the last
		spent     time.Duration
	)
	for k := 0; k < setupRepeats || (spent < setupFill && k < setupMaxRepeats); k++ {
		if w != nil {
			setupRefs = append(setupRefs, w.kernel().run())
			w.close()
			w = nil
			runtime.GC() // the previous set-up's oracles must not raise the resident set
		}
		t0 := time.Now()
		var err error
		if w, err = setup(name, seed, threads); err != nil {
			return report{}, err
		}
		d := time.Since(t0)
		spent += d
		setups = append(setups, d.Seconds())
	}
	defer w.close()
	setupRefs = append(setupRefs, w.kernel().run())

	r := w.timedLoop(budget)
	jobs := float64(len(r.durs))
	if jobs == 0 {
		return report{}, fmt.Errorf("%s: no job passed verification (%d attempted): %v", name, r.attempted, r.firstErr)
	}
	// Times are reported on the scale of an undisturbed host (hostref.go);
	// the lines show the raw values next to them.
	fSetup, fLoop := w.kernel().factor(setupRefs), w.kernel().factor(r.refMS)
	setupS, p50, rate := median(setups), r.p50(), jobs/r.wall.Seconds()
	values := map[string]float64{
		"setup_s":          setupS * fSetup,
		"job_p50_ms":       p50 * fLoop,
		"jobs_per_s":       rate / fLoop,
		"alloc_mb_per_job": float64(r.allocBytes) / jobs / mib,
		"rss_p50_mb":       median(r.rssMB),
	}
	notes := map[string]string{"rss_p50_mb": fmt.Sprintf("peak %.6g MB", peakRSSMB())}
	if w.kernel() != nil {
		notes["setup_s"] = fmt.Sprintf("raw %.6g s, host factor %.4f", setupS, fSetup)
		notes["job_p50_ms"] = fmt.Sprintf("raw %.6g ms, host factor %.4f from %d kernel runs, p50 %.3f ms", p50, fLoop, len(r.refMS), median(r.refMS))
		notes["jobs_per_s"] = fmt.Sprintf("raw %.6g 1/s", rate)
	}
	return printReport(stdout, r, endToEnd, values, notes), nil
}

func runTraced(name string, seed int64, threads int, budget time.Duration, path string, stdout io.Writer) (report, error) {
	w, err := setup(name, seed, threads)
	if err != nil {
		return report{}, err
	}
	defer w.close()
	tr := newTracer()
	r, values, notes := w.traced(budget, tr)
	if err := writeSpans(path, tr.finish()); err != nil {
		return report{}, err
	}
	fmt.Fprintf(stdout, "spans=%d file=%s\n", len(tr.spans), path)
	return printReport(stdout, r, perLayer, values, notes), nil
}

// printReport prints one line per metric and builds the JSON report. A
// metric without a value is a layer the workload left idle.
func printReport(stdout io.Writer, r loopResult, defs []metricDef, values map[string]float64, notes map[string]string) report {
	fmt.Fprintf(stdout, "attempted=%d failed=%d refused=%d wall_s=%.3f\n", r.attempted, r.failed, r.refused, r.wall.Seconds())
	if r.firstErr != nil {
		fmt.Fprintf(stdout, "first_failure=%v\n", r.firstErr)
	}
	rep := report{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) { // a rate over a zero-length interval
			v, ok = 0, false
		}
		rep.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		switch {
		case !ok:
			fmt.Fprintf(stdout, "%-28s unmeasured %s (layer idle on this workload)\n", d.name, d.unit)
		case notes[d.name] != "":
			fmt.Fprintf(stdout, "%-28s %.6g %s (%s)\n", d.name, v, d.unit, notes[d.name])
		default:
			fmt.Fprintf(stdout, "%-28s %.6g %s\n", d.name, v, d.unit)
		}
	}
	return rep
}
