// Package harness runs the paper's evaluation (Section 4): it drives the
// three engines — FlatDD (internal/core), the DDSIM substitute
// (internal/ddsim) and the Quantum++ substitute (internal/statevec) — over
// the benchmark circuit families, with per-run timeouts standing in for the
// paper's 24-hour cutoff, and renders every table and figure as text.
//
// Experiment identifiers match DESIGN.md: fig1, fig3, table1, fig11, fig12,
// fig13, fig14, table2.
package harness

import (
	"context"
	"errors"
	"time"

	"flatdd/internal/circuit"
	"flatdd/internal/core"
	"flatdd/internal/dd"
	"flatdd/internal/ddsim"
	"flatdd/internal/obs"
	"flatdd/internal/statevec"
	"flatdd/internal/workloads"
)

// Engine names used in result rows.
const (
	EngineFlatDD  = "FlatDD"
	EngineDDSIM   = "DDSIM"
	EngineQuantum = "Quantum++"
)

// Result is one engine run on one circuit.
type Result struct {
	Circuit     string
	Qubits      int
	Gates       int
	Engine      string
	Runtime     time.Duration
	TimedOut    bool
	Memory      uint64 // working-set estimate in bytes
	ConvertedAt int    // FlatDD only; -1 otherwise
	Stats       *core.Stats
	// Metrics is the end-of-run registry snapshot; non-nil only when the
	// run was instrumented (RunFlatDD with Options.Metrics set).
	Metrics *obs.Snapshot
}

// ddNodeBytes aliases the shared per-node footprint model (see
// dd.NodeBytes) so harness memory estimates agree with core and the
// resource ledger.
const ddNodeBytes = dd.NodeBytes

// RunFlatDD runs the hybrid engine with the given options and timeout.
// The timeout rides on the run context (core.RunContext); a run that
// exceeds it returns core.ErrDeadlineExceeded and is reported through
// Result.TimedOut, matching the paper's cutoff semantics.
func RunFlatDD(c *circuit.Circuit, opts core.Options, timeout time.Duration) Result {
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	s := core.New(c.Qubits, opts)
	start := time.Now()
	st, err := s.RunContext(ctx, c)
	stats := st
	res := Result{
		Circuit: c.Name, Qubits: c.Qubits, Gates: c.GateCount(),
		Engine: EngineFlatDD, Runtime: time.Since(start),
		TimedOut: errors.Is(err, core.ErrDeadlineExceeded),
		Memory:   st.MemoryBytes, ConvertedAt: st.ConvertedAtGate, Stats: &stats,
	}
	if opts.Metrics != nil {
		snap := opts.Metrics.Snapshot()
		res.Metrics = &snap
	}
	return res
}

// RunDDSIM runs the pure-DD baseline gate by gate, honoring the timeout.
func RunDDSIM(c *circuit.Circuit, timeout time.Duration) Result {
	s := ddsim.New(c.Qubits)
	start := time.Now()
	deadline := time.Time{}
	if timeout > 0 {
		deadline = start.Add(timeout)
	}
	timedOut := false
	for i := range c.Gates {
		if !deadline.IsZero() && time.Now().After(deadline) {
			timedOut = true
			break
		}
		s.ApplyGate(&c.Gates[i])
	}
	return Result{
		Circuit: c.Name, Qubits: c.Qubits, Gates: c.GateCount(),
		Engine: EngineDDSIM, Runtime: time.Since(start), TimedOut: timedOut,
		Memory: uint64(s.Manager().PeakNodeCount()) * ddNodeBytes, ConvertedAt: -1,
	}
}

// RunStatevec runs the array baseline gate by gate with the given worker
// count, honoring the timeout.
func RunStatevec(c *circuit.Circuit, threads int, timeout time.Duration) Result {
	s := statevec.New(c.Qubits, threads)
	start := time.Now()
	deadline := time.Time{}
	if timeout > 0 {
		deadline = start.Add(timeout)
	}
	timedOut := false
	for i := range c.Gates {
		if !deadline.IsZero() && time.Now().After(deadline) {
			timedOut = true
			break
		}
		s.Apply(&c.Gates[i])
	}
	return Result{
		Circuit: c.Name, Qubits: c.Qubits, Gates: c.GateCount(),
		Engine: EngineQuantum, Runtime: time.Since(start), TimedOut: timedOut,
		Memory: s.MemoryBytes(), ConvertedAt: -1,
	}
}

// TraceDDSIM returns the per-gate runtimes of the DD baseline (Figure 11).
func TraceDDSIM(c *circuit.Circuit, timeout time.Duration) []time.Duration {
	s := ddsim.New(c.Qubits)
	out := make([]time.Duration, 0, c.GateCount())
	deadline := time.Now().Add(timeout)
	for i := range c.Gates {
		if timeout > 0 && time.Now().After(deadline) {
			break
		}
		g := time.Now()
		s.ApplyGate(&c.Gates[i])
		out = append(out, time.Since(g))
	}
	return out
}

// TraceStatevec returns the per-gate runtimes of the array baseline.
func TraceStatevec(c *circuit.Circuit, threads int) []time.Duration {
	s := statevec.New(c.Qubits, threads)
	out := make([]time.Duration, 0, c.GateCount())
	for i := range c.Gates {
		g := time.Now()
		s.Apply(&c.Gates[i])
		out = append(out, time.Since(g))
	}
	return out
}

// Scale selects the benchmark sizes.
type Scale string

const (
	// ScaleTiny is used by unit tests and quick smoke runs.
	ScaleTiny Scale = "tiny"
	// ScaleSmall is the container-scale default: the same circuit
	// families as the paper at sizes a single-machine Go run completes in
	// minutes.
	ScaleSmall Scale = "small"
	// ScalePaper uses the paper's register sizes (needs a large machine
	// and long timeouts, exactly like the original evaluation).
	ScalePaper Scale = "paper"
)

// Named is a labeled benchmark circuit.
type Named struct {
	Label string
	C     *circuit.Circuit
}

const workloadSeed = 20240812 // ICPP'24 started August 12, 2024

func mk(label, kind string, n int) Named {
	c, err := workloads.Build(kind, n, workloadSeed)
	if err != nil {
		panic(err)
	}
	return Named{Label: label, C: c}
}

// mkTinyDNN and mkTinySup build shallow variants of the deep families so
// the tiny scale finishes in seconds while keeping the circuit structure.
func mkTinyDNN(label string, n int) Named {
	return Named{Label: label, C: workloads.DNN(n, 8, workloadSeed)}
}

func mkTinySup(label string, n int) Named {
	return Named{Label: label, C: workloads.SupremacyGrid(n, 16, workloadSeed)}
}

// Table1Circuits returns the 12-circuit suite of Table 1 at the given
// scale.
func Table1Circuits(scale Scale) []Named {
	switch scale {
	case ScalePaper:
		return []Named{
			mk("DNN-16", "dnn", 16), mk("DNN-20", "dnn", 20), mk("DNN-25", "dnn", 25),
			mk("Adder-28", "adder", 28), mk("GHZ-23", "ghz", 23), mk("VQE-16", "vqe", 16),
			mk("KNN-25", "knn", 25), mk("KNN-31", "knn", 31), mk("Swaptest-25", "swaptest", 25),
			mk("Supremacy-20", "supremacy", 20), mk("Supremacy-24", "supremacy", 24),
			mk("Supremacy-26", "supremacy", 26),
		}
	case ScaleTiny:
		return []Named{
			mkTinyDNN("DNN-6", 6), mkTinyDNN("DNN-7", 7), mkTinyDNN("DNN-8", 8),
			mk("Adder-8", "adder", 8), mk("GHZ-10", "ghz", 10), mk("VQE-8", "vqe", 8),
			mk("KNN-7", "knn", 7), mk("KNN-9", "knn", 9), mk("Swaptest-7", "swaptest", 7),
			mkTinySup("Supremacy-6", 6), mkTinySup("Supremacy-8", 8),
			mkTinySup("Supremacy-9", 9),
		}
	default: // ScaleSmall
		return []Named{
			mk("DNN-10", "dnn", 10), mk("DNN-12", "dnn", 12), mk("DNN-14", "dnn", 14),
			mk("Adder-16", "adder", 16), mk("GHZ-16", "ghz", 16), mk("VQE-12", "vqe", 12),
			mk("KNN-13", "knn", 13), mk("KNN-15", "knn", 15), mk("Swaptest-13", "swaptest", 13),
			mk("Supremacy-10", "supremacy", 10), mk("Supremacy-12", "supremacy", 12),
			mk("Supremacy-14", "supremacy", 14),
		}
	}
}

// Fig1Circuits returns the two regular + two irregular circuits of
// Figure 1.
func Fig1Circuits(scale Scale) []Named {
	switch scale {
	case ScalePaper:
		return []Named{mk("Adder-28", "adder", 28), mk("GHZ-23", "ghz", 23),
			mk("DNN-16", "dnn", 16), mk("VQE-16", "vqe", 16)}
	case ScaleTiny:
		return []Named{mk("Adder-8", "adder", 8), mk("GHZ-10", "ghz", 10),
			mkTinyDNN("DNN-8", 8), mk("VQE-8", "vqe", 8)}
	default:
		return []Named{mk("Adder-14", "adder", 14), mk("GHZ-16", "ghz", 16),
			mk("DNN-12", "dnn", 12), mk("VQE-12", "vqe", 12)}
	}
}

// DeepCircuits returns the six deep circuits (>1000 gates) of Table 2 and
// Figure 14.
func DeepCircuits(scale Scale) []Named {
	switch scale {
	case ScalePaper:
		return []Named{
			mk("DNN-16", "dnn", 16), mk("DNN-20", "dnn", 20), mk("DNN-25", "dnn", 25),
			mk("Supremacy-20", "supremacy", 20), mk("Supremacy-24", "supremacy", 24),
			mk("Supremacy-26", "supremacy", 26),
		}
	case ScaleTiny:
		return []Named{
			mkTinyDNN("DNN-6", 6), mkTinyDNN("DNN-7", 7), mkTinyDNN("DNN-8", 8),
			mkTinySup("Supremacy-6", 6), mkTinySup("Supremacy-8", 8),
			mkTinySup("Supremacy-9", 9),
		}
	default:
		return []Named{
			mk("DNN-10", "dnn", 10), mk("DNN-12", "dnn", 12), mk("DNN-14", "dnn", 14),
			mk("Supremacy-10", "supremacy", 10), mk("Supremacy-12", "supremacy", 12),
			mk("Supremacy-14", "supremacy", 14),
		}
	}
}

// ScalabilityCircuits returns the two circuits of Figure 12.
func ScalabilityCircuits(scale Scale) []Named {
	switch scale {
	case ScalePaper:
		return []Named{mk("Supremacy-20", "supremacy", 20), mk("KNN-25", "knn", 25)}
	case ScaleTiny:
		return []Named{mkTinySup("Supremacy-8", 8), mk("KNN-9", "knn", 9)}
	default:
		return []Named{mk("Supremacy-12", "supremacy", 12), mk("KNN-15", "knn", 15)}
	}
}

// ConversionCircuits returns the 10-circuit set of Figure 13 (the Table 1
// suite minus the two circuits that never leave the DD phase).
func ConversionCircuits(scale Scale) []Named {
	all := Table1Circuits(scale)
	out := make([]Named, 0, 10)
	for _, nc := range all {
		if nc.C.Name[:3] == "add" || nc.C.Name[:3] == "ghz" {
			continue
		}
		out = append(out, nc)
	}
	return out
}
