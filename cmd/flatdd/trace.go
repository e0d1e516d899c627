package main

import (
	"context"
	"fmt"
	"io"
	"os"

	"flatdd/internal/circuit"
	"flatdd/internal/core"
	"flatdd/internal/obs"
)

// gateRecord is the JSONL wire form of one per-gate event (-trace-out).
type gateRecord struct {
	Event      string  `json:"event"` // "gate"
	Gate       int     `json:"gate"`
	Phase      string  `json:"phase"` // "dd" | "dmav"
	DDSize     int     `json:"dd_size"`
	EWMA       float64 `json:"ewma"`
	DurationNs int64   `json:"duration_ns"`
	Converted  bool    `json:"converted"`
}

// traceHook returns the per-gate hook of -trace and -trace-out: it prints
// each event to out when out is non-nil and writes its gate line to tw
// (a nil TraceWriter drops it). With neither it returns nil, so the
// engine builds no events.
func traceHook(out io.Writer, tw *obs.TraceWriter) func(core.TraceEvent) {
	if out == nil && tw == nil {
		return nil
	}
	return func(e core.TraceEvent) {
		switch {
		case out == nil:
		case e.Phase == core.PhaseDMAV:
			fmt.Fprintf(out, "  gate %4d [dmav] %v\n", e.GateIndex, e.Duration)
		default:
			mark := ""
			if e.Converted {
				mark = "  <= convert to DMAV"
			}
			fmt.Fprintf(out, "  gate %4d [dd]   size=%-8d ewma=%-10.1f %v%s\n",
				e.GateIndex, e.DDSize, e.EWMA, e.Duration, mark)
		}
		tw.Emit(gateRecord{
			Event:      "gate",
			Gate:       e.GateIndex,
			Phase:      e.Phase.String(),
			DDSize:     e.DDSize,
			EWMA:       e.EWMA,
			DurationNs: e.Duration.Nanoseconds(),
			Converted:  e.Converted,
		})
	}
}

// runTraced runs c on sim. With tw non-nil the run is the root "run" span
// of a fresh trace, so the engine's phase spans (phase.dd, phase.convert,
// phase.fuse, phase.dmav and the pool batches under them) land in tw next
// to the gate lines; the root span carries the run's summary, and tw is
// flushed before runTraced returns.
func runTraced(ctx context.Context, sim *core.Simulator, c *circuit.Circuit, tw *obs.TraceWriter) (core.Stats, error) {
	if tw == nil {
		return sim.RunContext(ctx, c)
	}
	root := obs.NewTracer(tw).Root("run", obs.TraceID{}, obs.SpanID{})
	root.SetAttr("circuit", c.Name)
	root.SetAttr("qubits", c.Qubits)
	root.SetAttr("gates", c.GateCount())
	st, err := sim.RunContext(obs.ContextWithSpan(ctx, root), c)
	root.SetAttr("converted_at", st.ConvertedAtGate)
	root.SetAttr("final_phase", sim.Phase().String())
	root.SetAttr("peak_dd_nodes", st.PeakDDNodes)
	root.SetAttr("timed_out", st.TimedOut)
	if err != nil {
		root.SetAttr("error", err.Error())
	}
	root.End()
	if ferr := tw.Flush(); ferr != nil {
		fmt.Fprintln(os.Stderr, "flatdd: trace-out:", ferr)
	}
	return st, err
}
