package harness

import (
	"fmt"
	"math"
	"time"
)

// repStat summarizes the wall times of one cell's repetitions.
// StddevNs is the sample standard deviation (zero when N < 2).
type repStat struct {
	N        int
	MeanNs   float64
	StddevNs float64
}

// runReps executes one engine cell cfg.Reps times. It returns the last
// repetition's Result, with TimedOut set if any repetition timed out,
// and the wall-time statistics over all repetitions.
func (c Config) runReps(run func() Result) (Result, repStat) {
	reps := c.Reps
	if reps < 1 {
		reps = 1
	}
	var last Result
	timedOut := false
	ns := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		last = run()
		ns = append(ns, float64(last.Runtime.Nanoseconds()))
		timedOut = timedOut || last.TimedOut
	}
	last.TimedOut = timedOut
	st := repStat{N: reps, MeanNs: mean(ns)}
	if reps > 1 {
		ss := 0.0
		for _, v := range ns {
			d := v - st.MeanNs
			ss += d * d
		}
		st.StddevNs = math.Sqrt(ss / float64(reps-1))
	}
	return last, st
}

// fmtRun renders one cell's wall time for the printed tables: the
// repetition mean, the timeout marker, and ±stddev once there is more
// than one repetition.
func fmtRun(r Result, w repStat) string {
	s := fmtSeconds(time.Duration(w.MeanNs))
	if r.TimedOut {
		s = "> " + s
	}
	if w.N > 1 {
		s += fmt.Sprintf(" ±%s", fmtSeconds(time.Duration(w.StddevNs)))
	}
	return s
}
