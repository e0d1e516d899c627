package obs

// Introspection and test knobs that only the suites need.

import "time"

// Quantiles estimates several quantiles in one call (one pass per
// quantile; the snapshot is already detached so this is cheap).
func (h HistogramSnapshot) Quantiles(qs ...float64) []float64 {
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = h.Quantile(q)
	}
	return out
}

// SetMaxSpans overrides the per-trace collection cap (tests).
func (t *Tracer) SetMaxSpans(n int) {
	if t != nil && n > 0 {
		t.max = n
	}
}

// Window returns the configured epoch duration (0 for a nil receiver).
func (w *WindowedHistogram) Window() time.Duration {
	if w == nil {
		return 0
	}
	return w.window
}

// Count returns the number of observations (0 for a nil Histogram).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the sum of all observations (0 for a nil Histogram).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}
