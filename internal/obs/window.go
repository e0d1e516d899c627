package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// WindowedHistogram is a fixed-bucket histogram over a sliding time
// window, built as two rotating epochs: observations land in the
// current epoch, and a snapshot merges the current and the previous
// one. The visible window therefore covers between 1× and 2× the
// configured duration — the standard two-epoch approximation, which
// keeps rotation O(1) and observation as cheap as a plain Histogram
// plus one coarse time check.
//
// The point is tail latency that reflects *recent* traffic: a
// lifetime-cumulative histogram's p99 converges to its historical value
// and stops moving, so an SLO gate on it never sees a regression that
// begins after enough healthy samples. /healthz quantiles come from
// here; the cumulative series stays in the Registry for Prometheus,
// whose rate() does its own windowing.
//
// The nil *WindowedHistogram is a valid no-op.
type WindowedHistogram struct {
	mu     sync.Mutex
	window time.Duration
	bounds []int64
	cur    *Histogram
	prev   *Histogram
	epoch  time.Time        // start of the current epoch
	now    func() time.Time // injectable for tests
}

// NewWindowedHistogram returns a windowed histogram with the given
// sorted bucket bounds (copied). A non-positive window defaults to
// 5 minutes.
func NewWindowedHistogram(bounds []int64, window time.Duration) *WindowedHistogram {
	if window <= 0 {
		window = 5 * time.Minute
	}
	b := make([]int64, len(bounds))
	copy(b, bounds)
	w := &WindowedHistogram{
		window: window,
		bounds: b,
		now:    time.Now,
	}
	w.cur = newHistogram(b)
	w.prev = newHistogram(b)
	w.epoch = w.now()
	return w
}

// newHistogram builds a standalone histogram over shared (read-only)
// bounds — the epoch buffers, unregistered so they never appear in a
// Registry snapshot.
func newHistogram(bounds []int64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one value into the current epoch. No-op on nil.
func (w *WindowedHistogram) Observe(v int64) {
	if w == nil {
		return
	}
	w.mu.Lock()
	w.rotateLocked()
	h := w.cur
	w.mu.Unlock()
	h.Observe(v)
}

// Snapshot merges the previous and current epochs into one detached
// HistogramSnapshot (feed it to HistogramSnapshot.Quantile). A nil
// receiver yields an empty snapshot.
func (w *WindowedHistogram) Snapshot() HistogramSnapshot {
	if w == nil {
		return HistogramSnapshot{}
	}
	w.mu.Lock()
	w.rotateLocked()
	cur, prev := w.cur, w.prev
	w.mu.Unlock()
	a, b := cur.Snapshot(), prev.Snapshot()
	out := HistogramSnapshot{
		Bounds: a.Bounds,
		Counts: make([]int64, len(a.Counts)),
		Count:  a.Count + b.Count,
		Sum:    a.Sum + b.Sum,
	}
	for i := range a.Counts {
		out.Counts[i] = a.Counts[i] + b.Counts[i]
	}
	return out
}

// rotateLocked advances the epochs to cover the current time: one
// elapsed window shifts current→previous; two or more discard both
// (nothing recent survives a long quiet period). Caller holds w.mu.
func (w *WindowedHistogram) rotateLocked() {
	el := w.now().Sub(w.epoch)
	if el < w.window {
		return
	}
	if el >= 2*w.window {
		w.cur = newHistogram(w.bounds)
		w.prev = newHistogram(w.bounds)
		w.epoch = w.now()
		return
	}
	w.prev = w.cur
	w.cur = newHistogram(w.bounds)
	w.epoch = w.epoch.Add(w.window)
}
