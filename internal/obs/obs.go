// Package obs is the simulator's unified observability layer: a
// lightweight metrics registry (atomic counters, gauges and fixed-bucket
// histograms, Go stdlib only), spans and the JSONL trace writer they
// stream to, and HTTP export of live metric values plus pprof.
//
// The design goal is that instrumentation can stay compiled into every hot
// path at zero cost when disabled: all handle types (Counter, Gauge,
// FloatGauge, Histogram) are nil-safe, and a nil *Registry hands out nil
// handles, so "metrics off" costs exactly one pointer check per
// instrumentation site. Handles are obtained once, outside the hot loop;
// the loop itself performs a single uncontended atomic add per event.
package obs

import (
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The nil Counter is
// a valid no-op.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil Counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic int64 gauge. The nil Gauge is a valid no-op.
type Gauge struct {
	v atomic.Int64
}

// Set stores n. No-op on a nil receiver.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// SetMax raises the gauge to n if n exceeds the current value, so the gauge
// tracks a high-water mark under concurrent writers.
func (g *Gauge) SetMax(n int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the current gauge value (0 for a nil Gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// FloatGauge is an atomic float64 gauge (stored as bits), used for values
// like the EWMA average or a parallelism efficiency. The nil FloatGauge is
// a valid no-op.
type FloatGauge struct {
	bits atomic.Uint64
}

// Set stores f. No-op on a nil receiver.
func (g *FloatGauge) Set(f float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(f))
	}
}

// Value returns the current value (0 for a nil FloatGauge).
func (g *FloatGauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram over int64 observations (typically
// nanoseconds). An observation v lands in the first bucket whose upper
// bound is >= v; values above every bound land in the overflow bucket. The
// nil Histogram is a valid no-op.
type Histogram struct {
	bounds []int64        // sorted inclusive upper bounds
	counts []atomic.Int64 // len(bounds)+1, last is overflow
	sum    atomic.Int64
	n      atomic.Int64
}

// Observe records one value. No-op on a nil receiver.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// DurationBuckets is the default set of histogram bounds for nanosecond
// latencies: 1µs up to ~1s in powers of four, 11 buckets plus overflow.
func DurationBuckets() []int64 {
	bounds := make([]int64, 0, 11)
	for b := int64(1000); b <= 1_048_576_000; b *= 4 {
		bounds = append(bounds, b)
	}
	return bounds
}

// Registry hands out named metric handles and snapshots their values.
// The nil *Registry is valid and returns nil handles everywhere, which is
// how instrumented code runs unmetered. Handle creation takes a lock;
// handle use is lock-free.
type Registry struct {
	mu     sync.Mutex
	ctrs   map[string]*Counter
	gauges map[string]*Gauge
	fltg   map[string]*FloatGauge
	hists  map[string]*Histogram
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		ctrs:   make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		fltg:   make(map[string]*FloatGauge),
		hists:  make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on first
// use. A nil registry returns a nil (no-op) handle.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.ctrs[name]
	if !ok {
		c = &Counter{}
		r.ctrs[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// FloatGauge returns the float gauge registered under name, creating it on
// first use.
func (r *Registry) FloatGauge(name string) *FloatGauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.fltg[name]
	if !ok {
		g = &FloatGauge{}
		r.fltg[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket bounds on first use (bounds must be sorted ascending;
// they are copied). Later calls with the same name reuse the existing
// histogram and ignore bounds.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		b := make([]int64, len(bounds))
		copy(b, bounds)
		h = &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
		r.hists[name] = h
	}
	return h
}

// HistogramSnapshot is the frozen state of one histogram. Counts has one
// entry per bound plus a final overflow bucket.
type HistogramSnapshot struct {
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"`
	Count  int64   `json:"count"`
	Sum    int64   `json:"sum"`
}

// Snapshot is a point-in-time copy of every metric in a registry. It is
// fully detached: mutating the registry afterwards does not change a
// snapshot.
type Snapshot struct {
	Counters    map[string]int64             `json:"counters"`
	Gauges      map[string]int64             `json:"gauges"`
	FloatGauges map[string]float64           `json:"float_gauges"`
	Histograms  map[string]HistogramSnapshot `json:"histograms"`
}

// Delta returns the change from prev to s: counters and histogram
// counts/sums are subtracted entry-wise, while gauges and float gauges
// keep their current (instantaneous) value. Metrics absent from prev are
// reported at full value. It lets a long-lived registry — one shared
// across many benchmark runs in the same process — yield per-run metrics
// that aren't polluted by earlier runs. Note that high-water-mark gauges
// written with SetMax (e.g. dd.nodes.peak) never reset, so across runs
// they reflect the process-wide peak, not the per-run one.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	out := Snapshot{
		Counters:    make(map[string]int64, len(s.Counters)),
		Gauges:      make(map[string]int64, len(s.Gauges)),
		FloatGauges: make(map[string]float64, len(s.FloatGauges)),
		Histograms:  make(map[string]HistogramSnapshot, len(s.Histograms)),
	}
	for name, v := range s.Counters {
		out.Counters[name] = v - prev.Counters[name]
	}
	for name, v := range s.Gauges {
		out.Gauges[name] = v
	}
	for name, v := range s.FloatGauges {
		out.FloatGauges[name] = v
	}
	for name, h := range s.Histograms {
		p, ok := prev.Histograms[name]
		if !ok || len(p.Counts) != len(h.Counts) {
			out.Histograms[name] = h
			continue
		}
		d := HistogramSnapshot{
			Bounds: h.Bounds,
			Counts: make([]int64, len(h.Counts)),
			Count:  h.Count - p.Count,
			Sum:    h.Sum - p.Sum,
		}
		for i := range h.Counts {
			d.Counts[i] = h.Counts[i] - p.Counts[i]
		}
		out.Histograms[name] = d
	}
	return out
}

// Snapshot copies the current value of every registered metric. A nil
// registry yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:    map[string]int64{},
		Gauges:      map[string]int64{},
		FloatGauges: map[string]float64{},
		Histograms:  map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.ctrs {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, g := range r.fltg {
		s.FloatGauges[name] = g.Value()
	}
	for name, h := range r.hists {
		hs := HistogramSnapshot{
			Bounds: h.bounds,
			Counts: make([]int64, len(h.counts)),
			Count:  h.n.Load(),
			Sum:    h.sum.Load(),
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
		}
		s.Histograms[name] = hs
	}
	return s
}
