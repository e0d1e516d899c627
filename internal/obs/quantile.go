package obs

// Quantile estimation over the fixed-bucket histograms. The estimator is
// the standard bucket-interpolation one (what Prometheus calls
// histogram_quantile): find the bucket the target rank falls in, then
// interpolate linearly between the bucket's lower and upper bound. The
// error is bounded by the bucket width — with the power-of-four
// DurationBuckets, a p99 is exact to within its bucket, which is the
// right fidelity for an SLO gate (the verdict "p99 crossed 1ms" never
// flips from interpolation error inside one bucket).

// Quantile estimates the q-quantile (0 < q <= 1) of the observations in
// the snapshot, in the histogram's native unit. It returns 0 when the
// histogram is empty. Ranks landing in the overflow bucket return the
// highest finite bound (a conservative floor: the true value is >= it).
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count <= 0 || len(h.Counts) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	var cum float64
	for i, c := range h.Counts {
		if c <= 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum < rank {
			continue
		}
		if i >= len(h.Bounds) {
			// Overflow bucket: no upper bound to interpolate against.
			if len(h.Bounds) == 0 {
				return 0
			}
			return float64(h.Bounds[len(h.Bounds)-1])
		}
		lo := 0.0
		if i > 0 {
			lo = float64(h.Bounds[i-1])
		}
		hi := float64(h.Bounds[i])
		frac := (rank - prev) / float64(c)
		return lo + (hi-lo)*frac
	}
	return float64(h.Bounds[len(h.Bounds)-1])
}

// Snapshot freezes one live histogram (the per-registry Snapshot does
// this for every metric; this is the single-histogram form for callers
// that need quantiles of one series without copying the whole registry).
// A nil histogram yields an empty snapshot.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	hs := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Count:  h.n.Load(),
		Sum:    h.sum.Load(),
	}
	for i := range h.counts {
		hs.Counts[i] = h.counts[i].Load()
	}
	return hs
}
