package harness

// Table helpers that only the suites need.

import "time"

// GeoMeanDurations is GeoMean over durations in seconds.
func GeoMeanDurations(ds []time.Duration) float64 {
	vals := make([]float64, len(ds))
	for i, d := range ds {
		vals[i] = d.Seconds()
	}
	return GeoMean(vals)
}
