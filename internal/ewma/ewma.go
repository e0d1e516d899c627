// Package ewma implements the exponentially weighted moving-average
// controller that decides when FlatDD converts from DD-based simulation to
// DMAV (Section 3.1.1 of the paper).
//
// While simulating, gate i is assigned v_i = β·v_{i-1} + (1-β)·s_i
// (Equation 4), where s_i is the node count of the state DD after gate i.
// Conversion is signaled the first time ε·v_i < s_i: the DD size has grown
// drastically faster than its recent history, i.e. the state has turned
// irregular.
//
// Two practical guards are added on top of the paper's rule. With v_0 = 0
// the inequality ε·v_i < s_i holds trivially at i = 1 for any ε < 1/(1-β)
// (e.g. the paper's β = 0.9, ε = 2), so a warm-up of Warmup gates lets the
// average settle first; and a minimum absolute size MinSize keeps the
// controller from firing on states so small that DMAV has nothing to win.
// Both defaults preserve the published behaviour: regular circuits (Adder,
// GHZ) never convert, irregular ones convert right after the DD-size
// blow-up begins.
package ewma

import "flatdd/internal/obs"

// Defaults used by the paper's evaluation (Section 4.2) and this package.
const (
	DefaultBeta    = 0.9
	DefaultEpsilon = 2.0
	// DefaultWarmup is ~1/(1-β): the number of observations after which
	// the average of a constant series reaches 1-β^W ≈ 65% of its value,
	// enough for ε to dominate.
	DefaultWarmup = 10
	// DefaultMinSize is the smallest DD size worth converting at.
	DefaultMinSize = 32
)

// Controller tracks the moving average of the state-DD size.
type Controller struct {
	Beta    float64
	Epsilon float64
	Warmup  int
	MinSize int

	// Gauge, when non-nil, is updated with v_i on every observation so the
	// controller's view is live-observable (metric core.ewma); a nil gauge
	// costs one pointer check per gate.
	Gauge *obs.FloatGauge

	v float64
	i int
}

// New returns a controller with the given β and ε and default guards.
// Non-positive β or ε select the defaults.
func New(beta, epsilon float64) *Controller {
	if beta <= 0 || beta >= 1 {
		beta = DefaultBeta
	}
	if epsilon <= 0 {
		epsilon = DefaultEpsilon
	}
	return &Controller{
		Beta:    beta,
		Epsilon: epsilon,
		Warmup:  DefaultWarmup,
		MinSize: DefaultMinSize,
	}
}

// Observe records the DD size after one more gate and reports whether the
// controller recommends converting to DMAV now.
func (c *Controller) Observe(size int) bool {
	c.i++
	s := float64(size)
	c.v = c.Beta*c.v + (1-c.Beta)*s
	c.Gauge.Set(c.v)
	if c.i <= c.Warmup || size < c.MinSize {
		return false
	}
	return c.Epsilon*c.v < s
}

// Average returns the current EWMA value v_i.
func (c *Controller) Average() float64 { return c.v }
