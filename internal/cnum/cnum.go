// Package cnum provides a tolerance-based interning table for complex
// numbers, mirroring the specialized complex-number handling that DD-based
// quantum circuit simulators use to make decision-diagram nodes
// hash-consable.
//
// Floating-point arithmetic on gate matrices produces values such as
// 0.7071067811865476 and 0.7071067811865475 that are mathematically the same
// amplitude. If such values were used directly as edge weights, structurally
// identical decision-diagram nodes would fail pointer equality and the
// unique table would explode. The Table snaps every float component to a
// canonical representative within a configurable tolerance, so that edge
// weights can be compared bit-exactly and hashed directly.
//
// # Why a fixed grid
//
// Snapping is a pure function of the value: LookupFloat(x) maps x to the
// canonical representative of its grid bucket (round(x/2^-g) * 2^-g, with
// well-known constants such as 1/sqrt(2) pre-seeded onto their buckets at
// construction), never to "whichever nearby value was interned first".
// Earlier designs kept first-comer representatives, which made the snapped
// value depend on lookup order. The same amplitude reached through two
// evaluation orders (a different gate order, a fused versus an unfused
// product, a DD rebuilt after garbage collection) must land on the same
// bits, or hash-consing stops recognizing equal nodes; a fixed grid
// guarantees that independently of history.
//
// The grid step is a power of two (the largest 2^-g <= the configured
// tolerance) rather than a decimal multiple, and that choice is
// load-bearing: representatives k*2^-g are dyadic, so the linear
// combinations DD normalization produces from them with dyadic
// coefficients (x/2, 0.5a+0.25b, ...) are computed exactly by IEEE
// arithmetic. Two evaluation orders of such a combination yield
// bit-identical floats and therefore the same bucket, even when the value
// sits exactly on a bucket boundary. A decimal grid (k*1e-10) breaks
// here: scaling its representatives by 1/2 lands exactly between two
// buckets with one ulp of path-dependent noise deciding the round, which
// destroys hash-consing canonicity in practice.
package cnum

import (
	"math"

	"flatdd/internal/obs"
)

// DefaultTolerance is the default snapping tolerance. Two float components
// closer than this are considered the same value. The value matches the
// tolerance commonly used by DD packages for quantum simulation.
const DefaultTolerance = 1e-10

// maxBucket bounds |x|/step for which grid snapping is attempted; far
// larger magnitudes (never produced by unitary simulation) are returned
// unsnapped, which is still deterministic.
const maxBucket = 1 << 62

// Table interns float64 components of complex numbers. The zero value is not
// usable; create one with NewTable. A Table belongs to one goroutine (its
// dd.Manager's owner); its results are independent of lookup history.
type Table struct {
	tol float64

	// step is the grid spacing, the largest power of two <= tol; invStep
	// is its exact reciprocal. Multiplying by either only shifts the
	// exponent, so x*invStep and k*step round nothing away.
	step    float64
	invStep float64

	// seeded maps grid buckets to exact well-known representatives. Built
	// once in NewTable, read-only afterwards — lock-free on the hot path.
	seeded map[int64]float64

	// obsLookups counts non-zero lookups (nil when metrics are off).
	obsLookups *obs.Counter
}

// SetMetrics attaches the table's cnum.lookups counter to a registry
// (nil detaches).
func (t *Table) SetMetrics(r *obs.Registry) {
	t.obsLookups = r.Counter("cnum.lookups")
}

// NewTable returns a Table with the given tolerance. A non-positive
// tolerance selects DefaultTolerance.
func NewTable(tol float64) *Table {
	if tol <= 0 {
		tol = DefaultTolerance
	}
	g := int(math.Ceil(-math.Log2(tol)))
	t := &Table{
		tol:     tol,
		step:    math.Ldexp(1, -g),
		invStep: math.Ldexp(1, g),
		seeded:  make(map[int64]float64, 32),
	}
	// Seed exact representations of the values that appear in virtually
	// every circuit so they are canonical from the start. Each constant
	// claims its own grid bucket plus both neighbors (first seed wins), so
	// a computed value landing one bucket over still snaps to the exact
	// constant.
	for _, v := range [...]float64{0, 1, -1, 0.5, -0.5, math.Sqrt2 / 2, -math.Sqrt2 / 2} {
		k := int64(math.Round(v * t.invStep))
		for _, kk := range [3]int64{k, k - 1, k + 1} {
			if _, ok := t.seeded[kk]; !ok {
				t.seeded[kk] = v
			}
		}
	}
	return t
}

// Lookup returns the canonical representative of c. Components are snapped
// to their tolerance-grid bucket (seeded constants keep their exact
// values). Lookup(Lookup(c)) == Lookup(c) for every c, and the result is a
// pure function of c — independent of what else has been interned.
func (t *Table) Lookup(c complex128) complex128 {
	re := t.LookupFloat(real(c))
	im := t.LookupFloat(imag(c))
	return complex(re, im)
}

// defaultTable backs IsZero. Lookup only reads its seeded map, and its
// counter is nil, so concurrent callers share it safely.
var defaultTable = NewTable(DefaultTolerance)

// IsZero reports whether c interns to zero at DefaultTolerance: the test
// by which a DD drops an edge weight. Dense gate blocks count their
// nonzero entries with it, so their MAC counts agree with the DD's.
func IsZero(c complex128) bool {
	// A component this far from zero never snaps to it: only the few
	// buckets around zero need the table.
	if math.Abs(real(c)) > 1e-9 || math.Abs(imag(c)) > 1e-9 {
		return false
	}
	return defaultTable.Lookup(c) == 0
}

// LookupFloat interns a single float component.
func (t *Table) LookupFloat(x float64) float64 {
	if x == 0 { // fast path, avoids -0 issues too
		return 0
	}
	t.obsLookups.Inc()
	s := x * t.invStep
	if s != s || s >= maxBucket || s <= -maxBucket {
		// NaN, Inf, or out of grid range: pass through deterministically.
		return x
	}
	k := int64(math.Round(s))
	v, ok := t.seeded[k]
	if !ok {
		v = float64(k) * t.step
	}
	return v
}

// Key packs a canonical complex value into a comparable, hashable key.
// It must only be used on values returned by Lookup, where bit equality
// coincides with semantic equality.
type Key struct{ Re, Im uint64 }

// KeyOf returns the Key of a canonical complex value.
func KeyOf(c complex128) Key {
	return Key{math.Float64bits(real(c)), math.Float64bits(imag(c))}
}
