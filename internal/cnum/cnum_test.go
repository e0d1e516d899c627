package cnum

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"
)

func TestLookupSnapsNearbyValues(t *testing.T) {
	tbl := NewTable(1e-10)
	a := tbl.Lookup(complex(math.Sqrt2/2, 0))
	b := tbl.Lookup(complex(0.70710678118654757, 0)) // one ulp-ish away
	if a != b {
		t.Fatalf("nearby values not snapped: %v vs %v", a, b)
	}
}

func TestLookupDistinguishesFarValues(t *testing.T) {
	tbl := NewTable(1e-10)
	a := tbl.Lookup(complex(0.5, 0))
	b := tbl.Lookup(complex(0.5+1e-6, 0))
	if a == b {
		t.Fatalf("distinct values wrongly merged: %v", a)
	}
}

func TestLookupZeroIsCanonical(t *testing.T) {
	tbl := NewTable(0)
	if z := tbl.Lookup(complex(math.Copysign(0, -1), 0)); z != 0 {
		t.Fatalf("negative zero not canonicalized: %v", z)
	}
	if z := tbl.Lookup(0); z != 0 {
		t.Fatalf("zero not canonical: %v", z)
	}
}

func TestLookupIdempotent(t *testing.T) {
	tbl := NewTable(0)
	f := func(re, im float64) bool {
		if math.IsNaN(re) || math.IsInf(re, 0) || math.IsNaN(im) || math.IsInf(im, 0) {
			return true
		}
		// Keep magnitudes in the range amplitudes actually occupy.
		re = math.Mod(re, 2)
		im = math.Mod(im, 2)
		c := complex(re, im)
		once := tbl.Lookup(c)
		twice := tbl.Lookup(once)
		return once == twice
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestLookupWithinTolerance(t *testing.T) {
	tbl := NewTable(1e-10)
	f := func(re, im float64) bool {
		if math.IsNaN(re) || math.IsInf(re, 0) || math.IsNaN(im) || math.IsInf(im, 0) {
			return true
		}
		re = math.Mod(re, 2)
		im = math.Mod(im, 2)
		c := complex(re, im)
		got := tbl.Lookup(c)
		return cmplx.Abs(got-c) <= 2*tbl.Tolerance()*math.Sqrt2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestSeededConstantsExact(t *testing.T) {
	tbl := NewTable(0)
	cases := []float64{0, 1, -1, 0.5, -0.5, math.Sqrt2 / 2, -math.Sqrt2 / 2}
	for _, v := range cases {
		if got := tbl.LookupFloat(v); got != v {
			t.Errorf("seeded constant %v mapped to %v", v, got)
		}
	}
}

// TestLookupIndependentOfHistory pins that snapping is a pure function of
// the value: a table warmed with unrelated and nearby values, then queried
// in reverse order, returns the same bits as a fresh table.
func TestLookupIndependentOfHistory(t *testing.T) {
	const count = 500
	vals := make([]complex128, count)
	for i := range vals {
		vals[i] = complex(math.Sin(float64(i)), math.Cos(float64(i)))
	}
	fresh := NewTable(1e-10)
	want := make([]complex128, count)
	for i, v := range vals {
		want[i] = fresh.Lookup(v)
	}

	warmed := NewTable(1e-10)
	for i, v := range vals {
		// Neighbors within the tolerance, plus values in other buckets.
		warmed.Lookup(v + complex(3e-11, -3e-11))
		warmed.Lookup(complex(math.Cos(float64(7*i)), 0.5*math.Sin(float64(i))))
	}
	for i := count - 1; i >= 0; i-- {
		if got := warmed.Lookup(vals[i]); got != want[i] {
			t.Fatalf("value %d: warmed table %v, fresh table %v", i, got, want[i])
		}
	}
}

func TestKeyOfDistinguishesCanonicalValues(t *testing.T) {
	tbl := NewTable(0)
	a := tbl.Lookup(complex(0.25, 0.75))
	b := tbl.Lookup(complex(0.75, 0.25))
	if KeyOf(a) == KeyOf(b) {
		t.Fatal("distinct canonical values share a key")
	}
	if KeyOf(a) != KeyOf(tbl.Lookup(a)) {
		t.Fatal("key not stable under re-lookup")
	}
}

func TestApproxEqual(t *testing.T) {
	if !ApproxEqual(1+1i, 1+1i, 0) {
		t.Fatal("identical values not approx-equal")
	}
	if !ApproxEqual(1, 1+1e-12, 1e-10) {
		t.Fatal("values within tol not approx-equal")
	}
	if ApproxEqual(1, 1.1, 1e-10) {
		t.Fatal("values beyond tol approx-equal")
	}
}

func BenchmarkLookupHit(b *testing.B) {
	tbl := NewTable(1e-10)
	v := complex(math.Sqrt2/2, -math.Sqrt2/2)
	tbl.Lookup(v)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Lookup(v)
	}
}

// TestIsZeroMatchesLookup pins IsZero's shortcut to the table it stands
// for: at magnitudes on both sides of the zero buckets, and of the 1e-9
// cut-off, IsZero is Lookup(c) == 0 at DefaultTolerance.
func TestIsZeroMatchesLookup(t *testing.T) {
	tab := NewTable(DefaultTolerance)
	for _, x := range []float64{0, 1e-300, 1e-17, 5e-11, 8.6e-11, 8.8e-11, 1e-10, 2e-10, 9.9e-10, 1e-9, 1.1e-9, 1e-3, 0.5, 1} {
		for _, c := range []complex128{complex(x, 0), complex(-x, 0), complex(0, x), complex(x, -x), complex(x, 1)} {
			if got, want := IsZero(c), tab.Lookup(c) == 0; got != want {
				t.Errorf("IsZero(%v) = %v, Lookup gives zero: %v", c, got, want)
			}
		}
	}
}
