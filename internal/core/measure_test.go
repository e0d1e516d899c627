package core

import (
	"math"
	"math/rand"
	"testing"

	"flatdd/internal/circuit"
)

func TestMeasureQubitBothPhases(t *testing.T) {
	// Bell pair: measuring qubit 0 collapses qubit 1 to the same value.
	for _, force := range []int{-1, 1} { // -1: stay in DD phase; 1: convert
		counts := map[int]int{}
		for trial := 0; trial < 200; trial++ {
			c := circuit.New("bell", 2)
			c.Append(circuit.H(0), circuit.CX(0, 1), circuit.I(0), circuit.I(1))
			opts := Options{ForceConvertAfter: force}
			if force < 0 {
				opts = Options{MemoryBudget: 1}
			}
			s := New(2, opts)
			s.Run(c)
			rng := rand.New(rand.NewSource(int64(trial)))
			m0 := s.MeasureQubit(0, rng)
			counts[m0]++
			// After the collapse, qubit 1 must be perfectly correlated.
			if p := s.ProbabilityOfQubit(1); math.Abs(p-float64(m0)) > 1e-9 {
				t.Fatalf("force=%d trial=%d: P(q1=1)=%v after measuring q0=%d", force, trial, p, m0)
			}
			m1 := s.MeasureQubit(1, rng)
			if m1 != m0 {
				t.Fatalf("Bell correlation broken: %d vs %d", m0, m1)
			}
		}
		if counts[0] < 50 || counts[1] < 50 {
			t.Fatalf("force=%d: biased outcomes %v", force, counts)
		}
	}
}

func TestProbabilityOfQubitMatchesAcrossPhases(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := circuit.New("r", 5)
	for i := 0; i < 30; i++ {
		switch rng.Intn(3) {
		case 0:
			c.Append(circuit.RY(rng.NormFloat64(), rng.Intn(5)))
		case 1:
			c.Append(circuit.H(rng.Intn(5)))
		default:
			a, b := rng.Intn(5), rng.Intn(5)
			if a != b {
				c.Append(circuit.CX(a, b))
			}
		}
	}
	dd := New(5, Options{MemoryBudget: 1})
	dd.Run(c)
	arr := New(5, Options{ForceConvertAfter: 1})
	arr.Run(c)
	for q := 0; q < 5; q++ {
		pd := dd.ProbabilityOfQubit(q)
		pa := arr.ProbabilityOfQubit(q)
		if math.Abs(pd-pa) > 1e-9 {
			t.Fatalf("qubit %d: DD phase P=%v, array phase P=%v", q, pd, pa)
		}
	}
}
