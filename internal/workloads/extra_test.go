package workloads

import (
	"math"
	"math/cmplx"
	"testing"
)

func TestWStateAmplitudes(t *testing.T) {
	for _, n := range []int{1, 2, 4, 7} {
		s := simulate(WState(n))
		want := 1 / math.Sqrt(float64(n))
		for i, a := range s.Amplitudes() {
			isOneHot := i != 0 && i&(i-1) == 0
			if isOneHot {
				if math.Abs(cmplx.Abs(a)-want) > 1e-9 {
					t.Fatalf("n=%d: |amp(%d)| = %v, want %v", n, i, cmplx.Abs(a), want)
				}
			} else if cmplx.Abs(a) > 1e-9 {
				t.Fatalf("n=%d: non-one-hot amplitude at %d: %v", n, i, a)
			}
		}
	}
}

func TestQAOAShapeAndNorm(t *testing.T) {
	c := QAOA(8, 3, 1)
	if err := validate(c); err != nil {
		t.Fatal(err)
	}
	// Hadamard wall + per-round edges (ring >= n) + mixers.
	if c.GateCount() < 8+3*(8+8) {
		t.Fatalf("QAOA suspiciously small: %d gates", c.GateCount())
	}
	s := simulate(c)
	if math.Abs(norm(s)-1) > 1e-9 {
		t.Fatalf("norm %v", norm(s))
	}
	// Deterministic per seed.
	if QAOA(8, 3, 1).GateCount() != c.GateCount() {
		t.Fatal("QAOA not deterministic")
	}
}

func TestQuantumVolumeShape(t *testing.T) {
	c := QuantumVolume(6, 6, 2)
	if err := validate(c); err != nil {
		t.Fatal(err)
	}
	s := simulate(c)
	if math.Abs(norm(s)-1) > 1e-9 {
		t.Fatalf("norm %v", norm(s))
	}
	// QV circuits scramble: no amplitude should dominate.
	for i, a := range s.Amplitudes() {
		if p := real(a)*real(a) + imag(a)*imag(a); p > 0.7 {
			t.Fatalf("state not scrambled: P(%d)=%v", i, p)
		}
	}
}

func TestExtraWorkloadsInRegistry(t *testing.T) {
	for _, name := range []string{"qaoa", "wstate", "qv", "randct"} {
		c, err := Build(name, 6, 3)
		if err != nil {
			t.Fatalf("Build(%s): %v", name, err)
		}
		if c.Qubits != 6 {
			t.Fatalf("Build(%s) qubits = %d", name, c.Qubits)
		}
	}
	if len(Names()) != 14 {
		t.Fatalf("Names() = %v", Names())
	}
}
