package qasm

import (
	"math"
	"path/filepath"
	"testing"

	"flatdd/internal/statevec"
)

func TestParseFileBell(t *testing.T) {
	c, err := ParseFile(filepath.Join("testdata", "bell.qasm"))
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "bell.qasm" || c.Qubits != 2 || c.GateCount() != 2 {
		t.Fatalf("bell.qasm parsed wrong: %s %d qubits %d gates", c.Name, c.Qubits, c.GateCount())
	}
}

func TestParseFileAdderComputes(t *testing.T) {
	c, err := ParseFile(filepath.Join("testdata", "adder4.qasm"))
	if err != nil {
		t.Fatal(err)
	}
	if c.Qubits != 6 {
		t.Fatalf("qubits = %d", c.Qubits)
	}
	s := statevec.New(6, 1)
	s.ApplyCircuit(c)
	// a=1 (a0), b=3 (b0,b1): layout [cin, a0, a1, b0, b1, cout];
	// qregs flatten in declaration order: cin=0, a=1..2, b=3..4, cout=5.
	// Cuccaro leaves a unchanged and b <- a+b = 4 = 0b100 -> b0=0,b1=0,cout=1.
	want := uint64(0)
	want |= 1 << 1 // a0 = 1
	want |= 1 << 5 // carry out
	if p := prob(s, want); math.Abs(p-1) > 1e-9 {
		t.Fatalf("adder file result wrong: P(%b) = %v", want, p)
	}
}

func TestParseFileVQEFragment(t *testing.T) {
	c, err := ParseFile(filepath.Join("testdata", "vqe_frag.qasm"))
	if err != nil {
		t.Fatal(err)
	}
	// 4 ry + 3 cx + 4 broadcast rz + u3 + cu1 = 13 gates.
	if c.GateCount() != 13 {
		t.Fatalf("gates = %d, want 13", c.GateCount())
	}
	s := statevec.New(4, 1)
	s.ApplyCircuit(c)
	if math.Abs(norm(s)-1) > 1e-9 {
		t.Fatalf("norm %v", norm(s))
	}
}

func TestParseFileMissing(t *testing.T) {
	if _, err := ParseFile(filepath.Join("testdata", "nope.qasm")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestParseFileQFTMatchesGenerator(t *testing.T) {
	c, err := ParseFile(filepath.Join("testdata", "qft4.qasm"))
	if err != nil {
		t.Fatal(err)
	}
	// QFT|0> is the uniform superposition.
	s := statevec.New(4, 1)
	s.ApplyCircuit(c)
	want := 0.25
	for i, a := range s.Amplitudes() {
		p := real(a)*real(a) + imag(a)*imag(a)
		if math.Abs(p-want*want) > 1e-9 {
			t.Fatalf("QFT|0> P(%d) = %v", i, p)
		}
	}
}
