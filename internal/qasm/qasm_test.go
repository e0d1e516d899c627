package qasm

import (
	"math"
	"math/cmplx"
	"strings"
	"testing"

	"flatdd/internal/statevec"
)

const eps = 1e-9

func TestParseBell(t *testing.T) {
	src := `
OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
creg c[2];
h q[0];
cx q[0],q[1];
measure q[0] -> c[0];
measure q[1] -> c[1];
`
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if c.Qubits != 2 || c.GateCount() != 2 {
		t.Fatalf("qubits=%d gates=%d", c.Qubits, c.GateCount())
	}
	s := statevec.New(2, 1)
	s.ApplyCircuit(c)
	want := complex(1/math.Sqrt2, 0)
	if cmplx.Abs(s.Amplitudes()[0]-want) > eps || cmplx.Abs(s.Amplitudes()[3]-want) > eps {
		t.Fatalf("Bell state wrong: %v", s.Amplitudes())
	}
}

func TestParamExpressions(t *testing.T) {
	src := `
OPENQASM 2.0;
qreg q[1];
rz(pi/2) q[0];
rz(-pi/4) q[0];
rz(2*pi - pi/2) q[0];
rz(pi^2/(3+1)) q[0];
rz(cos(0)) q[0];
rz(sqrt(4)) q[0];
`
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	wants := []float64{math.Pi / 2, -math.Pi / 4, 2*math.Pi - math.Pi/2, math.Pi * math.Pi / 4, 1, 2}
	for i, w := range wants {
		if got := c.Gates[i].Params[0]; math.Abs(got-w) > 1e-12 {
			t.Fatalf("param %d = %v, want %v", i, got, w)
		}
	}
}

func TestBroadcast(t *testing.T) {
	src := `
OPENQASM 2.0;
qreg q[4];
h q;
`
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if c.GateCount() != 4 {
		t.Fatalf("broadcast produced %d gates, want 4", c.GateCount())
	}
	// Two-register broadcast: cx a, b pairs elementwise.
	src2 := `
OPENQASM 2.0;
qreg a[3];
qreg b[3];
cx a, b;
`
	c2, err := Parse(src2)
	if err != nil {
		t.Fatal(err)
	}
	if c2.GateCount() != 3 || c2.Qubits != 6 {
		t.Fatalf("two-register broadcast: %d gates, %d qubits", c2.GateCount(), c2.Qubits)
	}
	for i := range c2.Gates {
		g := &c2.Gates[i]
		if g.Controls[0].Qubit != i || g.Targets[0] != 3+i {
			t.Fatalf("gate %d pairs %v -> %v", i, g.Controls, g.Targets)
		}
	}
}

func TestCustomGateExpansion(t *testing.T) {
	src := `
OPENQASM 2.0;
include "qelib1.inc";
gate majority a,b,c {
  cx c,b;
  cx c,a;
  ccx a,b,c;
}
gate rot(theta) q {
  ry(theta/2) q;
  rz(theta*2) q;
}
qreg q[3];
majority q[0],q[1],q[2];
rot(pi) q[1];
`
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	// majority expands to 3 gates, rot to 2.
	if c.GateCount() != 5 {
		t.Fatalf("gates = %d, want 5", c.GateCount())
	}
	if c.Gates[3].Name != "ry" || math.Abs(c.Gates[3].Params[0]-math.Pi/2) > 1e-12 {
		t.Fatalf("rot expansion wrong: %+v", c.Gates[3])
	}
	if c.Gates[4].Name != "rz" || math.Abs(c.Gates[4].Params[0]-2*math.Pi) > 1e-12 {
		t.Fatalf("rot expansion wrong: %+v", c.Gates[4])
	}
}

func TestNestedCustomGates(t *testing.T) {
	src := `
OPENQASM 2.0;
gate inner q { h q; }
gate outer a,b { inner a; cx a,b; inner b; }
qreg q[2];
outer q[0],q[1];
`
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if c.GateCount() != 3 {
		t.Fatalf("nested expansion: %d gates", c.GateCount())
	}
}

func TestMultipleQregsFlattened(t *testing.T) {
	src := `
OPENQASM 2.0;
qreg a[2];
qreg b[3];
x a[1];
x b[0];
`
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if c.Qubits != 5 {
		t.Fatalf("qubits = %d", c.Qubits)
	}
	if c.Gates[0].Targets[0] != 1 || c.Gates[1].Targets[0] != 2 {
		t.Fatalf("flattening wrong: %v %v", c.Gates[0].Targets, c.Gates[1].Targets)
	}
}

func TestBarrierAndComments(t *testing.T) {
	src := `
OPENQASM 2.0;
// a comment
qreg q[2];
h q[0]; // trailing comment
barrier q;
cx q[0],q[1];
`
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if c.GateCount() != 2 {
		t.Fatalf("gates = %d", c.GateCount())
	}
}

func TestUAndCXBuiltins(t *testing.T) {
	src := `
OPENQASM 2.0;
qreg q[2];
U(pi/2, 0, pi) q[0];
CX q[0], q[1];
`
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	// U(pi/2, 0, pi) is the Hadamard up to global phase; check the Bell
	// correlation P(00)+P(11)=1.
	s := statevec.New(2, 1)
	s.ApplyCircuit(c)
	p := prob(s, 0) + prob(s, 3)
	if math.Abs(p-1) > eps {
		t.Fatalf("U/CX Bell correlation %v", p)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		frag string
	}{
		{"unknown gate", "qreg q[1]; zz q[0];", "unknown gate"},
		{"unknown qreg", "qreg q[1]; h r[0];", "unknown qreg"},
		{"index out of range", "qreg q[2]; h q[5];", "out of range"},
		{"redeclared qreg", "qreg q[1]; qreg q[2];", "redeclared"},
		{"qreg after gate", "qreg q[1]; h q[0]; qreg r[1];", "after the first gate"},
		{"bad token", "qreg q[1]; h q[0]; @", "unexpected character"},
		{"missing semicolon", "qreg q[1] h q[0];", "expected"},
		{"unterminated gate", "gate foo q { h q;", "unterminated"},
		{"wrong param count", "qreg q[1]; rz q[0];", "unknown gate"},
		{"unsupported if", `creg c[1]; qreg q[1]; if (c==1) x q[0];`, "not supported"},
		{"div by zero", "qreg q[1]; rz(1/0) q[0];", "division by zero"},
		{"unknown param", "qreg q[1]; rz(theta) q[0];", "unknown parameter"},
		{"broadcast mismatch", "qreg a[2]; qreg b[3]; cx a, b;", "mismatched register sizes"},
		{"unterminated string", "include \"qelib1.inc\n;", "unterminated string"},
	}
	for _, tc := range cases {
		_, err := Parse(tc.src)
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.frag)
		}
	}
}

func TestEmptyProgram(t *testing.T) {
	c, err := Parse("OPENQASM 2.0;\nqreg q[3];\n")
	if err != nil {
		t.Fatal(err)
	}
	if c.Qubits != 3 || c.GateCount() != 0 {
		t.Fatalf("qubits=%d gates=%d", c.Qubits, c.GateCount())
	}
}

func TestScientificNotationParams(t *testing.T) {
	c, err := Parse("qreg q[1]; rz(1.5e-2) q[0]; rz(2E3) q[0];")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c.Gates[0].Params[0]-0.015) > 1e-15 || math.Abs(c.Gates[1].Params[0]-2000) > 1e-9 {
		t.Fatalf("params: %v %v", c.Gates[0].Params[0], c.Gates[1].Params[0])
	}
}

func TestQelib1GateCoverage(t *testing.T) {
	src := `
OPENQASM 2.0;
qreg q[3];
id q[0]; x q[0]; y q[0]; z q[0]; h q[0]; s q[0]; sdg q[0]; t q[0]; tdg q[0];
sx q[0]; sxdg q[0];
rx(0.1) q[0]; ry(0.2) q[0]; rz(0.3) q[0]; u1(0.4) q[0]; u2(0.5,0.6) q[0]; u3(0.7,0.8,0.9) q[0];
p(0.4) q[1];
cx q[0],q[1]; cy q[0],q[1]; cz q[0],q[1]; ch q[0],q[1];
crx(0.1) q[0],q[1]; cry(0.2) q[0],q[1]; crz(0.3) q[0],q[1]; cu1(0.4) q[0],q[1]; cp(0.4) q[0],q[1];
cu3(0.5,0.6,0.7) q[0],q[1];
ccx q[0],q[1],q[2]; ccz q[0],q[1],q[2];
swap q[0],q[1]; iswap q[0],q[1]; cswap q[0],q[1],q[2]; rzz(0.2) q[0],q[1];
`
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	s := statevec.New(3, 1)
	s.ApplyCircuit(c)
	if math.Abs(norm(s)-1) > eps {
		t.Fatalf("norm after all gates: %v", norm(s))
	}
}

func TestRecursiveGateDefinitionRejected(t *testing.T) {
	src := "gate g q { g q; } qreg r[1]; g r[0];"
	_, err := Parse(src)
	if err == nil {
		t.Fatal("recursive gate definition accepted")
	}
	if !strings.Contains(err.Error(), "too deep") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestMutuallyUsableGateDefinitions(t *testing.T) {
	// Legal forward-only nesting still works after the depth guard.
	src := `
gate a q { h q; }
gate b q { a q; a q; }
gate c q { b q; a q; }
qreg r[1];
c r[0];
`
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if c.GateCount() != 3 {
		t.Fatalf("gates = %d, want 3", c.GateCount())
	}
}
