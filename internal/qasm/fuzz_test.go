package qasm

import (
	"strings"
	"testing"
)

// FuzzParse feeds arbitrary source to the parser; any input must either
// produce a valid circuit or a clean error — never a panic or a circuit
// that fails validation. Run with `go test -fuzz=FuzzParse ./internal/qasm`.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n",
		"qreg q[1]; rz(pi/2) q[0];",
		"gate foo(a) x,y { cx x,y; rz(a) y; } qreg r[3]; foo(0.5) r[0],r[2];",
		"qreg a[2]; qreg b[2]; cx a,b;",
		"creg c[2]; qreg q[2]; measure q[0] -> c[0];",
		"qreg q[1]; u3(1,2,3) q[0]; // comment",
		"include \"qelib1.inc\";",
		"qreg q[1]; rz(sin(cos(pi))) q[0];",
		"barrier q; qreg q[1];",
		"qreg q[999999999];",
		"gate g q { g q; }", // direct recursion in the body
		// A deep-entangling supremacy-style block: H layer, then brick-work
		// CZ/T/sqrt-X layers across the register. Parses to the kind of
		// irregular circuit whose state DD grows toward full width.
		"OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[5];\n" +
			"h q[0]; h q[1]; h q[2]; h q[3]; h q[4];\n" +
			"cz q[0],q[1]; cz q[2],q[3]; t q[4];\n" +
			"rx(pi/2) q[0]; t q[1]; ry(pi/2) q[2]; t q[3]; cz q[3],q[4];\n" +
			"cz q[1],q[2]; t q[0]; rx(pi/2) q[3]; t q[2];\n" +
			"cz q[0],q[1]; cz q[2],q[3]; ry(pi/2) q[4];\n" +
			"h q[0]; h q[1]; h q[2]; h q[3]; h q[4];\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		// Guard against pathological blowup from broadcast over giant
		// registers: cap the input size.
		if len(src) > 4096 {
			return
		}
		c, err := Parse(src)
		if err != nil {
			if !strings.Contains(err.Error(), "qasm:") {
				t.Fatalf("error without package prefix: %v", err)
			}
			return
		}
		if c == nil {
			t.Fatal("nil circuit without error")
		}
		for i := range c.Gates {
			if verr := c.Gates[i].Validate(c.Qubits); verr != nil {
				t.Fatalf("parser produced invalid gate %d: %v", i, verr)
			}
		}
	})
}
