package qasm

import (
	"fmt"
	"io"
	"math"
	"strings"

	"flatdd/internal/circuit"
)

// Write emits a circuit as an OpenQASM 2.0 program on one quantum register
// q[n]. Gates with native qelib1 spellings are emitted directly; gates
// outside qelib1 (iswap, fsim, rzz, the supremacy roots sx/sy/sw, and
// negative controls) are lowered to equivalent qelib1 sequences, so the
// output parses with any OpenQASM 2.0 consumer — including this package's
// own parser (Write∘Parse is semantically the identity; see the round-trip
// tests).
func Write(w io.Writer, c *circuit.Circuit) error {
	var b strings.Builder
	b.WriteString("OPENQASM 2.0;\n")
	b.WriteString("include \"qelib1.inc\";\n")
	fmt.Fprintf(&b, "// %s: %d qubits, %d gates\n", c.Name, c.Qubits, c.GateCount())
	fmt.Fprintf(&b, "qreg q[%d];\n", c.Qubits)
	for i := range c.Gates {
		if err := writeGate(&b, &c.Gates[i]); err != nil {
			return fmt.Errorf("qasm: gate %d (%s): %w", i, c.Gates[i].Name, err)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeGate(b *strings.Builder, g *circuit.Gate) error {
	// Negative controls: conjugate with X on those controls.
	var negs []int
	for _, ctl := range g.Controls {
		if ctl.Negative {
			negs = append(negs, ctl.Qubit)
		}
	}
	for _, q := range negs {
		fmt.Fprintf(b, "x q[%d];\n", q)
	}
	if err := writeCore(b, g); err != nil {
		return err
	}
	for _, q := range negs {
		fmt.Fprintf(b, "x q[%d];\n", q)
	}
	return nil
}

func writeCore(b *strings.Builder, g *circuit.Gate) error {
	t := g.Targets
	ctl := make([]int, len(g.Controls))
	for i, c := range g.Controls {
		ctl[i] = c.Qubit
	}
	p := g.Params
	switch g.Name {
	case "id", "x", "y", "z", "h", "s", "sdg", "t", "tdg", "sx", "sxdg":
		if len(ctl) == 0 {
			fmt.Fprintf(b, "%s q[%d];\n", g.Name, t[0])
			return nil
		}
	case "rx", "ry", "rz", "p", "u1":
		if len(ctl) == 0 {
			fmt.Fprintf(b, "%s(%s) q[%d];\n", nameOr(g.Name, "u1", "p"), num(p[0]), t[0])
			return nil
		}
	case "u2":
		if len(ctl) == 0 {
			fmt.Fprintf(b, "u2(%s,%s) q[%d];\n", num(p[0]), num(p[1]), t[0])
			return nil
		}
	case "u3":
		if len(ctl) == 0 {
			fmt.Fprintf(b, "u3(%s,%s,%s) q[%d];\n", num(p[0]), num(p[1]), num(p[2]), t[0])
			return nil
		}
	case "swap":
		fmt.Fprintf(b, "swap q[%d],q[%d];\n", t[0], t[1])
		return nil
	case "iswap":
		// iSWAP = fSim(-pi/2, 0); reuse the exact fSim lowering.
		writeFSim(b, -math.Pi/2, 0, t[0], t[1])
		return nil
	case "rzz":
		fmt.Fprintf(b, "cx q[%d],q[%d];\nrz(%s) q[%d];\ncx q[%d],q[%d];\n",
			t[0], t[1], num(p[0]), t[1], t[0], t[1])
		return nil
	case "fsim":
		// fSim(theta, phi) = e^{-i theta (XX+YY)/2} · diag(1,1,1,e^{-i phi}):
		// lower through the standard iSWAP-family decomposition.
		writeFSim(b, p[0], p[1], t[0], t[1])
		return nil
	case "sy":
		// sqrt(Y) = ry(pi/2) up to the global phase e^{i pi/4}.
		fmt.Fprintf(b, "ry(pi/2) q[%d];\n", t[0])
		return nil
	case "sw":
		// sqrt(W) = u3(pi/2, -pi/4, pi/4) up to global phase.
		fmt.Fprintf(b, "u3(pi/2,-pi/4,pi/4) q[%d];\n", t[0])
		return nil
	}
	// Controlled forms.
	switch {
	case len(ctl) == 1:
		switch g.Name {
		case "x", "cx", "mcx":
			fmt.Fprintf(b, "cx q[%d],q[%d];\n", ctl[0], t[0])
			return nil
		case "y", "cy":
			fmt.Fprintf(b, "cy q[%d],q[%d];\n", ctl[0], t[0])
			return nil
		case "z", "cz", "ccz", "mcz":
			fmt.Fprintf(b, "cz q[%d],q[%d];\n", ctl[0], t[0])
			return nil
		case "h", "ch":
			fmt.Fprintf(b, "ch q[%d],q[%d];\n", ctl[0], t[0])
			return nil
		case "p", "u1", "cp", "cu1":
			fmt.Fprintf(b, "cu1(%s) q[%d],q[%d];\n", num(p[0]), ctl[0], t[0])
			return nil
		case "rx", "crx":
			fmt.Fprintf(b, "crx(%s) q[%d],q[%d];\n", num(p[0]), ctl[0], t[0])
			return nil
		case "ry", "cry":
			fmt.Fprintf(b, "cry(%s) q[%d],q[%d];\n", num(p[0]), ctl[0], t[0])
			return nil
		case "rz", "crz":
			fmt.Fprintf(b, "crz(%s) q[%d],q[%d];\n", num(p[0]), ctl[0], t[0])
			return nil
		case "u3", "cu3":
			fmt.Fprintf(b, "cu3(%s,%s,%s) q[%d],q[%d];\n", num(p[0]), num(p[1]), num(p[2]), ctl[0], t[0])
			return nil
		}
	case len(ctl) == 2:
		switch g.Name {
		case "x", "ccx", "mcx":
			fmt.Fprintf(b, "ccx q[%d],q[%d],q[%d];\n", ctl[0], ctl[1], t[0])
			return nil
		case "z", "ccz", "mcz":
			// ccz = H(t) ccx H(t)
			fmt.Fprintf(b, "h q[%d];\nccx q[%d],q[%d],q[%d];\nh q[%d];\n",
				t[0], ctl[0], ctl[1], t[0], t[0])
			return nil
		}
	case len(ctl) > 2 && (g.Name == "x" || g.Name == "mcx"):
		// Multi-controlled X via the standard v-chain needs ancillas; emit
		// the recursive no-ancilla construction instead (exponential in
		// controls, fine for the small fan-ins used here).
		return writeMCX(b, ctl, t[0])
	case len(ctl) > 2 && g.Name == "mcz":
		fmt.Fprintf(b, "h q[%d];\n", t[0])
		if err := writeMCX(b, ctl, t[0]); err != nil {
			return err
		}
		fmt.Fprintf(b, "h q[%d];\n", t[0])
		return nil
	}
	return fmt.Errorf("no qelib1 lowering for %q with %d controls", g.Name, len(ctl))
}

// writeMCX emits a multi-controlled X without ancillas using the Barenco
// recursion C^k(X^a) = C_last(X^{a/2}) · C^{k-1}X(rest, last) ·
// C_last(X^{-a/2}) · C^{k-1}X(rest, last) · C^{k-1}(X^{a/2}), where a
// controlled root-of-X is a Hadamard-conjugated controlled phase:
// C(X^a) = H(t) · cu1(a·pi) · H(t), exactly.
func writeMCX(b *strings.Builder, controls []int, target int) error {
	return writeMCRootX(b, controls, target, 1)
}

// writeMCRootX emits C^k(X^alpha) on the given controls and target.
func writeMCRootX(b *strings.Builder, controls []int, target int, alpha float64) error {
	if len(controls) == 0 {
		return fmt.Errorf("rootX with no controls")
	}
	if len(controls) == 1 {
		cRootX(b, controls[0], target, alpha)
		return nil
	}
	if len(controls) == 2 && alpha == 1 {
		fmt.Fprintf(b, "ccx q[%d],q[%d],q[%d];\n", controls[0], controls[1], target)
		return nil
	}
	last := controls[len(controls)-1]
	rest := controls[:len(controls)-1]
	cRootX(b, last, target, alpha/2)
	if err := writeMCX(b, rest, last); err != nil {
		return err
	}
	cRootX(b, last, target, -alpha/2)
	if err := writeMCX(b, rest, last); err != nil {
		return err
	}
	return writeMCRootX(b, rest, target, alpha/2)
}

// cRootX writes the exactly-controlled X^alpha: H(t) cu1(alpha*pi) H(t).
func cRootX(b *strings.Builder, c, t int, alpha float64) {
	fmt.Fprintf(b, "h q[%d];\ncu1(%s) q[%d],q[%d];\nh q[%d];\n", t, num(alpha*math.Pi), c, t, t)
}

// writeFSim lowers fSim(theta, phi) exactly:
// fSim = [XX+YY interaction] · controlled-phase(-phi).
func writeFSim(b *strings.Builder, theta, phi float64, a, t int) {
	// exp(-i theta (XX+YY)/2) on (a,t):
	//   CX t,a; RX? — use the standard decomposition via RXX/RYY:
	//   = (CX a,t)(RZ? ...). We use:
	//   XX+YY block = CX(t,a) · CRX-like. Concretely:
	//   U = CX(a,t) · H(a)? — simplest exact route: two RZZ-style
	//   conjugations:
	//   exp(-i θ/2 XX) = H⊗H · exp(-i θ/2 ZZ) · H⊗H
	//   exp(-i θ/2 YY) = (SdgH)⊗(SdgH)† conjugation of exp(-i θ/2 ZZ).
	rzz := func(angle string) {
		fmt.Fprintf(b, "cx q[%d],q[%d];\nrz(%s) q[%d];\ncx q[%d],q[%d];\n", a, t, angle, t, a, t)
	}
	th := num(theta)
	// exp(-i θ/2 (XX)):
	fmt.Fprintf(b, "h q[%d];\nh q[%d];\n", a, t)
	rzz(th)
	fmt.Fprintf(b, "h q[%d];\nh q[%d];\n", a, t)
	// exp(-i θ/2 (YY)): conjugate ZZ by S† then H? Rz basis change for Y is
	// HS†: Y = (HS†)† Z (HS†) — apply sdg then h on both.
	fmt.Fprintf(b, "sdg q[%d];\nh q[%d];\nsdg q[%d];\nh q[%d];\n", a, a, t, t)
	rzz(th)
	fmt.Fprintf(b, "h q[%d];\ns q[%d];\nh q[%d];\ns q[%d];\n", a, a, t, t)
	// controlled phase -phi on |11>:
	fmt.Fprintf(b, "cu1(%s) q[%d],q[%d];\n", num(-phi), a, t)
}

func num(v float64) string {
	// Render common multiples of pi exactly for readability.
	for _, d := range []struct {
		val float64
		s   string
	}{
		{math.Pi, "pi"}, {-math.Pi, "-pi"},
		{math.Pi / 2, "pi/2"}, {-math.Pi / 2, "-pi/2"},
		{math.Pi / 4, "pi/4"}, {-math.Pi / 4, "-pi/4"},
		{math.Pi / 6, "pi/6"}, {-math.Pi / 6, "-pi/6"},
		{2 * math.Pi, "2*pi"},
	} {
		if math.Abs(v-d.val) < 1e-15 {
			return d.s
		}
	}
	return fmt.Sprintf("%.17g", v)
}

func nameOr(name, from, to string) string {
	if name == from {
		return to
	}
	return name
}
