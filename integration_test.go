package flatdd

// Cross-engine integration tests: the three engines (pure DD, flat array,
// hybrid FlatDD in every configuration) must produce identical final
// states on randomized and structured circuits, and whole quantum
// algorithms must produce their textbook outcomes end to end.

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"flatdd/internal/circuit"
	"flatdd/internal/core"
	"flatdd/internal/ddsim"
	"flatdd/internal/dmav"
	"flatdd/internal/qasm"
	"flatdd/internal/statevec"
	"flatdd/internal/workloads"
)

const intEps = 1e-8

func maxDeviation(a, b []complex128) float64 {
	worst := 0.0
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

func engines(t *testing.T, c *circuit.Circuit) (hybrid, pure, array []complex128) {
	t.Helper()
	h := core.New(c.Qubits, core.Options{Threads: 4})
	h.Run(c)
	hybrid = h.Amplitudes()

	d := ddsim.New(c.Qubits)
	d.Run(c)
	pure = d.ToArray()

	s := statevec.New(c.Qubits, 2)
	s.ApplyCircuit(c)
	array = s.Amplitudes()
	return
}

func TestEnginesAgreeOnEveryWorkloadFamily(t *testing.T) {
	cases := []*circuit.Circuit{
		workloads.GHZ(10),
		workloads.Adder(10, 3),
		workloads.DNN(8, 6, 5),
		workloads.VQE(9, 2, 7),
		workloads.KNN(9, 11),
		workloads.SwapTest(9, 13),
		workloads.SupremacyGrid(9, 8, 17),
		workloads.QFT(9),
		workloads.BernsteinVazirani(8, 0x5a),
		workloads.Grover(6, 37, 0),
	}
	for _, c := range cases {
		hybrid, pure, array := engines(t, c)
		if d := maxDeviation(hybrid, array); d > intEps {
			t.Errorf("%s: FlatDD vs array deviation %.2e", c.Name, d)
		}
		if d := maxDeviation(pure, array); d > intEps {
			t.Errorf("%s: DDSIM vs array deviation %.2e", c.Name, d)
		}
	}
}

func TestFlatDDConfigurationsAgree(t *testing.T) {
	c := workloads.SupremacyGrid(9, 10, 23)
	ref := statevec.New(c.Qubits, 1)
	ref.ApplyCircuit(c)
	configs := []core.Options{
		{Threads: 1},
		{Threads: 8},
		{Threads: 4, ForceConvertAfter: 1},
		{Threads: 4, MemoryBudget: 1},
		{Threads: 4, CacheMode: dmav.AlwaysCache},
		{Threads: 4, CacheMode: dmav.NeverCache},
		{Threads: 4, Fusion: core.DMAVAware},
		{Threads: 4, Fusion: core.KOps},
		{Threads: 4, Beta: 0.5, Epsilon: 1.5},
	}
	for i, opts := range configs {
		s := core.New(c.Qubits, opts)
		s.Run(c)
		if d := maxDeviation(s.Amplitudes(), ref.Amplitudes()); d > intEps {
			t.Errorf("config %d (%+v): deviation %.2e", i, opts, d)
		}
	}
}

func TestQFTInverseIsIdentity(t *testing.T) {
	// QFT followed by its inverse (reversed gates with negated phases)
	// must restore the input basis state.
	n := 8
	c := circuit.New("qft-roundtrip", n)
	input := uint64(0xA5) & (1<<n - 1)
	for q := 0; q < n; q++ {
		if input>>uint(q)&1 == 1 {
			c.Append(circuit.X(q))
		}
	}
	fwd := workloads.QFT(n)
	c.Append(fwd.Gates...)
	// Inverse: reverse order, conjugate parameters.
	for i := len(fwd.Gates) - 1; i >= 0; i-- {
		g := fwd.Gates[i]
		switch g.Name {
		case "h", "swap":
			c.Append(g)
		case "cp":
			c.Append(circuit.CP(-g.Params[0], g.Controls[0].Qubit, g.Targets[0]))
		default:
			t.Fatalf("unexpected QFT gate %s", g.Name)
		}
	}
	s := core.New(n, core.Options{Threads: 2})
	s.Run(c)
	p := s.Probabilities()[input]
	if math.Abs(p-1) > intEps {
		t.Fatalf("QFT round trip lost the state: P(input)=%v", p)
	}
}

func TestGroverEndToEndOnFlatDD(t *testing.T) {
	n := 6
	marked := uint64(45)
	c := workloads.Grover(n, marked, 0)
	s := core.New(n, core.Options{Threads: 4})
	s.Run(c)
	if p := s.Probabilities()[marked]; p < 0.9 {
		t.Fatalf("Grover on FlatDD: P(marked)=%v", p)
	}
}

func TestAdderOnAllEnginesIsExact(t *testing.T) {
	c := workloads.Adder(12, 9)
	hybrid, pure, array := engines(t, c)
	// The result must be one exact basis state on every engine.
	for name, amps := range map[string][]complex128{"flatdd": hybrid, "ddsim": pure, "array": array} {
		ones := 0
		for _, a := range amps {
			p := real(a)*real(a) + imag(a)*imag(a)
			if p > 0.5 {
				ones++
			} else if p > intEps {
				t.Fatalf("%s: non-basis amplitude %v", name, a)
			}
		}
		if ones != 1 {
			t.Fatalf("%s: %d dominant states", name, ones)
		}
	}
}

func TestQASMPipelineEndToEnd(t *testing.T) {
	// Emit the Bell + phase-kickback program through the parser, then
	// through FlatDD, and check the distribution.
	src := `
OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
h q[0];
cx q[0], q[1];
cx q[1], q[2];
`
	c, err := qasm.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	s := core.New(c.Qubits, core.Options{})
	s.Run(c)
	probs := s.Probabilities()
	if math.Abs(probs[0]-0.5) > intEps || math.Abs(probs[7]-0.5) > intEps {
		t.Fatalf("GHZ-3 via QASM: %v", probs)
	}
}

func TestRandomizedDifferentialSweep(t *testing.T) {
	// Differential testing across a seed sweep: any disagreement between
	// the hybrid engine and the array oracle is a bug somewhere in the DD
	// stack.
	if testing.Short() {
		t.Skip("long differential sweep")
	}
	rng := rand.New(rand.NewSource(20240812))
	for trial := 0; trial < 15; trial++ {
		n := 3 + rng.Intn(6)
		gates := 10 + rng.Intn(60)
		c := circuit.New("diff", n)
		for len(c.Gates) < gates {
			switch rng.Intn(8) {
			case 0:
				c.Append(circuit.H(rng.Intn(n)))
			case 1:
				c.Append(circuit.U3(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.Intn(n)))
			case 2:
				c.Append(circuit.SW(rng.Intn(n)))
			case 3:
				a, b := rng.Intn(n), rng.Intn(n)
				if a != b {
					c.Append(circuit.CX(a, b))
				}
			case 4:
				a, b := rng.Intn(n), rng.Intn(n)
				if a != b {
					c.Append(circuit.FSim(rng.NormFloat64(), rng.NormFloat64(), a, b))
				}
			case 5:
				a, b := rng.Intn(n), rng.Intn(n)
				if a != b {
					c.Append(circuit.SWAP(a, b))
				}
			case 6:
				if n >= 3 {
					a, b, cc := rng.Intn(n), rng.Intn(n), rng.Intn(n)
					if a != b && b != cc && a != cc {
						c.Append(circuit.CCX(a, b, cc))
					}
				}
			default:
				a, b := rng.Intn(n), rng.Intn(n)
				if a != b {
					c.Append(circuit.CRZ(rng.NormFloat64(), a, b))
				}
			}
		}
		hybrid, pure, array := engines(t, c)
		if d := maxDeviation(hybrid, array); d > intEps {
			t.Fatalf("trial %d (n=%d, %d gates): FlatDD deviates %.2e", trial, n, gates, d)
		}
		if d := maxDeviation(pure, array); d > intEps {
			t.Fatalf("trial %d: DDSIM deviates %.2e", trial, d)
		}
	}
}
