package dmav

import (
	"context"
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"flatdd/internal/circuit"
	"flatdd/internal/dd"
	"flatdd/internal/faults"
	"flatdd/internal/sched"
	"flatdd/internal/statevec"
)

// randomNarrowGate draws a gate on at most three qubits: single-qubit
// gates of every block shape, one or two controls of either polarity on a
// dense, diagonal or permutation target, two-qubit permutations, phases
// and fSim, a phased three-qubit permutation (cycles longer than two) and
// a dense two-qubit block, which stays on Apply's kernel.
func randomNarrowGate(rng *rand.Rand, n int) circuit.Gate {
	qs := rng.Perm(n)[:min(n, 3)]
	u2 := func() circuit.Gate {
		switch rng.Intn(7) {
		case 0:
			return circuit.H(qs[0])
		case 1:
			return circuit.X(qs[0])
		case 2:
			return circuit.Y(qs[0])
		case 3:
			return circuit.RZ(rng.NormFloat64(), qs[0])
		case 4:
			return circuit.T(qs[0])
		case 5:
			return circuit.SX(qs[0])
		default:
			return circuit.U3(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), qs[0])
		}
	}
	switch k := rng.Intn(6); {
	case k == 0 || n < 2:
		return u2()
	case k == 1 || k == 2 && n < 3:
		g := u2()
		g.Controls = []circuit.Control{{Qubit: qs[1], Negative: rng.Intn(2) == 0}}
		return g
	case k == 2:
		g := u2()
		g.Controls = []circuit.Control{
			{Qubit: qs[1], Negative: rng.Intn(2) == 0},
			{Qubit: qs[2], Negative: rng.Intn(2) == 0},
		}
		return g
	case k == 3:
		switch rng.Intn(5) {
		case 0:
			return circuit.SWAP(qs[0], qs[1])
		case 1:
			return circuit.ISwap(qs[0], qs[1])
		case 2:
			return circuit.FSim(math.Pi/2, rng.NormFloat64(), qs[0], qs[1])
		case 3:
			return circuit.RZZ(rng.NormFloat64(), qs[0], qs[1])
		default:
			return circuit.FSim(rng.NormFloat64(), rng.NormFloat64(), qs[0], qs[1])
		}
	case k == 4 && n >= 3:
		// A random permutation of the eight basis states with unit phases.
		d := 8
		u := make([][]complex128, d)
		for r, c := range rng.Perm(d) {
			u[r] = make([]complex128, d)
			u[r][c] = cmplx.Exp(complex(0, rng.NormFloat64()))
		}
		return circuit.Gate{Name: "perm3", Targets: qs, U: u}
	default:
		g := circuit.U3(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), qs[0])
		h := circuit.FSim(rng.NormFloat64(), rng.NormFloat64(), qs[0], qs[1])
		// h·(g⊗I) is dense on both qubits: the block Step leaves to Apply.
		u := make([][]complex128, 4)
		for r := range u {
			u[r] = make([]complex128, 4)
			for c := range u[r] {
				for x := 0; x < 4; x++ {
					if x>>1 == c>>1 {
						u[r][c] += h.U[r][x] * g.U[x&1][c&1]
					}
				}
			}
		}
		return circuit.Gate{Name: "dense2", Targets: qs[:2], U: u}
	}
}

// TestStepMatchesApplySeeded runs random narrow gates through Step and
// Apply from the same state. A monomial gate of the circuit library (X, Y,
// CX, CCX, SWAP, iSWAP, fSim(π/2,·)) must give bit-equal amplitudes. The
// random phased permutation multiplies three path weights, which Apply's
// 4×4 block groups in another order, so it and every other gate agree to
// 1e-12. Registers stay at n ≤ 10, so every gate runs inline;
// TestKernelOpKinds covers the pooled side.
func TestStepMatchesApplySeeded(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	kinds := map[ipKind]bool{}
	fellBack := 0
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(10)
		threads := 1 + rng.Intn(3)
		m := dd.New(n)
		e := New(m, n, threads, NeverCache)
		V := randAmps(rng, n)
		W := make([]complex128, len(V))
		for i := 0; i < 12; i++ {
			g := randomNarrowGate(rng, n)
			M := gateDD(m, n, g)
			if _, err := e.Apply(M, V, W); err != nil {
				t.Fatal(err)
			}
			got, _, err := e.Step(M, append([]complex128(nil), V...))
			if err != nil {
				t.Fatal(err)
			}
			ip := e.gates[M.N].ip
			if ip == nil {
				fellBack++
			} else {
				kinds[ip.kind] = true
			}
			bitEqual := ip != nil && ip.kind == ipMono && g.Name != "perm3"
			for j := range W {
				if bitEqual && got[j] != W[j] || cmplx.Abs(got[j]-W[j]) > 1e-12 {
					t.Fatalf("trial %d n=%d threads=%d %s%v controls %v (in place: %v): amplitude %d is %v, Apply gives %v",
						trial, n, threads, g.Name, g.Targets, g.Controls, ip != nil, j, got[j], W[j])
				}
			}
			copy(V, W)
		}
		e.Close()
	}
	for k := ipDiag; k <= ipSingle; k++ {
		if !kinds[k] {
			t.Errorf("no gate ran in place as kind %d", k)
		}
	}
	if fellBack == 0 {
		t.Error("no dense two-qubit block fell back to Apply's kernel")
	}
}

// TestFaultCancelDuringInPlaceGates cancels a stream of in-place gates at
// n=18 on two threads, where every gate forks onto the pool. Injected
// task slowness stretches each gate to several milliseconds, so a cancel
// from another goroutine lands inside a gate: the gate still completes
// and counts, the state stays normalized, and it equals the oracle after
// the whole gates Stats counts.
func TestFaultCancelDuringInPlaceGates(t *testing.T) {
	const n = 18
	gates := []circuit.Gate{
		circuit.H(0), circuit.CX(0, n-1), circuit.RZ(0.7, 3), circuit.CCX(0, 5, 9),
		circuit.U3(0.3, 0.4, 0.5, n-1), circuit.SWAP(2, 11), circuit.CZ(1, 16),
		circuit.FSim(math.Pi/2, 0.3, 4, 5), circuit.H(n / 2), circuit.CX(n-1, 0),
	}
	V := randAmps(rand.New(rand.NewSource(18)), n)
	m := dd.New(n)
	Ms := make([]dd.MEdge, len(gates))
	for i, g := range gates {
		Ms[i] = gateDD(m, n, g)
	}
	pool := sched.New(2)
	defer pool.Close()
	reg := faults.New(1)
	reg.Arm(faults.SchedTaskSlow, faults.Trigger{Prob: 1, Delay: 500 * time.Microsecond})
	midGate := 0
	for _, delay := range []time.Duration{time.Millisecond, 3 * time.Millisecond, 10 * time.Millisecond} {
		ctx, cancel := context.WithCancel(context.Background())
		e := New(m, n, 2, NeverCache)
		e.SetEnv(sched.Env{Pool: pool, Faults: reg, Cancel: func() bool { return ctx.Err() != nil }})
		state := append([]complex128(nil), V...)
		applied := 0
		timer := time.AfterFunc(delay, cancel)
		// The stream repeats until the cancel lands, as a run's gate loop
		// polls between gates.
		for !e.env.Canceled() {
			M := Ms[applied%len(Ms)]
			out, _, err := e.Step(M, state)
			if err != nil {
				t.Fatalf("delay %v: gate %d: %v", delay, applied, err)
			}
			if ip := e.gates[M.N].ip; ip == nil || ip.inline {
				t.Fatalf("gate %d did not run in place on the pool", applied)
			}
			if e.env.Canceled() {
				midGate++
			}
			state = out
			applied++
		}
		timer.Stop()
		cancel()
		if got := e.Stats().Gates; got != applied {
			t.Fatalf("delay %v: Stats counts %d gates, %d applied", delay, got, applied)
		}
		var norm float64
		for _, a := range state {
			norm += real(a)*real(a) + imag(a)*imag(a)
		}
		if math.Abs(norm-1) > 1e-9 {
			t.Fatalf("delay %v: norm %v after %d gates", delay, norm, applied)
		}
		sv := statevec.FromAmplitudes(append([]complex128(nil), V...), 1)
		for i := 0; i < applied; i++ {
			sv.Apply(&gates[i%len(gates)])
		}
		for i, want := range sv.Amplitudes() {
			if cmplx.Abs(state[i]-want) > 1e-9 {
				t.Fatalf("delay %v: amplitude %d is %v, the oracle after %d gates gives %v",
					delay, i, state[i], applied, want)
			}
		}
		e.Close()
	}
	if midGate == 0 {
		t.Fatal("no cancel landed inside a gate")
	}
}

// TestFaultCancelDuringForkedGates cancels a stream that alternates
// in-place and out-of-place gates at n=14 on two threads, where every gate
// forks onto the engine's own pool, and injected task slowness stretches
// each gate so the cancel lands inside one. An in-place gate completes and
// counts; an out-of-place gate returns ErrCanceled and hands back the
// pre-gate state, bit for bit. Either way the state equals the oracle
// after the gates Stats counts, and once Close has retired the engine's
// pool no goroutine of the run is left.
func TestFaultCancelDuringForkedGates(t *testing.T) {
	const n = 14
	gates := []circuit.Gate{
		circuit.H(0), circuit.FSim(0.5, 0.2, 3, 9), circuit.CX(2, 11),
		circuit.FSim(0.7, 0.1, 0, n-1), circuit.U3(0.3, 0.4, 0.5, n-1), circuit.CCX(0, 5, 9),
		circuit.FSim(0.9, 0.3, 6, 7), circuit.RZ(0.7, 3),
	}
	V := randAmps(rand.New(rand.NewSource(14)), n)
	m := dd.New(n)
	Ms := make([]dd.MEdge, len(gates))
	for i, g := range gates {
		Ms[i] = gateDD(m, n, g)
	}
	reg := faults.New(1)
	reg.Arm(faults.SchedTaskSlow, faults.Trigger{Prob: 1, Delay: 200 * time.Microsecond})
	base := runtime.NumGoroutine()
	inPlaceCancels, outOfPlaceCancels := 0, 0
	for attempt := 0; attempt < 40 && (inPlaceCancels == 0 || outOfPlaceCancels == 0); attempt++ {
		// A slowed gate takes a few milliseconds: the delays spread the
		// cancel over the first several gates of the stream.
		delay := time.Duration(1+attempt*7%40) * time.Millisecond
		ctx, cancel := context.WithCancel(context.Background())
		e := New(m, n, 2, NeverCache)
		e.SetEnv(sched.Env{Faults: reg, Cancel: func() bool { return ctx.Err() != nil }})
		state := append([]complex128(nil), V...)
		before := make([]complex128, len(state))
		applied := 0
		timer := time.AfterFunc(delay, cancel)
		for !e.env.Canceled() {
			M := Ms[applied%len(Ms)]
			copy(before, state)
			out, _, err := e.Step(M, state)
			g := e.gates[M.N]
			if g.inline || g.ip != nil && g.ip.inline {
				t.Fatalf("gate %d ran inline", applied)
			}
			if errors.Is(err, ErrCanceled) {
				if g.ip != nil {
					t.Fatalf("in-place gate %d returned ErrCanceled", applied)
				}
				if &out[0] != &state[0] {
					t.Fatal("a canceled gate did not hand back the state it was given")
				}
				for i := range before {
					if out[i] != before[i] {
						t.Fatalf("canceled gate %d changed amplitude %d", applied, i)
					}
				}
				outOfPlaceCancels++
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if g.ip != nil && e.env.Canceled() {
				inPlaceCancels++
			}
			state = out
			applied++
		}
		timer.Stop()
		cancel()
		if got := e.Stats().Gates; got != applied {
			t.Fatalf("delay %v: Stats counts %d gates, %d applied", delay, got, applied)
		}
		sv := statevec.FromAmplitudes(append([]complex128(nil), V...), 1)
		for i := 0; i < applied; i++ {
			sv.Apply(&gates[i%len(gates)])
		}
		for i, want := range sv.Amplitudes() {
			if cmplx.Abs(state[i]-want) > 1e-9 {
				t.Fatalf("delay %v: amplitude %d is %v, the oracle after %d gates gives %v",
					delay, i, state[i], applied, want)
			}
		}
		e.Close()
	}
	if inPlaceCancels == 0 || outOfPlaceCancels == 0 {
		t.Fatalf("cancels inside in-place gates: %d, inside out-of-place gates: %d; want both",
			inPlaceCancels, outOfPlaceCancels)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the engines closed their pools, %d before", runtime.NumGoroutine(), base)
		}
	}
}
