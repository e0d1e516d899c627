package harness

import (
	"fmt"
	"time"

	"flatdd/internal/circuit"
	"flatdd/internal/convert"
	"flatdd/internal/core"
	"flatdd/internal/dd"
	"flatdd/internal/ddsim"
	"flatdd/internal/dmav"
	"flatdd/internal/workloads"
)

// Ablation runs three design-choice studies that the paper motivates but
// does not tabulate directly:
//
//  1. the EWMA parameter grid (β, ε) — sensitivity of the conversion point
//     and total runtime to the Section 3.1.1 controller parameters;
//  2. DMAV shared partial-output buffers (Algorithm 2) on vs off;
//  3. the two parallel-conversion optimizations of Figure 4 (load
//     balancing + scalar multiplication) vs a blind thread split vs the
//     sequential baseline.
func Ablation(cfg Config) {
	cfg = cfg.withDefaults()
	ablationEWMA(cfg)
	ablationBufferSharing(cfg)
	ablationConversion(cfg)
}

func ablationEWMA(cfg Config) {
	nc := Fig1Circuits(cfg.Scale)[2] // the DNN circuit
	betas := []float64{0.5, 0.8, 0.9, 0.95, 0.99}
	epsilons := []float64{1.2, 1.5, 2, 3, 5}
	tbl := NewTable(fmt.Sprintf("Ablation A: EWMA parameters on %s (paper default beta=0.9 epsilon=2)", nc.Label),
		"beta", "epsilon", "Converted at", "Runtime")
	for _, b := range betas {
		for _, e := range epsilons {
			r := RunFlatDD(nc.C, core.Options{Threads: cfg.Threads, Beta: b, Epsilon: e}, cfg.Timeout)
			conv := "never"
			if r.ConvertedAt >= 0 {
				conv = fmt.Sprintf("%d", r.ConvertedAt)
			}
			tbl.AddRow(b, e, conv, r.Runtime)
		}
	}
	emit(cfg, "ablation-ewma", tbl)
}

func ablationBufferSharing(cfg Config) {
	nc := DeepCircuits(cfg.Scale)[4] // a supremacy circuit
	n := nc.C.Qubits
	tbl := NewTable(fmt.Sprintf("Ablation B: DMAV shared partial-output buffers on %s (AlwaysCache, threads=%d)", nc.Label, cfg.Threads),
		"Buffer sharing", "Runtime", "Max buffers", "Buffer memory")
	for _, share := range []bool{true, false} {
		m := dd.New(n)
		eng := dmav.New(m, n, cfg.Threads, dmav.AlwaysCache)
		eng.SetBufferSharing(share)
		gates := make([]dd.MEdge, len(nc.C.Gates))
		for i := range nc.C.Gates {
			gates[i] = ddsim.BuildGateDD(m, n, &nc.C.Gates[i])
		}
		v := make([]complex128, uint64(1)<<uint(n))
		v[0] = 1
		w := make([]complex128, len(v))
		maxBuf := 0
		start := time.Now()
		for _, g := range gates {
			c, _ := eng.Apply(g, v, w)
			v, w = w, v
			if c.Buffers > maxBuf {
				maxBuf = c.Buffers
			}
		}
		elapsed := time.Since(start)
		label := "on (paper)"
		bufs := maxBuf
		if !share {
			label = "off"
			bufs = eng.CacheChunks()
		}
		// The output vector serves as buffer 0: b buffers allocate b-1.
		tbl.AddRow(label, elapsed, bufs, fmtMB(uint64(bufs-1)*uint64(len(v))*16))
	}
	emit(cfg, "ablation-buffers", tbl)
}

func ablationConversion(cfg Config) {
	// Two states where the Figure 4 optimizations matter: a sparse
	// GHZ-like state (zero edges -> load balancing) and a product state
	// (identical children -> scalar multiplication).
	n := 16
	if cfg.Scale == ScaleTiny {
		n = 12
	}
	type prep struct {
		name  string
		build func(s *ddsim.Simulator)
	}
	preps := []prep{
		{"GHZ (sparse, zero edges)", func(s *ddsim.Simulator) {
			g := workloads.GHZ(n)
			s.Run(g)
		}},
		{"Product |+>^n (identical children)", func(s *ddsim.Simulator) {
			for q := 0; q < n; q++ {
				h := circuit.H(q)
				s.ApplyGate(&h)
			}
		}},
	}
	tbl := NewTable(fmt.Sprintf("Ablation C: DD-to-array conversion optimizations (n=%d, threads=%d)", n, cfg.Threads),
		"State", "Sequential", "Naive parallel split", "Fig.4 parallel (load bal. + scalar)")
	for _, p := range preps {
		s := ddsim.New(n)
		p.build(s)
		e := s.State()
		out := make([]complex128, uint64(1)<<uint(n))

		seq := timeIt(func() { clear(out); s.Manager().FillArray(e, n, out) })
		naive := timeIt(func() { clear(out); convert.ParallelNaiveInto(e, n, cfg.Threads, out) })
		opt := timeIt(func() { clear(out); convert.ParallelInto(e, n, cfg.Threads, out) })
		tbl.AddRow(p.name, seq, naive, opt)
	}
	emit(cfg, "ablation-conversion", tbl)
}

func timeIt(f func()) time.Duration {
	// Best of three to damp scheduler noise.
	best := time.Duration(1<<63 - 1)
	for i := 0; i < 3; i++ {
		start := time.Now()
		f()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}
