package main

import (
	"math"
	"math/cmplx"
	"sync"
	"time"
)

// hostRef is a fixed kernel that belongs to the benchmark, not to the
// program: butterfly sweeps over a 2^n complex128 array, the size of the
// workload's own state vector, so it sits in the same level of the memory
// hierarchy. The host this runs on changes speed by 20-60 % for minutes at
// a time (neighbouring VMs); jobs and kernel slow down together. A run
// times the kernel between jobs and reports its end-to-end times on the
// scale of a host where the kernel takes its nominal time.
type hostRef struct {
	n     int
	lanes [][]complex128 // one array per concurrent sweep
}

// refUpdates is the number of butterfly updates of one kernel run: about
// 25 ms, a few per cent of the time between two engine jobs.
const refUpdates = 1 << 22

// refNominalMS is the kernel's time on this host class when undisturbed,
// per register size. It only fixes the scale: with another constant every
// corrected time moves by the same factor on both sides of a comparison.
var refNominalMS = map[int]float64{14: 23, 15: 23, 20: 29, 21: 29}

// newHostRef returns a kernel that sweeps `lanes` arrays at once, one
// goroutine each: as many as the workload keeps busy, because a job that
// joins its workers after every gate runs at the speed of the slower vCPU.
func newHostRef(n, lanes int) *hostRef {
	h := &hostRef{n: n, lanes: make([][]complex128, lanes)}
	for l := range h.lanes {
		h.lanes[l] = make([]complex128, 1<<uint(n))
		for i := range h.lanes[l] {
			h.lanes[l][i] = complex(float64(i%5)*0.1, 0.3)
		}
	}
	return h
}

// run executes the kernel once and returns its time in ms.
func (h *hostRef) run() float64 {
	if h == nil {
		return 0
	}
	t0 := time.Now()
	var wg sync.WaitGroup
	for _, arr := range h.lanes[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sweep(arr, h.n)
		}()
	}
	sweep(h.lanes[0], h.n)
	wg.Wait()
	return ms(time.Since(t0))
}

func sweep(arr []complex128, n int) {
	// [[a, b], [-conj(b), conj(a)]] with |a|^2+|b|^2 = 1 is unitary, so the
	// values neither overflow nor decay into denormals however long it runs.
	a, b := complex(0.6, 0.1), complex(0.1, math.Sqrt(0.62))
	ca, cb := cmplx.Conj(a), cmplx.Conj(b)
	half := len(arr) / 2
	for p, done := 0, 0; done < refUpdates; p, done = p+1, done+half {
		stride := 1 << uint(p%n)
		for k := 0; k < half; k++ {
			i := (k/stride)*2*stride + k%stride
			x, y := arr[i], arr[i+stride]
			arr[i] = a*x + b*y
			arr[i+stride] = ca*y - cb*x
		}
	}
}

// factor is what a run multiplies its times by: below 1 when the host was
// slower than nominal while the run measured, 1 without a kernel.
func (h *hostRef) factor(refMS []float64) float64 {
	if m := median(refMS); h != nil && m > 0 {
		return refNominalMS[h.n] / m
	}
	return 1
}
