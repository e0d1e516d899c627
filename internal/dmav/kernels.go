package dmav

// Vector kernels: the counterparts of the paper's AVX2 routines (§3.2).
//
// The inner loops of the in-place ops (inplace.go) and of span and row form
// one kernel table of seven entries: pairRuns, pairAdj, swapPhaseRuns,
// scaleRuns, axpyInto, addInto and row's two-operand case. Each has an AVX2
// body in kernels_amd64.s and a Go twin here, and useAsm, set once at
// package init, picks the AVX2 bodies on an amd64 CPU with AVX2 whose OS
// saves the YMM registers; other architectures, the purego build tag and
// older CPUs run the Go loops. Every complex product in the assembly is
// the IEEE operation sequence of Go's complex128 multiply — two products
// per part, then a subtraction for the real part and an addition for the
// imaginary part, with no FMA — and every sum adds the same two values, so
// both bodies give bit-identical amplitudes (FuzzKernels). The Go loops
// compile to scalar SSE2: go1.24 neither vectorizes them nor fuses a
// multiply and an add, at GOAMD64=v1 or v3. The butterfly and 4×4 kernels
// of Apply's DD plans stay Go loops.
//
// An entry branches on useAsm rather than calling through a function
// value: an indirect call makes the slices passed to it escape, which
// would move the dense op's and the cycle's stack temporaries to the heap.
//
// The strided entries act on nb runs of na consecutive elements that
// start every sb elements; their slices hold at least (nb−1)·sb + na
// elements. Each element is computed alone, so the runs' order is free.

// pairRuns applies the 2×2 block [w0 w1; w2 w3] to each (v0[t], v1[t]).
func pairRuns(v0, v1 []complex128, nb, sb, na int, w *[4]complex128) {
	if nb > 0 {
		v0, v1 = v0[:(nb-1)*sb+na], v1[:(nb-1)*sb+na]
	}
	if useAsm {
		pairAVX2(v0, v1, nb, sb, na, w)
		return
	}
	pairGo(v0, v1, nb, sb, na, w)
}

// pairAdj applies the block to each adjacent pair (v[2t], v[2t+1]).
func pairAdj(v []complex128, w *[4]complex128) {
	if useAsm {
		pairAdjAVX2(v, w)
		return
	}
	pairAdjGo(v, w)
}

// swapPhaseRuns sets (v0[t], v1[t]) = (w0·v1[t], w1·v0[t]).
func swapPhaseRuns(v0, v1 []complex128, nb, sb, na int, w0, w1 complex128) {
	if nb > 0 {
		v0, v1 = v0[:(nb-1)*sb+na], v1[:(nb-1)*sb+na]
	}
	if useAsm {
		swapPhaseAVX2(v0, v1, nb, sb, na, w0, w1)
		return
	}
	swapPhaseGo(v0, v1, nb, sb, na, w0, w1)
}

// scaleRuns sets dst[t] = src[t]·w; dst and src are identical or disjoint.
func scaleRuns(dst, src []complex128, nb, sb, na int, w complex128) {
	if nb > 0 {
		dst, src = dst[:(nb-1)*sb+na], src[:(nb-1)*sb+na]
	}
	if useAsm {
		scaleAVX2(dst, src, nb, sb, na, w)
		return
	}
	scaleGo(dst, src, nb, sb, na, w)
}

// scalarMulInto sets dst[i] = src[i] * w. dst and src must have equal
// length and may not overlap partially (identical or disjoint only).
func scalarMulInto(dst, src []complex128, w complex128) {
	scaleRuns(dst, src, 1, 0, len(dst), w)
}

// addInto accumulates dst[i] += src[i].
func addInto(dst, src []complex128) {
	if useAsm {
		addAVX2(dst, src[:len(dst)])
		return
	}
	addGo(dst, src)
}

// axpyInto accumulates dst[i] += src[i] * w.
func axpyInto(dst, src []complex128, w complex128) {
	if useAsm {
		axpyAVX2(dst, src[:len(dst)], w)
		return
	}
	axpyGo(dst, src, w)
}

// span is the identity-block kernel: dst = w·src when set (first touch of
// the rows, so nothing is read from dst), dst += w·src otherwise. Weight 1
// — every identity block of a controlled or diagonal gate — degenerates
// to a copy or a plain add.
func span(dst, src []complex128, w complex128, set bool) {
	switch {
	case set && w == 1:
		copy(dst, src)
	case set:
		scalarMulInto(dst, src, w)
	case w == 1:
		addInto(dst, src)
	default:
		axpyInto(dst, src, w)
	}
}

// row computes one output half of a 2×2-over-identity block:
// dst (=|+=) a·x + b·y, skipping a zero coefficient's operand entirely.
func row(dst, x, y []complex128, a, b complex128, set bool) {
	switch {
	case a != 0 && b != 0 && useAsm:
		rowAVX2(dst, x[:len(dst)], y[:len(dst)], a, b, set)
	case a != 0 && b != 0:
		rowGo(dst, x, y, a, b, set)
	case a != 0:
		span(dst, x, a, set)
	case b != 0:
		span(dst, y, b, set)
	case set:
		clear(dst)
	}
}

// The Go twins walk each run as a unit-stride slice when the runs are at
// least as long as they are many, else each position of the runs as one
// strided pass (a gate on qubits 0–2 has runs of 1, 2 or 4), so that
// neither loop pays per-run overhead or bounds checks. A strided pass
// relies on the runs not overlapping (sb ≥ na) and on its slices holding
// exactly (nb−1)·sb + na elements.

func pairGo(v0, v1 []complex128, nb, sb, na int, w *[4]complex128) {
	a00, a01, a10, a11 := w[0], w[1], w[2], w[3]
	if na < nb {
		for j := 0; j < na; j++ {
			p0 := v0[j:]
			p1 := v1[j:][:len(p0)]
			for t := 0; t < len(p0); t += sb {
				p, q := p0[t], p1[t]
				p0[t] = a00*p + a01*q
				p1[t] = a10*p + a11*q
			}
		}
		return
	}
	for i := 0; i < nb; i++ {
		p0 := v0[i*sb:][:na]
		p1 := v1[i*sb:][:len(p0)]
		for t := range p0 {
			p, q := p0[t], p1[t]
			p0[t] = a00*p + a01*q
			p1[t] = a10*p + a11*q
		}
	}
}

func pairAdjGo(v []complex128, w *[4]complex128) {
	a00, a01, a10, a11 := w[0], w[1], w[2], w[3]
	for t := 0; t+1 < len(v); t += 2 {
		p, q := v[t], v[t+1]
		v[t] = a00*p + a01*q
		v[t+1] = a10*p + a11*q
	}
}

func swapPhaseGo(v0, v1 []complex128, nb, sb, na int, w0, w1 complex128) {
	if na < nb {
		for j := 0; j < na; j++ {
			p0 := v0[j:]
			p1 := v1[j:][:len(p0)]
			for t := 0; t < len(p0); t += sb {
				p0[t], p1[t] = w0*p1[t], w1*p0[t]
			}
		}
		return
	}
	for i := 0; i < nb; i++ {
		p0 := v0[i*sb:][:na]
		p1 := v1[i*sb:][:len(p0)]
		for t := range p0 {
			p0[t], p1[t] = w0*p1[t], w1*p0[t]
		}
	}
}

func scaleGo(dst, src []complex128, nb, sb, na int, w complex128) {
	if na < nb {
		for j := 0; j < na; j++ {
			d := dst[j:]
			s := src[j:][:len(d)]
			for t := 0; t < len(d); t += sb {
				d[t] = s[t] * w
			}
		}
		return
	}
	for i := 0; i < nb; i++ {
		d := dst[i*sb:][:na]
		s := src[i*sb:][:len(d)]
		t := 0
		for ; t+4 <= len(d); t += 4 {
			d[t] = s[t] * w
			d[t+1] = s[t+1] * w
			d[t+2] = s[t+2] * w
			d[t+3] = s[t+3] * w
		}
		for ; t < len(d); t++ {
			d[t] = s[t] * w
		}
	}
}

func addGo(dst, src []complex128) {
	n := len(dst)
	src = src[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		dst[i] += src[i]
		dst[i+1] += src[i+1]
		dst[i+2] += src[i+2]
		dst[i+3] += src[i+3]
	}
	for ; i < n; i++ {
		dst[i] += src[i]
	}
}

func axpyGo(dst, src []complex128, w complex128) {
	n := len(dst)
	src = src[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		dst[i] += src[i] * w
		dst[i+1] += src[i+1] * w
		dst[i+2] += src[i+2] * w
		dst[i+3] += src[i+3] * w
	}
	for ; i < n; i++ {
		dst[i] += src[i] * w
	}
}

func rowGo(dst, x, y []complex128, a, b complex128, set bool) {
	x, y = x[:len(dst)], y[:len(dst)] // lets the compiler drop the bounds checks
	if set {
		for i := range dst {
			dst[i] = a*x[i] + b*y[i]
		}
		return
	}
	for i := range dst {
		dst[i] += a*x[i] + b*y[i]
	}
}

// butterflySet applies the 2×2 block [[a00 a01] [a10 a11]] ⊗ I_h to reps
// consecutive column blocks of 2h amplitudes each: within a block the low
// and high halves of V are read once and both halves of W written once,
// with no prior read of W. V and W start at the first block.
func butterflySet(W, V []complex128, h, reps uint64, a00, a01, a10, a11 complex128) {
	if h == 1 {
		// Target qubit 0: the blocks are adjacent pairs.
		V = V[:2*reps]
		W = W[:2*reps]
		for i := 0; i+1 < len(V); i += 2 {
			v0, v1 := V[i], V[i+1]
			W[i] = a00*v0 + a01*v1
			W[i+1] = a10*v0 + a11*v1
		}
		return
	}
	for b := uint64(0); b < reps; b++ {
		o := b * 2 * h
		vlo, vhi := V[o:o+h], V[o+h:o+2*h]
		wlo, whi := W[o:o+h], W[o+h:o+2*h]
		vhi, wlo, whi = vhi[:len(vlo)], wlo[:len(vlo)], whi[:len(vlo)]
		for i := range vlo {
			v0, v1 := vlo[i], vhi[i]
			wlo[i] = a00*v0 + a01*v1
			whi[i] = a10*v0 + a11*v1
		}
	}
}

// butterflyAdd is butterflySet accumulating into W.
func butterflyAdd(W, V []complex128, h, reps uint64, a00, a01, a10, a11 complex128) {
	for b := uint64(0); b < reps; b++ {
		o := b * 2 * h
		vlo, vhi := V[o:o+h], V[o+h:o+2*h]
		wlo, whi := W[o:o+h], W[o+h:o+2*h]
		vhi, wlo, whi = vhi[:len(vlo)], wlo[:len(vlo)], whi[:len(vlo)]
		for i := range vlo {
			v0, v1 := vlo[i], vhi[i]
			wlo[i] += a00*v0 + a01*v1
			whi[i] += a10*v0 + a11*v1
		}
	}
}

// quadDense applies a 4×4 block over I_h to one group of four h-spans.
func quadDense(W, V *[4][]complex128, a *[4][4]complex128, set bool) {
	v0, v1, v2, v3 := V[0], V[1], V[2], V[3]
	n := len(v0)
	v1, v2, v3 = v1[:n], v2[:n], v3[:n]
	for r := range W {
		w, ar := W[r][:n], &a[r]
		if set {
			for i := range w {
				w[i] = ar[0]*v0[i] + ar[1]*v1[i] + ar[2]*v2[i] + ar[3]*v3[i]
			}
		} else {
			for i := range w {
				w[i] += ar[0]*v0[i] + ar[1]*v1[i] + ar[2]*v2[i] + ar[3]*v3[i]
			}
		}
	}
}

// quadPacked applies f times a 4×4 block to consecutive groups of four
// amplitudes.
func quadPacked(W, V []complex128, a *[4][4]complex128, f complex128, set bool) {
	W = W[:len(V)]
	for i := 0; i+3 < len(V); i += 4 {
		v0, v1, v2, v3 := V[i], V[i+1], V[i+2], V[i+3]
		w0 := f * (a[0][0]*v0 + a[0][1]*v1 + a[0][2]*v2 + a[0][3]*v3)
		w1 := f * (a[1][0]*v0 + a[1][1]*v1 + a[1][2]*v2 + a[1][3]*v3)
		w2 := f * (a[2][0]*v0 + a[2][1]*v1 + a[2][2]*v2 + a[2][3]*v3)
		w3 := f * (a[3][0]*v0 + a[3][1]*v1 + a[3][2]*v2 + a[3][3]*v3)
		if set {
			W[i], W[i+1], W[i+2], W[i+3] = w0, w1, w2, w3
		} else {
			W[i] += w0
			W[i+1] += w1
			W[i+2] += w2
			W[i+3] += w3
		}
	}
}
