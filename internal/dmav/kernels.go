package dmav

// Vector kernels standing in for the paper's AVX2 SIMD routines. The loops
// are 4-way unrolled over contiguous []complex128 so the compiler emits
// straight-line FMA-friendly code; the unroll factor matches
// DefaultSIMDWidth, the d parameter of the Equation 6 cost model.

// scalarMulInto sets dst[i] = src[i] * w. dst and src must have equal
// length and may not overlap partially (identical or disjoint only).
func scalarMulInto(dst, src []complex128, w complex128) {
	n := len(dst)
	src = src[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		dst[i] = src[i] * w
		dst[i+1] = src[i+1] * w
		dst[i+2] = src[i+2] * w
		dst[i+3] = src[i+3] * w
	}
	for ; i < n; i++ {
		dst[i] = src[i] * w
	}
}

// addInto accumulates dst[i] += src[i].
func addInto(dst, src []complex128) {
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

// axpyInto accumulates dst[i] += src[i] * w.
func axpyInto(dst, src []complex128, w complex128) {
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
	case a != 0 && b != 0:
		x, y = x[:len(dst)], y[:len(dst)]
		if set {
			for i := range dst {
				dst[i] = a*x[i] + b*y[i]
			}
		} else {
			for i := range dst {
				dst[i] += a*x[i] + b*y[i]
			}
		}
	case a != 0:
		span(dst, x, a, set)
	case b != 0:
		span(dst, y, b, set)
	case set:
		clear(dst)
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
