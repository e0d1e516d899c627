package dmav

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// kernelWeights are the weights checkKernels draws from first: the
// entries gates have exactly (0, ±1, ±i) and signed zeros, whose products
// and sums must keep their signs.
var kernelWeights = [8]complex128{
	0, 1, -1, 1i, -1i,
	complex(math.Copysign(0, -1), 0), complex(0, math.Copysign(0, -1)),
	complex(math.Copysign(0, -1), math.Copysign(0, -1)),
}

// kernelImpl is one body of each kernel table entry.
type kernelImpl struct {
	pair      func(v0, v1 []complex128, nb, sb, na int, w *[4]complex128)
	pairAdj   func(v []complex128, w *[4]complex128)
	swapPhase func(v0, v1 []complex128, nb, sb, na int, w0, w1 complex128)
	scale     func(dst, src []complex128, nb, sb, na int, w complex128)
	axpy      func(dst, src []complex128, w complex128)
	add       func(dst, src []complex128)
	row       func(dst, x, y []complex128, a, b complex128, set bool)
}

var (
	asmImpl = kernelImpl{pairAVX2, pairAdjAVX2, swapPhaseAVX2, scaleAVX2, axpyAVX2, addAVX2, rowAVX2}
	goImpl  = kernelImpl{pairGo, pairAdjGo, swapPhaseGo, scaleGo, axpyGo, addGo, rowGo}
)

// FuzzKernels pins every assembly kernel bit-equal to its Go twin. The
// seed corpus sweeps every length 0–70 at each offset, stride and layout;
// the fuzzer varies the data and the weights.
func FuzzKernels(f *testing.F) {
	if !haveAsm {
		f.Skip("this build or CPU runs the Go kernels only")
	}
	for n := 0; n <= 70; n++ {
		for i := 0; i < 16; i++ {
			f.Add(uint8(n), uint8(i), uint8(i/4), uint8(i+n), uint16(n*0x9e37+i*0x1f3), int64(n*16+i), i%2 == 0)
		}
	}
	f.Fuzz(func(t *testing.T, n, off, stride, shape uint8, ws uint16, seed int64, set bool) {
		checkKernels(t, int(n%71), int(off%4), 1<<(stride%4), int(shape%4), ws, seed, set)
	})
}

// checkKernels runs both bodies of every kernel on copies of one random
// buffer and requires the copies bit-equal afterwards, the elements no
// kernel may touch included. n is the length (0–70); off the first
// element's offset, which breaks 32-byte alignment when odd; h one of the
// strides runInPlace uses (1, 2, 4, 8). The strided kernels run, by
// shape, one run of n; n runs of h every 2h, the second operand h after
// the first (a gate on qubit log2 h); 1 + n%3 runs of n every 2n+1; or n
// one-element runs every 2h. ws picks the four weights, four bits each: 0–7
// from kernelWeights, 8–15 random. set selects row's mode.
func checkKernels(t *testing.T, n, off, h, shape int, ws uint16, seed int64, set bool) {
	rng := rand.New(rand.NewSource(seed))
	value := func() complex128 {
		if rng.Intn(8) == 0 {
			return kernelWeights[rng.Intn(len(kernelWeights))]
		}
		return complex(rng.NormFloat64(), rng.NormFloat64())
	}
	var w [4]complex128
	for i := range w {
		if sel := ws >> (4 * i) & 15; sel < 8 {
			w[i] = kernelWeights[sel]
		} else {
			w[i] = value()
		}
	}
	nb, sb, na, d := 1, 0, n, n
	switch shape {
	case 1:
		nb, sb, na, d = n, 2*h, h, h
	case 2:
		nb, sb = 1+n%3, 2*n+1
	case 3:
		nb, sb, na, d = n, 2*h, 1, h
	}
	reach := 0
	if nb > 0 {
		reach = (nb-1)*sb + na
	}
	buf := make([]complex128, off+d+reach+3)
	src := make([]complex128, off+reach+3)
	for i := range buf {
		buf[i] = value()
	}
	for i := range src {
		src[i] = value()
	}
	kernels := []struct {
		name string
		run  func(k *kernelImpl, v []complex128)
	}{
		{"pair", func(k *kernelImpl, v []complex128) { k.pair(v[off:][:reach], v[off+d:][:reach], nb, sb, na, &w) }},
		{"pairAdj", func(k *kernelImpl, v []complex128) { k.pairAdj(v[off:][:n], &w) }},
		{"swapPhase", func(k *kernelImpl, v []complex128) {
			k.swapPhase(v[off:][:reach], v[off+d:][:reach], nb, sb, na, w[0], w[1])
		}},
		{"scale", func(k *kernelImpl, v []complex128) { k.scale(v[off:][:reach], v[off:][:reach], nb, sb, na, w[0]) }},
		{"scaleFrom", func(k *kernelImpl, v []complex128) { k.scale(v[off:][:reach], src[off:][:reach], nb, sb, na, w[1]) }},
		{"axpy", func(k *kernelImpl, v []complex128) { k.axpy(v[off:][:n], src[1:][:n], w[2]) }},
		{"add", func(k *kernelImpl, v []complex128) { k.add(v[off:][:n], src[2:][:n]) }},
		{"row", func(k *kernelImpl, v []complex128) { k.row(v[off:][:n], src[:n], src[3:][:n], w[2], w[3], set) }},
	}
	for _, k := range kernels {
		got, want := slices.Clone(buf), slices.Clone(buf)
		k.run(&asmImpl, got)
		k.run(&goImpl, want)
		for i := range want {
			g, x := got[i], want[i]
			if math.Float64bits(real(g)) != math.Float64bits(real(x)) || math.Float64bits(imag(g)) != math.Float64bits(imag(x)) {
				t.Fatalf("%s n=%d off=%d h=%d shape=%d w=%v set=%v: element %d is %v, the Go kernel gives %v",
					k.name, n, off, h, shape, w, set, i, g, x)
			}
		}
	}
}
