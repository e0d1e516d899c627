//go:build amd64 && !purego

package dmav

// haveAsm reports AVX2 on this CPU, with the YMM registers saved by the
// OS; useAsm selects the AVX2 bodies of the kernel table (kernels.go).
var (
	haveAsm = hasAVX2()
	useAsm  = haveAsm
)

// hasAVX2 reports AVX2 (CPUID leaf 7) with the XMM and YMM state enabled
// by the OS (OSXSAVE, then XCR0 bits 1 and 2).
func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 || c&avx == 0 || xgetbv()&6 != 6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0
}

func cpuid(leaf, sub uint32) (a, b, c, d uint32)
func xgetbv() (a uint32)

//go:noescape
func pairAVX2(v0, v1 []complex128, nb, sb, na int, w *[4]complex128)

//go:noescape
func pairAdjAVX2(v []complex128, w *[4]complex128)

//go:noescape
func swapPhaseAVX2(v0, v1 []complex128, nb, sb, na int, w0, w1 complex128)

//go:noescape
func scaleAVX2(dst, src []complex128, nb, sb, na int, w complex128)

//go:noescape
func axpyAVX2(dst, src []complex128, w complex128)

//go:noescape
func addAVX2(dst, src []complex128)

//go:noescape
func rowAVX2(dst, x, y []complex128, a, b complex128, set bool)
