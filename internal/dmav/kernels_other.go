//go:build !amd64 || purego

package dmav

// This build has no assembly: the kernel table runs its Go loops, and the
// AVX2 names below exist only so that the table compiles.
const haveAsm = false

var useAsm = false

const noAsm = "dmav: no assembly kernels in this build"

func pairAVX2([]complex128, []complex128, int, int, int, *[4]complex128)              { panic(noAsm) }
func pairAdjAVX2([]complex128, *[4]complex128)                                        { panic(noAsm) }
func swapPhaseAVX2([]complex128, []complex128, int, int, int, complex128, complex128) { panic(noAsm) }
func scaleAVX2([]complex128, []complex128, int, int, int, complex128)                 { panic(noAsm) }
func axpyAVX2([]complex128, []complex128, complex128)                                 { panic(noAsm) }
func addAVX2([]complex128, []complex128)                                              { panic(noAsm) }
func rowAVX2([]complex128, []complex128, []complex128, complex128, complex128, bool)  { panic(noAsm) }
