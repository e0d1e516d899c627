package dmav

import "testing"

// HasAsmKernels reports whether this build and CPU run the assembly
// bodies of the kernel table.
func HasAsmKernels() bool { return haveAsm }

// UseGoKernels runs the package on the Go loops until t ends. useAsm is
// package state: no engine may run meanwhile.
func UseGoKernels(t testing.TB) {
	useAsm = false
	t.Cleanup(func() { useAsm = haveAsm })
}
