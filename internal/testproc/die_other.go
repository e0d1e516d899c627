//go:build !linux

package testproc

import "os/exec"

// dieWithParent is a no-op where the kernel offers no parent-death
// signal; the t.Cleanup kill remains the only teardown there.
func dieWithParent(*exec.Cmd) {}
