package testproc

import (
	"os/exec"
	"syscall"
)

// dieWithParent asks the kernel to SIGKILL the child when the thread that
// started it exits — in practice, when the test binary dies, however that
// happens.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
