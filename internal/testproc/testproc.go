// Package testproc starts the helper processes of the multi-process smoke
// tests (cmd/flatdd-serve, cmd/flatdd-coord) so that none can outlive the
// test binary: a deferred or t.Cleanup Kill alone never runs when
// `go test -timeout` or an outer kill ends the test process, and the
// servers it started would then live forever.
package testproc

import (
	"os/exec"
	"sync"
	"testing"
)

// Proc is a started child process. Wait may be called any number of
// times, from any goroutine; every call returns the one exit status.
type Proc struct {
	*exec.Cmd
	once sync.Once
	err  error
}

// Start starts cmd so that it dies with the test process (where the
// platform can arrange that — see dieWithParent) and is killed and reaped
// when the test ends. Set up the command's pipes before calling it.
func Start(t testing.TB, cmd *exec.Cmd) *Proc {
	t.Helper()
	dieWithParent(cmd)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &Proc{Cmd: cmd}
	t.Cleanup(func() {
		p.Process.Kill() //nolint:errcheck // already exited on the happy path
		p.Wait()         //nolint:errcheck // reaping only
	})
	return p
}

// Wait waits for the process to exit and returns its status, as
// exec.Cmd.Wait does on its first call.
func (p *Proc) Wait() error {
	p.once.Do(func() { p.err = p.Cmd.Wait() })
	return p.err
}
