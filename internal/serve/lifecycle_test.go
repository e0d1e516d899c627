package serve_test

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"flatdd/internal/serve"
	"flatdd/internal/serve/client"
)

// TestShutdownReturnsGoroutinesToBaseline pins the server's lifecycle
// invariant: after jobs have completed, a running job was canceled, the
// listener and the client's idle connections are closed and Shutdown has
// returned, every goroutine the server started (runners, pool workers,
// per-job watchers) has exited.
func TestShutdownReturnsGoroutinesToBaseline(t *testing.T) {
	base := runtime.NumGoroutine()

	srv := serve.New(serve.Config{Threads: 2})
	ts := httptest.NewServer(srv.Handler())
	tr := &http.Transport{}
	t.Cleanup(func() {
		ts.Close()
		tr.CloseIdleConnections()
		if !srv.Draining() {
			srv.Shutdown()
		}
	})
	h := &testServer{srv: srv, ts: ts, c: client.New(ts.URL, client.WithHTTPClient(&http.Client{Transport: tr})), t: t}

	for n := 4; n <= 6; n++ {
		v := h.submit(&serve.SubmitRequest{Circuit: "ghz", N: n})
		h.waitState(v.ID, serve.StateDone)
	}
	slow := h.submit(slowSubmit(1))
	h.waitState(slow.ID, serve.StateRunning, serve.StateDone)
	h.cancel(slow.ID)
	h.waitState(slow.ID, serve.StateCanceled, serve.StateDone)

	ts.Close()
	tr.CloseIdleConnections()
	srv.Shutdown()

	deadline := time.Now().Add(5 * time.Second)
	for {
		got := runtime.NumGoroutine()
		if got <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%d goroutines 5s after Shutdown, baseline %d; stacks:\n%s", got, base, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
