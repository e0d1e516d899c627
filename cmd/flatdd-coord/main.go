// Command flatdd-coord fronts a fleet of flatdd-serve replicas with the
// fault-tolerant cluster coordinator: consistent-hash routing on the
// canonical circuit hash (cache locality per replica), health-checked
// membership (alive → suspect → dead, the one failure detector),
// capped-backoff retries, and failover re-submission of unacknowledged
// jobs under idempotency keys when a replica dies. The probe period is
// the one tunable; the retry budget, timeouts and thresholds are
// constants of internal/cluster.
//
//	flatdd-serve -listen 127.0.0.1:8081 &
//	flatdd-serve -listen 127.0.0.1:8082 &
//	flatdd-coord -listen :8080 -replicas a=http://127.0.0.1:8081,b=http://127.0.0.1:8082
//
//	curl -s localhost:8080/v1/jobs -d '{"circuit":"ghz","n":20}'
//	curl -s localhost:8080/v1/jobs/cj-000001
//	curl -s localhost:8080/healthz
//
// The coordinator exposes the same v1 job API as a single replica, so
// clients switch between them by changing the base URL only.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"flatdd/internal/cluster"
	"flatdd/internal/obs"
)

func main() {
	var (
		listen     = flag.String("listen", ":8080", "HTTP listen address (e.g. :8080, 127.0.0.1:0)")
		replicas   = flag.String("replicas", "", "comma-separated replica fleet, name=url pairs (e.g. a=http://127.0.0.1:8081,b=http://127.0.0.1:8082)")
		probeEvery = flag.Duration("probe-interval", 2*time.Second, "health-probe period")
		logFormat  = flag.String("log-format", "text", "log format on stderr: text, json, or off")
	)
	flag.Parse()

	fleet, err := parseReplicas(*replicas)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flatdd-coord:", err)
		os.Exit(2)
	}
	var logger *slog.Logger
	switch *logFormat {
	case "text":
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	case "json":
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	case "off":
		logger = slog.New(slog.DiscardHandler)
	default:
		fmt.Fprintf(os.Stderr, "flatdd-coord: unknown -log-format %q (want text, json, or off)\n", *logFormat)
		os.Exit(2)
	}

	coord, err := cluster.New(cluster.Config{
		Replicas:      fleet,
		ProbeInterval: *probeEvery,
		Metrics:       obs.New(),
		Logger:        logger,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "flatdd-coord:", err)
		os.Exit(2)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flatdd-coord:", err)
		os.Exit(1)
	}
	httpSrv := &http.Server{Handler: coord.Handler()}
	go httpSrv.Serve(ln) //nolint:errcheck // ErrServerClosed after Close
	fmt.Printf("flatdd-coord listening on http://%s (%d replicas, probe %s)\n",
		ln.Addr(), len(fleet), *probeEvery)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("flatdd-coord: stopping...")
	coord.Shutdown()
	httpSrv.Close() //nolint:errcheck // process is exiting
	fmt.Println("flatdd-coord: stopped, exiting")
}

// parseReplicas parses "a=http://h1,b=http://h2" into the fleet spec.
func parseReplicas(s string) ([]cluster.ReplicaSpec, error) {
	if s == "" {
		return nil, fmt.Errorf("-replicas is required (name=url pairs, comma-separated)")
	}
	var out []cluster.ReplicaSpec
	for _, pair := range strings.Split(s, ",") {
		name, url, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("bad -replicas entry %q (want name=url)", pair)
		}
		out = append(out, cluster.ReplicaSpec{Name: name, URL: url})
	}
	return out, nil
}
