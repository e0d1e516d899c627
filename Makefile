GO ?= go

# staticcheck is optional but pinned: when the binary is on PATH it must
# be this version, so two machines never disagree about what `make
# check` enforces. Install with:
#   go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
STATICCHECK ?= staticcheck
STATICCHECK_VERSION ?= 2025.1

.PHONY: build test check staticcheck faults fuzz serve-smoke chaos trace-schema bench-obs csv

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the pre-commit gate: gofmt cleanliness (bench/ excluded, it
# is frozen with the benchmark), full vet (its asmdecl check covers
# internal/dmav's assembly), an arm64 build and a purego vet and test of
# the engine packages (the Go kernel table, with no assembly), the race
# detector over the whole module in short mode (the sched pool, DMAV
# workers, conversion tasks, and the obs registry all run concurrently,
# and core's share-nothing test runs one dd.Manager per goroutine against
# a shared pool and registry; short mode keeps the differential and
# stress suites at their quick defaults).
check:
	@out=$$(gofmt -l $$(find . -path ./bench -prune -o -name '*.go' -print)); \
	if [ -n "$$out" ]; then echo "gofmt -l reports unformatted files:" >&2; echo "$$out" >&2; exit 1; fi
	$(GO) vet ./...
	GOARCH=arm64 $(GO) build ./...
	$(GO) vet -tags purego ./...
	$(MAKE) staticcheck
	$(GO) test -race -short ./...
	$(GO) test -tags purego -short ./internal/dmav/... ./internal/core/... ./internal/difftest/...
	$(MAKE) faults
	$(MAKE) chaos
	$(MAKE) serve-smoke
	$(MAKE) trace-schema

# staticcheck is presence-gated: boxes without the binary (hermetic CI
# images, fresh clones) skip it with a note instead of failing, and a
# wrong version fails loudly rather than enforcing a different rule set.
# The check allowlist lives in staticcheck.conf at the repo root
# (staticcheck reads it automatically); suppress a finding by narrowing
# that file, never by sprinkling //lint:ignore in code.
staticcheck:
	@if command -v $(STATICCHECK) >/dev/null 2>&1; then \
		got=$$($(STATICCHECK) -version 2>/dev/null); \
		case "$$got" in \
		*"$(STATICCHECK_VERSION)"*) $(STATICCHECK) ./... ;; \
		*) echo "staticcheck: have '$$got', want $(STATICCHECK_VERSION); refusing to run a drifted linter" >&2; exit 1 ;; \
		esac; \
	else \
		echo "staticcheck: not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

# faults runs the fault-injection and graceful-degradation suites under
# the race detector: contained worker panics (sched, core, serve),
# budget- and allocation-driven DD-only degradation, numerical-integrity
# aborts, the serve retry/backoff path, and a cancel landing during
# in-place DMAV gates on the pool (dmav). These overlap -short above
# only partially (count=1 defeats the test cache so injected faults
# always re-fire).
faults:
	$(GO) test -race -count=1 ./internal/faults/...
	$(GO) test -race -count=1 -run 'Fault|Degraded|Drift|TaskPanic' \
		./internal/sched/... ./internal/dmav/... ./internal/core/... ./internal/serve/...

# serve-smoke builds the flatdd-serve and flatdd-coord binaries
# race-enabled and drives them end to end over HTTP: admission control
# (413 over budget), bell + randct jobs to completion, client
# cancellation of a running QV job, the in-flight cap under concurrent
# submits, SIGTERM drains to exit 0, and — through the coordinator — a
# two-replica cluster with hash-routed cache locality, a replica kill
# surfacing in /healthz membership, and post-failover serving.
serve-smoke:
	$(GO) test -race -run TestServeSmoke -count=1 ./cmd/flatdd-serve
	$(GO) test -race -run TestCoordSmoke -count=1 ./cmd/flatdd-coord

# chaos runs the cluster chaos suite under the race detector: a
# three-replica in-process fleet behind the coordinator with seeded
# fault injection (replica down, RPC timeout, slow RPC) — kill/revive
# mid-burst with zero lost acknowledged jobs, the prober as the one
# failure detector, retries through an RPC brown-out, terminal views
# served through a total outage, jobs their replica retired, the bounded
# job table, and a seeded churn of submits, cancels, kills and revivals.
# The seed comes from FLATDD_CHAOS_SEED (default 1) so failures replay
# exactly; -timeout bounds the whole suite well under the per-test waits.
chaos:
	FLATDD_CHAOS_SEED=$${FLATDD_CHAOS_SEED:-1} $(GO) test -race -count=1 -timeout 300s ./internal/cluster/

# trace-schema pins the span JSONL wire format (the golden file under
# internal/obs/testdata) and the TraceWriter's sticky-error contract:
# external consumers parse the stream, so a field rename is a breaking
# change this target catches. Regenerate deliberately with
# UPDATE_SPAN_GOLDEN=1 go test ./internal/obs -run SpanSchemaGolden.
trace-schema:
	$(GO) test -count=1 -run 'SpanSchemaGolden|TraceWriterSticky' ./internal/obs

# fuzz runs three fuzzers for a bounded slice of time each: the OpenQASM
# parser, seeded from internal/qasm/testdata/fuzz, the dense block
# product against DD matrix-matrix multiplication (internal/block), and
# the DMAV assembly kernels against their Go twins, bit for bit. A
# crasher is written to the package's testdata/fuzz directory and replays
# as a regular test case on the next `go test`.
fuzz:
	$(GO) test -run NoSuchTest -fuzz FuzzParse -fuzztime 10s ./internal/qasm
	$(GO) test -run NoSuchTest -fuzz FuzzComposeBlocks -fuzztime 10s ./internal/block
	$(GO) test -run NoSuchTest -fuzz FuzzKernels -fuzztime 10s ./internal/dmav

# bench-obs reproduces the instrumentation-overhead numbers recorded in
# EXPERIMENTS.md (run several times and compare pairs; the signal is
# smaller than machine noise on a loaded box).
bench-obs:
	$(GO) test -run xxx -bench ObsOverhead -benchtime 2s -count 3 .

csv:
	$(GO) run ./cmd/flatdd-bench -exp all -csv out/csv
