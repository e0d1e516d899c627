package serve

import (
	"encoding/json"
	"fmt"
	"math/cmplx"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"flatdd/internal/core"
	"flatdd/internal/dmav"
	"flatdd/internal/obs"
)

// SubmitRequest is the JSON body of POST /v1/jobs. Exactly one of QASM
// (an OpenQASM 2.0 source) and Circuit (a workloads registry name, with
// N and Seed) must be set.
type SubmitRequest struct {
	QASM    string `json:"qasm,omitempty"`
	Circuit string `json:"circuit,omitempty"`
	N       int    `json:"n,omitempty"`
	Seed    int64  `json:"seed,omitempty"`

	// TimeoutMS is the per-job deadline in milliseconds (0 = server
	// default; capped at the server maximum). The deadline rides on the
	// job's context straight into core.RunContext.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Shots samples this many measurement shots into the result.
	Shots int `json:"shots,omitempty"`
	// Top is how many largest-magnitude amplitudes the result carries
	// (default 8, capped at 1024).
	Top int `json:"top,omitempty"`
	// Cache (auto|always|never) and Fusion (none|dmav|kops) mirror the
	// flatdd CLI flags.
	Cache  string `json:"cache,omitempty"`
	Fusion string `json:"fusion,omitempty"`
}

// JobView is the wire form of a job's status.
type JobView struct {
	ID      string `json:"id"`
	Trace   string `json:"trace,omitempty"` // trace ID; key into /debug/jobs?id=
	State   string `json:"state"`
	Tenant  string `json:"tenant"`          // submitting tenant (X-Tenant header; "anon" default)
	Cache   string `json:"cache,omitempty"` // admission disposition: hit | miss | coalesced
	Circuit string `json:"circuit"`
	Qubits  int    `json:"qubits"`
	Gates   int    `json:"gates"`
	// Replica is the serve replica executing the job. A single-process
	// server leaves it empty; the cluster coordinator fills it in when
	// proxying views, so clients and the bench harness can attribute
	// latency per replica.
	Replica string `json:"replica,omitempty"`

	SubmittedAt   time.Time  `json:"submitted_at"`
	StartedAt     *time.Time `json:"started_at,omitempty"`
	FinishedAt    *time.Time `json:"finished_at,omitempty"`
	Error         string     `json:"error,omitempty"`
	Reason        string     `json:"reason,omitempty"`         // failure classification (failed jobs)
	Attempts      int        `json:"attempts,omitempty"`       // >1 when transient faults were retried
	QueuePosition int        `json:"queue_position,omitempty"` // 1-based estimate; queued non-coalesced jobs only
}

// JobList is the wire form of GET /v1/jobs: one page of job views,
// newest first, plus the cursor of the next page ("" on the last page).
type JobList struct {
	Jobs       []JobView `json:"jobs"`
	NextCursor string    `json:"next_cursor,omitempty"`
}

// AmpView is one basis state of the result's top-amplitude list.
type AmpView struct {
	Basis       string  `json:"basis"` // zero-padded bitstring
	Probability float64 `json:"probability"`
	Re          float64 `json:"re"`
	Im          float64 `json:"im"`
}

// ResultStats is the engine-statistics slice of a result.
type ResultStats struct {
	Gates           int     `json:"gates"`
	ConvertedAtGate int     `json:"converted_at_gate"` // -1: never left the DD phase
	FinalPhase      string  `json:"final_phase"`       // "dd" | "dmav"
	TotalMS         float64 `json:"total_ms"`
	DDMS            float64 `json:"dd_ms"`
	ConversionMS    float64 `json:"conversion_ms"`
	DMAVMS          float64 `json:"dmav_ms"`
	PeakDDNodes     int     `json:"peak_dd_nodes"`
	MemoryBytes     uint64  `json:"memory_bytes"`
	// Fidelity is always 1: the engine simulates exactly. It stays in the
	// v1 wire form for clients that read it.
	Fidelity float64 `json:"fidelity"`
	// Degraded reports that the engine stayed in the (slower but correct)
	// DD phase instead of converting — e.g. the flat working set would
	// have exceeded the engine memory budget.
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedReason string `json:"degraded_reason,omitempty"`
	// Resources is the job's per-phase resource-ledger snapshot: CPU time,
	// allocation deltas and memory high-water per engine phase.
	Resources *obs.LedgerSnapshot `json:"resources,omitempty"`
}

// JobResult is the wire form of GET /v1/jobs/{id}/result.
type JobResult struct {
	ID      string         `json:"id"`
	Circuit string         `json:"circuit"`
	Tenant  string         `json:"tenant"`
	Cache   string         `json:"cache,omitempty"` // hit | miss | coalesced
	Stats   ResultStats    `json:"stats"`
	Top     []AmpView      `json:"top_amplitudes"`
	Shots   map[string]int `json:"shots,omitempty"`
}

// resultStats renders the engine statistics of a finished run.
func resultStats(st core.Stats) ResultStats {
	phase := core.PhaseDD
	if st.ConvertedAtGate >= 0 {
		phase = core.PhaseDMAV
	}
	return ResultStats{
		Gates:           st.Gates,
		ConvertedAtGate: st.ConvertedAtGate,
		FinalPhase:      phase.String(),
		TotalMS:         float64(st.TotalTime) / float64(time.Millisecond),
		DDMS:            float64(st.DDTime) / float64(time.Millisecond),
		ConversionMS:    float64(st.ConversionTime) / float64(time.Millisecond),
		DMAVMS:          float64(st.DMAVTime) / float64(time.Millisecond),
		PeakDDNodes:     st.PeakDDNodes,
		MemoryBytes:     st.MemoryBytes,
		Fidelity:        1,
		Degraded:        st.Degraded,
		DegradedReason:  st.DegradedReason,
		Resources:       st.Resources,
	}
}

// buildResult assembles the result payload from a finished simulator.
func buildResult(j *job, sim *core.Simulator, st core.Stats) *JobResult {
	n := j.circ.Qubits
	top := make([]AmpView, 0, j.opts.top)
	for _, e := range sim.TopAmplitudes(j.opts.top) {
		a := e.Amplitude
		top = append(top, AmpView{
			Basis:       fmt.Sprintf("%0*b", n, e.Index),
			Probability: cmplx.Abs(a) * cmplx.Abs(a),
			Re:          real(a),
			Im:          imag(a),
		})
	}
	return &JobResult{
		ID:      j.id,
		Circuit: j.circ.Name,
		Tenant:  j.tenant,
		Cache:   j.cacheStatus,
		Stats:   resultStats(st),
		Top:     top,
		Shots:   sampleShots(sim, n, j.opts.shots, j.opts.seed),
	}
}

// viewLocked renders a job's status. Caller holds s.mu.
func (s *Server) viewLocked(j *job) JobView {
	v := JobView{
		ID:          j.id,
		Trace:       j.span.Trace().String(),
		State:       j.state,
		Tenant:      j.tenant,
		Cache:       j.cacheStatus,
		Circuit:     j.circ.Name,
		Qubits:      j.circ.Qubits,
		Gates:       j.circ.GateCount(),
		SubmittedAt: j.submitted,
		Error:       j.errMsg,
		Reason:      j.reason,
		Attempts:    j.attempts,
	}
	if !j.started.IsZero() {
		t := j.started
		v.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.FinishedAt = &t
	}
	// Queue position is a submission-order estimate: the round-robin
	// queue may dispatch across tenants in a different order. Coalesced
	// subscribers are not in the queue at all.
	if j.state == StateQueued && j.cacheStatus != CacheCoalesced {
		v.QueuePosition = 1 + s.fq.Ahead(j)
	}
	return v
}

// Handler returns the service's HTTP mux:
//
//	POST   /v1/jobs             — submit (SubmitRequest → JobView; 202, or
//	                              200 replaying an Idempotency-Key)
//	GET    /v1/jobs             — list (JobList, newest first; ?state= and
//	                              ?tenant= filter, ?limit= and ?cursor= paginate)
//	GET    /v1/jobs/{id}        — status
//	GET    /v1/jobs/{id}/result — result of a done job
//	DELETE /v1/jobs/{id}        — cancel (POST /v1/jobs/{id}/cancel works too)
//	GET    /v1/tenants          — per-tenant accounting: queue/running state,
//	                              limits, cache hit/coalesce/miss counts
//	GET    /healthz             — liveness, capacity, uptime, latency SLOs,
//	                              result-cache occupancy
//	GET    /debug/jobs          — flight recorder: last N job span trees (?id= for one)
//	GET    /debug/ledger        — memory-admission ledger: budget, reservations,
//	                              observed footprints, per-job resource costs
//	/debug/*                    — metrics, expvar, pprof (internal/obs);
//	                              /debug/metrics?format=prometheus for text exposition
//
// Tenancy: requests carry their tenant in the X-Tenant header (default
// "anon"). POST /v1/jobs additionally accepts an Idempotency-Key header —
// resubmitting with the same key returns the original job (200, header
// Idempotency-Replayed: true) instead of admitting a duplicate, and a
// key reuse with a different request body is a 409/idempotency_mismatch.
// A key replays only while its job is retained (the last MaxRetainedJobs
// terminal jobs plus every live one); so does GET /v1/jobs/{id}, which
// answers 404 for an evicted job.
//
// Every non-2xx response body is the structured envelope of errors.go:
// {"error":{"code","message","reason","retry_after_ms"}} with code one of
// invalid_request (400), not_found (404), conflict (409),
// payload_too_large (413), rate_limited (429), internal (500),
// unavailable (503).
//
// POST /v1/jobs accepts a W3C `traceparent` header and returns one: the
// job's span tree continues the caller's trace (a fresh trace is minted
// otherwise), and the response JobView carries the trace ID.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /v1/tenants", s.handleTenants)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.Handle("GET /debug/jobs", s.flight.Handler())
	mux.HandleFunc("GET /debug/ledger", s.handleLedger)
	mux.Handle("/debug/", obs.Mux(s.reg))
	return mux
}

// LedgerEntry is one job's row in the /debug/ledger view.
type LedgerEntry struct {
	ID      string `json:"id"`
	State   string `json:"state"`
	Circuit string `json:"circuit"`
	Qubits  int    `json:"qubits"`
	// ReservedBytes is the job's live reservation against the process
	// budget (running jobs only); ObservedBytes its last ledger-reported
	// footprint.
	ReservedBytes uint64 `json:"reserved_bytes,omitempty"`
	ObservedBytes uint64 `json:"observed_bytes,omitempty"`
	// Resources is the per-phase cost breakdown: live for running jobs,
	// frozen at finish for terminal ones.
	Resources *obs.LedgerSnapshot `json:"resources,omitempty"`
}

// handleLedger serves the process-wide memory-admission view: the
// budget, the reserved-vs-observed split, high-water marks, and a
// per-job cost breakdown.
func (s *Server) handleLedger(w http.ResponseWriter, _ *http.Request) {
	type row struct {
		entry LedgerEntry
		led   *obs.ResourceLedger // snapshot off-lock for running jobs
	}
	s.mu.Lock()
	var observed uint64
	rows := make([]row, 0, len(s.order))
	for _, id := range s.order {
		j := s.jobs[id]
		if j == nil {
			continue // evicted
		}
		e := LedgerEntry{
			ID:            j.id,
			State:         j.state,
			Circuit:       j.circ.Name,
			Qubits:        j.circ.Qubits,
			ReservedBytes: j.reserve,
			ObservedBytes: j.observed,
			Resources:     j.resources,
		}
		r := row{entry: e}
		if j.state == StateRunning {
			observed += j.observed
			r.led = j.ledger
		}
		rows = append(rows, r)
	}
	body := map[string]any{
		"budget_bytes":        s.cfg.MemoryBudget,
		"reserved_bytes":      s.memReserved,
		"observed_bytes":      observed,
		"headroom_bytes":      s.met.memHeadroom.Value(),
		"observed_peak_bytes": s.met.memPeak.Value(),
		"running_peak":        s.met.runningPeak.Value(),
	}
	s.mu.Unlock()
	// Live snapshots sample runtime/metrics — taken off the server lock.
	entries := make([]LedgerEntry, len(rows))
	for i, r := range rows {
		entries[i] = r.entry
		if r.led != nil {
			snap := r.led.Snapshot()
			entries[i].Resources = &snap
		}
	}
	body["jobs"] = entries
	writeJSON(w, http.StatusOK, body)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	// Encode before WriteHeader: once the status line is on the wire it
	// cannot be taken back, so a value that fails to marshal must turn
	// into a 500 *before* the success status is committed.
	b, err := json.MarshalIndent(v, "", "  ")
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	if err != nil {
		// Hand-rolled envelope: ErrorEnvelope itself always marshals, but
		// this path must not recurse into the encoder that just failed.
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprintf(w, "{\n  \"error\": {\n    \"code\": %q,\n    \"message\": %q\n  }\n}\n",
			CodeInternal, "encode response: "+err.Error())
		return
	}
	w.WriteHeader(status)
	w.Write(append(b, '\n')) //nolint:errcheck // best-effort HTTP write
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	tenant, terr := tenantFromRequest(r)
	if terr != nil {
		s.met.rejectInvalid.Inc()
		WriteError(w, http.StatusBadRequest, terr.Error(), "invalid_tenant", 0)
		return
	}
	var req SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.met.rejectInvalid.Inc()
		WriteError(w, http.StatusBadRequest, "bad request body: "+err.Error(), "invalid", 0)
		return
	}
	j, v, replayed, aerr := s.submit(&req, r.Header.Get("traceparent"), tenant,
		r.Header.Get("Idempotency-Key"))
	if aerr != nil {
		WriteError(w, aerr.status, aerr.msg, aerr.reason, aerr.retryAfter)
		return
	}
	// Hand the caller its trace context back: the trace it sent (now
	// continued by the job's span tree) or the one minted here.
	w.Header().Set("traceparent", obs.TraceParent(j.span.Trace(), j.span.ID()))
	status := http.StatusAccepted
	if replayed {
		// An idempotent replay did not admit anything new: 200, flagged.
		w.Header().Set("Idempotency-Replayed", "true")
		status = http.StatusOK
	}
	writeJSON(w, status, v)
}

// listDefaultLimit and listMaxLimit bound GET /v1/jobs pages.
const (
	listDefaultLimit = 100
	listMaxLimit     = 1000
)

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	stateFilter := q.Get("state")
	tenantFilter := q.Get("tenant")
	limit := listDefaultLimit
	if raw := q.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 {
			WriteError(w, http.StatusBadRequest,
				"limit must be a positive integer", "invalid", 0)
			return
		}
		limit = n
		if limit > listMaxLimit {
			limit = listMaxLimit
		}
	}
	cursor := q.Get("cursor")

	s.mu.Lock()
	// Newest first over the submission order; the cursor is the last job
	// id of the previous page, so a page boundary stays stable while new
	// jobs arrive (they appear before the cursor and are simply not part
	// of an older listing's continuation). IDs are issued in submission
	// order, so the page resumes at the newest job issued before the
	// cursor, whether or not the cursor's own job has since been evicted.
	start := len(s.order) - 1
	if cursor != "" {
		seq, ok := s.jobSeq(cursor)
		if !ok || seq > s.nextID {
			s.mu.Unlock()
			WriteError(w, http.StatusBadRequest,
				fmt.Sprintf("unknown cursor %q", cursor), "invalid_cursor", 0)
			return
		}
		start = sort.Search(len(s.order), func(i int) bool {
			n, _ := s.jobSeq(s.order[i])
			return n >= seq
		}) - 1
	}
	out := JobList{Jobs: []JobView{}}
	for i := start; i >= 0; i-- {
		j := s.jobs[s.order[i]]
		if j == nil {
			continue // evicted
		}
		if stateFilter != "" && j.state != stateFilter {
			continue
		}
		if tenantFilter != "" && j.tenant != tenantFilter {
			continue
		}
		if len(out.Jobs) == limit {
			// One more match exists beyond the page: resume after the last
			// job actually returned.
			out.NextCursor = out.Jobs[len(out.Jobs)-1].ID
			break
		}
		out.Jobs = append(out.Jobs, s.viewLocked(j))
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

// handleTenants serves the per-tenant accounting view.
func (s *Server) handleTenants(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"tenants": s.Tenants()})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	if !ok {
		s.mu.Unlock()
		WriteError(w, http.StatusNotFound, "no such job", "unknown_job", 0)
		return
	}
	v := s.viewLocked(j)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	if !ok {
		s.mu.Unlock()
		WriteError(w, http.StatusNotFound, "no such job", "unknown_job", 0)
		return
	}
	state, errMsg, res := j.state, j.errMsg, j.result
	s.mu.Unlock()
	switch state {
	case StateDone:
		writeJSON(w, http.StatusOK, res)
	case StateQueued, StateRunning:
		WriteError(w, http.StatusConflict,
			fmt.Sprintf("job is %s; retry later", state), "not_ready", 1)
	default: // failed | canceled
		WriteError(w, http.StatusConflict,
			fmt.Sprintf("job %s: %s", state, errMsg), "job_"+state, 0)
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, canceled := s.cancelLocked(r.PathValue("id"))
	var v JobView
	if canceled {
		v = s.viewLocked(j)
	}
	s.mu.Unlock()
	switch {
	case j == nil:
		WriteError(w, http.StatusNotFound, "no such job", "unknown_job", 0)
	case !canceled:
		WriteError(w, http.StatusConflict, "job already finished", "job_finished", 0)
	default:
		writeJSON(w, http.StatusOK, v)
	}
}

// latencyView renders one histogram snapshot's tail-latency summary for
// /healthz.
func latencyView(snap obs.HistogramSnapshot) map[string]any {
	return map[string]any{
		"count": snap.Count,
		"p50":   snap.Quantile(0.50),
		"p95":   snap.Quantile(0.95),
		"p99":   snap.Quantile(0.99),
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	status := "ok"
	if s.draining {
		status = "draining"
	}
	hits, misses := s.met.cacheHits.Value(), s.met.cacheMisses.Value()
	coal := s.met.cacheCoalesced.Value()
	hitRate := 0.0
	if total := hits + coal + misses; total > 0 {
		// Coalesced submissions count as absorbed work: they did not run
		// the engine either.
		hitRate = float64(hits+coal) / float64(total)
	}
	entries, bytes, evictions := s.cache.Stats()
	body := map[string]any{
		"status":   status,
		"uptime_s": time.Since(s.started).Seconds(),
		"queued":   len(s.jobs) - len(s.running) - len(s.terminal),
		"running":  len(s.running),
		"degraded": s.met.degraded.Value(),
		"retried":  s.met.retried.Value(),
		"faults":   s.met.faults.Value(),
		"tenants":  len(s.tenants),
		"capacity": map[string]any{
			"queue_depth":         s.cfg.QueueDepth,
			"max_inflight":        s.cfg.MaxInFlight,
			"memory_budget_bytes": s.cfg.MemoryBudget,
			"max_qubits":          dmav.MaxQubits,
			"tenant_max_queued":   s.cfg.QueueDepth,
			"tenant_max_inflight": s.cfg.MaxInFlight,
		},
		"cache": map[string]any{
			"enabled":      s.cache.enabled(),
			"budget_bytes": s.cfg.ResultCacheBudget,
			"entries":      entries,
			"bytes":        bytes,
			"evictions":    evictions,
			"hits":         hits,
			"misses":       misses,
			"coalesced":    coal,
			"hit_rate":     hitRate,
		},
		// Quantiles come from the windowed (recent-traffic) histograms, so
		// a deploy's regression shows within one window instead of being
		// averaged into the process's whole history; the cumulative
		// Prometheus series keep the full history.
		"latency": map[string]any{
			"queue_wait_ns": latencyView(s.wQueueWait.Snapshot()),
			"run_ns":        latencyView(s.wRun.Snapshot()),
			"e2e_ns":        latencyView(s.wLatency.Snapshot()),
		},
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, body)
}

// jobSeq parses the sequence number of a job ID this server issued
// ("j-<prefix>-000042" → 42); an ID with another server's prefix does not
// parse.
func (s *Server) jobSeq(id string) (int, bool) {
	digits, ok := strings.CutPrefix(id, s.idPrefix)
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(digits)
	return n, err == nil && n > 0
}
