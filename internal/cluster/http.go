package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"flatdd/internal/obs"
	"flatdd/internal/serve"
	"flatdd/internal/serve/client"
)

// maxBodyBytes bounds coordinator submit bodies, mirroring the serve
// layer's default.
const maxBodyBytes = 1 << 20

// Handler returns the coordinator's HTTP mux. It mirrors the replica
// v1 surface — same routes, same JobView/JobList/TenantView bodies,
// same error envelope — so the typed client drives a coordinator and a
// single replica identically. Job ids are coordinator-scoped ("cj-...")
// and stable across failover; every view carries the executing replica
// in its Replica field.
//
//	POST   /v1/jobs             — route by canonical circuit hash, forward
//	GET    /v1/jobs             — cached views, newest first (?state=, ?tenant=, ?limit=)
//	GET    /v1/jobs/{id}        — live proxy, cached view when the replica is unreachable
//	GET    /v1/jobs/{id}/result — relay (cached byte-for-byte after first fetch); 409 job_<state> for failed/canceled
//	DELETE /v1/jobs/{id}        — cancel proxy; a job its replica forgot ends canceled
//	GET    /v1/tenants          — fleet-merged per-tenant accounting
//	GET    /healthz             — membership: per-replica state, probe counts, transitions
//	/debug/*                    — cluster.* metrics, expvar, pprof (internal/obs)
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", c.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", c.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", c.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", c.handleResult)
	mux.HandleFunc("DELETE /v1/jobs/{id}", c.handleCancel)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", c.handleCancel)
	mux.HandleFunc("GET /v1/tenants", c.handleTenants)
	mux.HandleFunc("GET /healthz", c.handleHealth)
	mux.Handle("/debug/", obs.Mux(c.reg))
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	if err != nil {
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprintf(w, "{\n  \"error\": {\n    \"code\": %q,\n    \"message\": %q\n  }\n}\n",
			serve.CodeInternal, "encode response: "+err.Error())
		return
	}
	w.WriteHeader(status)
	w.Write(append(b, '\n')) //nolint:errcheck // best-effort HTTP write
}

// writeAPIError relays an *APIError through the shared envelope writer,
// so a replica rejection crossing the coordinator keeps its status,
// code, reason and retry hint.
func writeAPIError(w http.ResponseWriter, e *client.APIError) {
	retrySec := 0
	if e.RetryAfter > 0 {
		retrySec = int((e.RetryAfter + time.Second - 1) / time.Second)
	}
	serve.WriteError(w, e.Status, e.Message, e.Reason, retrySec)
}

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	tenant := r.Header.Get(serve.TenantHeader)
	if tenant == "" {
		tenant = serve.DefaultTenant
	}
	var req serve.SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		serve.WriteError(w, http.StatusBadRequest, "bad request body: "+err.Error(), "invalid", 0)
		return
	}
	v, replayed, tp, err := c.Submit(&req, tenant, r.Header.Get("Idempotency-Key"),
		r.Header.Get("traceparent"))
	if err != nil {
		var apiErr *client.APIError
		if errors.As(err, &apiErr) {
			writeAPIError(w, apiErr)
			return
		}
		serve.WriteError(w, http.StatusInternalServerError, err.Error(), "internal", 0)
		return
	}
	if tp != "" {
		w.Header().Set("traceparent", tp)
	}
	status := http.StatusAccepted
	if replayed {
		w.Header().Set("Idempotency-Replayed", "true")
		status = http.StatusOK
	}
	writeJSON(w, status, v)
}

func (c *Coordinator) handleList(w http.ResponseWriter, r *http.Request) {
	limit := 0
	if s := r.URL.Query().Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			serve.WriteError(w, http.StatusBadRequest, "bad limit "+s, "invalid_limit", 0)
			return
		}
		limit = n
	}
	views := c.Jobs(r.URL.Query().Get("state"), r.URL.Query().Get("tenant"), limit)
	writeJSON(w, http.StatusOK, serve.JobList{Jobs: views})
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	v, ok := c.Job(r.PathValue("id"))
	if !ok {
		writeAPIError(w, errUnknownJob)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	body, apiErr := c.Result(r.PathValue("id"))
	if apiErr != nil {
		writeAPIError(w, apiErr)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write(body) //nolint:errcheck // best-effort HTTP write
}

func (c *Coordinator) handleCancel(w http.ResponseWriter, r *http.Request) {
	v, apiErr := c.Cancel(r.PathValue("id"))
	if apiErr != nil {
		writeAPIError(w, apiErr)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (c *Coordinator) handleTenants(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"tenants": c.Tenants()})
}

func (c *Coordinator) handleHealth(w http.ResponseWriter, _ *http.Request) {
	replicas := c.Membership()
	alive := 0
	for _, r := range replicas {
		if r.State != ReplicaDead {
			alive++
		}
	}
	status := "ok"
	code := http.StatusOK
	if alive == 0 {
		// No routable replicas: the coordinator is up but cannot serve.
		status = "unavailable"
		code = http.StatusServiceUnavailable
	}
	c.mu.Lock()
	jobs := len(c.jobs)
	c.mu.Unlock()
	writeJSON(w, code, map[string]any{
		"status":   status,
		"role":     "coordinator",
		"replicas": replicas,
		"alive":    alive,
		"jobs":     jobs,
	})
}
