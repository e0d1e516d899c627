package serve

import (
	"net/http"
	"strconv"
)

// Every non-2xx response of the v1 API is one structured envelope:
//
//	{"error": {"code": "...", "message": "...", "reason": "...",
//	           "retry_after_ms": 1000}}
//
// Code is a closed enum keyed by status class (the Code* constants) —
// clients switch on it; Reason is the open, fine-grained cause — clients
// log it. The server emits these reasons:
//
//	400 invalid, invalid_tenant, invalid_cursor
//	404 unknown_job (never submitted, or evicted after retention)
//	409 idempotency_mismatch, not_ready, job_failed, job_canceled, job_finished
//	413 qubit_cap (wider than dmav.MaxQubits), memory_budget
//	429 queue_full, coalesce_limit
//	503 draining
//
// RetryAfterMS mirrors the Retry-After header on retryable rejections
// (429/503, and not_ready).

// Error codes of the v1 API, by the status they accompany.
const (
	CodeInvalidRequest  = "invalid_request"   // 400
	CodeNotFound        = "not_found"         // 404
	CodeConflict        = "conflict"          // 409
	CodePayloadTooLarge = "payload_too_large" // 413
	CodeRateLimited     = "rate_limited"      // 429
	CodeInternal        = "internal"          // 500
	CodeUnavailable     = "unavailable"       // 503
)

// ErrorInfo is the body of the error envelope.
type ErrorInfo struct {
	Code         string `json:"code"`
	Message      string `json:"message"`
	Reason       string `json:"reason,omitempty"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

// ErrorEnvelope is the JSON shape of every non-2xx v1 response.
type ErrorEnvelope struct {
	Error ErrorInfo `json:"error"`
}

// codeForStatus maps an HTTP status to its envelope code.
func codeForStatus(status int) string {
	switch status {
	case http.StatusNotFound:
		return CodeNotFound
	case http.StatusConflict:
		return CodeConflict
	case http.StatusRequestEntityTooLarge:
		return CodePayloadTooLarge
	case http.StatusTooManyRequests:
		return CodeRateLimited
	case http.StatusServiceUnavailable:
		return CodeUnavailable
	}
	if status >= 500 {
		return CodeInternal
	}
	return CodeInvalidRequest
}

// WriteError emits the envelope (and the Retry-After header when a
// retry hint is given, in whole seconds as HTTP requires). The code is
// derived from the status, so any handler that fronts this API — the
// server itself or the cluster coordinator relaying a replica's
// rejection — produces the same envelope for the same status.
func WriteError(w http.ResponseWriter, status int, msg, reason string, retryAfterSec int) {
	info := ErrorInfo{
		Code:    codeForStatus(status),
		Message: msg,
		Reason:  reason,
	}
	if retryAfterSec > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSec))
		info.RetryAfterMS = int64(retryAfterSec) * 1000
	}
	writeJSON(w, status, ErrorEnvelope{Error: info})
}
