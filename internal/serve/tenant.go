package serve

import (
	"fmt"
	"net/http"
	"slices"
	"strings"
)

// Tenant identity and accounting (DESIGN.md §13). A tenant is named by
// the X-Tenant request header; requests without one belong to the
// implicit tenant "anon". Tenants are not authenticated — the serve
// layer is an internal service and the header is a scheduling/accounting
// identity, not a security boundary.

// DefaultTenant is the identity of requests that carry no X-Tenant
// header.
const DefaultTenant = "anon"

// TenantHeader is the request header naming the submitting tenant.
const TenantHeader = "X-Tenant"

// maxTenantName bounds tenant identifiers; names are also restricted to
// [A-Za-z0-9._-] so they can appear verbatim in logs, metrics and URLs.
const maxTenantName = 64

// tenantFromRequest extracts and validates the tenant identity of a
// request. An invalid name is a 400: silently folding it into "anon"
// would mis-account the traffic.
func tenantFromRequest(r *http.Request) (string, error) {
	name := r.Header.Get(TenantHeader)
	if name == "" {
		return DefaultTenant, nil
	}
	if err := validateTenant(name); err != nil {
		return "", err
	}
	return name, nil
}

func validateTenant(name string) error {
	if len(name) > maxTenantName {
		return fmt.Errorf("tenant name longer than %d bytes", maxTenantName)
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("tenant name %q: only [A-Za-z0-9._-] allowed", name)
		}
	}
	return nil
}

// tenantStats is one tenant's cumulative accounting, guarded by
// Server.mu. Per-tenant numbers live here (bounded by the number of
// distinct tenants seen) rather than in the metrics registry, whose
// series names must stay a small fixed set.
type tenantStats struct {
	submitted int64
	completed int64
	failed    int64
	canceled  int64
	rejected  int64 // coalesce_limit rejections
	cacheHits int64
	coalesced int64
	misses    int64 // submissions that had to run the engine
}

// tenantLocked returns (creating if needed) a tenant's stats record.
// Caller holds s.mu.
func (s *Server) tenantLocked(name string) *tenantStats {
	t := s.tenants[name]
	if t == nil {
		t = &tenantStats{}
		s.tenants[name] = t
	}
	return t
}

// TenantView is one tenant's row in GET /v1/tenants. Dispatch is plain
// round-robin, so Weight is always 1 and the per-tenant limits are the
// server's: MaxQueued is QueueDepth and MaxInFlight is MaxInFlight.
type TenantView struct {
	Name    string `json:"name"`
	Weight  int    `json:"weight"`
	Queued  int    `json:"queued"`
	Running int    `json:"running"`

	Submitted int64 `json:"submitted"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed,omitempty"`
	Canceled  int64 `json:"canceled,omitempty"`
	Rejected  int64 `json:"rejected,omitempty"`

	// Cache disposition of this tenant's admitted submissions: hits were
	// served from the result cache, coalesced joined an in-flight
	// simulation, misses ran the engine.
	CacheHits int64 `json:"cache_hits"`
	Coalesced int64 `json:"coalesced"`
	Misses    int64 `json:"cache_misses"`

	// The limits this tenant is admitted under.
	MaxQueued   int `json:"max_queued"`
	MaxInFlight int `json:"max_inflight"`
}

// Tenants renders every tenant seen since startup, sorted by name.
func (s *Server) Tenants() []TenantView {
	s.mu.Lock()
	defer s.mu.Unlock()
	running := make(map[string]int)
	for _, j := range s.running {
		running[j.tenant]++
	}
	out := make([]TenantView, 0, len(s.tenants))
	for name, t := range s.tenants {
		out = append(out, TenantView{
			Name:        name,
			Weight:      1,
			Queued:      s.fq.TenantQueued(name),
			Running:     running[name],
			Submitted:   t.submitted,
			Completed:   t.completed,
			Failed:      t.failed,
			Canceled:    t.canceled,
			Rejected:    t.rejected,
			CacheHits:   t.cacheHits,
			Coalesced:   t.coalesced,
			Misses:      t.misses,
			MaxQueued:   s.cfg.QueueDepth,
			MaxInFlight: s.cfg.MaxInFlight,
		})
	}
	slices.SortFunc(out, func(a, b TenantView) int { return strings.Compare(a.Name, b.Name) })
	return out
}
