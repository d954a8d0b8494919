package serve

// Per-tenant quotas. A tenant is a quota bucket identified by the
// request's Tenant field; the daemon keeps a cumulative ledger per
// bucket and enforces three ceilings:
//
//   - MaxSessions: concurrent sessions in flight for the tenant;
//   - MaxVirtualTime: cumulative simulated nanoseconds across all the
//     tenant's runs;
//   - MaxAllocBytes: cumulative parallel-array allocation estimate.
//
// The cumulative ceilings are enforced by construction rather than by
// after-the-fact policing: each admitted request runs under
// nvmap.WithBudget with MaxVirtualTime/MaxAllocBytes set to the
// tenant's *remaining* allowance (intersected with any per-request
// cap), so a run that would blow the quota is cut by the budget
// governor at an exact virtual-time boundary — the tenant gets a
// partial report and a typed over-budget error, and no other tenant is
// affected. Both request kinds go through the server's one request
// pipeline, which settles every reservation exactly once: with what
// the request consumed as soon as its run ends (it may be less than
// reserved), or with nothing when it ends before running (a rejection,
// a bad request, a contained panic). A session request runs once; a
// diagnosis runs a search of sessions (the base run, then replays),
// each under the allowance left after the ones before it, and is
// charged the virtual time and allocation bytes of every session the
// search ran, a cut one included.

import (
	"fmt"
	"sync"

	"nvmap"
	"nvmap/internal/vtime"
)

// TenantQuota is one tenant's ceilings. Zero fields are unlimited; the
// zero TenantQuota admits everything (the accounting ledger still
// fills, so /v1/stats reports usage even for unlimited tenants).
type TenantQuota struct {
	// MaxSessions caps the tenant's concurrent in-flight sessions.
	MaxSessions int `json:"max_sessions,omitempty"`
	// MaxVirtualTime caps the tenant's cumulative simulated time.
	MaxVirtualTime vtime.Duration `json:"max_virtual_time_ns,omitempty"`
	// MaxAllocBytes caps the tenant's cumulative allocation estimate.
	MaxAllocBytes int64 `json:"max_alloc_bytes,omitempty"`
}

// QuotaError is a quota rejection; the handler maps it to 429 with a
// tenant-specific message.
type QuotaError struct {
	Tenant string
	Reason string
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("serve: tenant %q over quota: %s", e.Tenant, e.Reason)
}

// TenantUsage is one bucket's ledger snapshot, surfaced at /v1/stats.
type TenantUsage struct {
	Active      int            `json:"active"`
	Sessions    int64          `json:"sessions"`
	VirtualTime vtime.Duration `json:"virtual_time_ns"`
	AllocBytes  int64          `json:"alloc_bytes"`
	Rejected    int64          `json:"rejected"`
}

// tenantLedger tracks every bucket.
type tenantLedger struct {
	def    TenantQuota
	quotas map[string]TenantQuota

	mu      sync.Mutex
	buckets map[string]*TenantUsage
}

func newTenantLedger(def TenantQuota, quotas map[string]TenantQuota) *tenantLedger {
	return &tenantLedger{def: def, quotas: quotas, buckets: map[string]*TenantUsage{}}
}

// quotaFor resolves the ceilings for a tenant name.
func (l *tenantLedger) quotaFor(tenant string) TenantQuota {
	if q, ok := l.quotas[tenant]; ok {
		return q
	}
	return l.def
}

// reserve checks the tenant's ceilings and, if admitted, claims a
// session and returns the budget the run must execute under: the
// tenant's remaining virtual-time/allocation allowance. The caller must
// eventually call settle (even when the run fails).
func (l *tenantLedger) reserve(tenant string) (nvmap.Budget, error) {
	q := l.quotaFor(tenant)
	l.mu.Lock()
	defer l.mu.Unlock()
	u := l.buckets[tenant]
	if u == nil {
		u = &TenantUsage{}
		l.buckets[tenant] = u
	}
	if q.MaxSessions > 0 && u.Active >= q.MaxSessions {
		u.Rejected++
		return nvmap.Budget{}, &QuotaError{Tenant: tenant,
			Reason: fmt.Sprintf("%d sessions already in flight (max %d)", u.Active, q.MaxSessions)}
	}
	var b nvmap.Budget
	if q.MaxVirtualTime > 0 {
		rem := q.MaxVirtualTime - u.VirtualTime
		if rem <= 0 {
			u.Rejected++
			return nvmap.Budget{}, &QuotaError{Tenant: tenant,
				Reason: fmt.Sprintf("virtual-time quota exhausted (%v used of %v)", u.VirtualTime, q.MaxVirtualTime)}
		}
		b.MaxVirtualTime = rem
	}
	if q.MaxAllocBytes > 0 {
		rem := q.MaxAllocBytes - u.AllocBytes
		if rem <= 0 {
			u.Rejected++
			return nvmap.Budget{}, &QuotaError{Tenant: tenant,
				Reason: fmt.Sprintf("allocation quota exhausted (%d bytes used of %d)", u.AllocBytes, q.MaxAllocBytes)}
		}
		b.MaxAllocBytes = rem
	}
	u.Active++
	u.Sessions++
	return b, nil
}

// settle releases the session claim and charges what the run actually
// consumed.
func (l *tenantLedger) settle(tenant string, elapsed vtime.Duration, allocBytes int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	u := l.buckets[tenant]
	if u == nil {
		return
	}
	u.Active--
	u.VirtualTime += elapsed
	u.AllocBytes += allocBytes
}

// usage snapshots every bucket.
func (l *tenantLedger) usage() map[string]TenantUsage {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]TenantUsage, len(l.buckets))
	for name, u := range l.buckets {
		out[name] = *u
	}
	return out
}
