package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nvmap/internal/vtime"
)

// pipelineRoutes are the two POST routes: a valid request for a tenant,
// and the first event each route writes after the tenant ledger has
// settled.
var pipelineRoutes = []struct {
	path, afterSettle string
	body              func(tenant string) any
}{
	{"/v1/sessions", "answer", func(tenant string) any {
		return SessionRequest{Tenant: tenant, Scenario: ScenarioPlain, Nodes: 4, Metrics: []string{"computations"}}
	}},
	{"/v1/diagnose", "diagnosis", func(tenant string) any {
		return DiagnoseRequest{Tenant: tenant, Source: diagSource, Nodes: 4, Budget: 5}
	}},
}

// panicWriter is a ResponseWriter that panics on the first write of
// one event: a serve-layer bug that strikes after the run has settled.
type panicWriter struct {
	*httptest.ResponseRecorder
	event string
	fired bool
}

func (w *panicWriter) Write(b []byte) (int, error) {
	if !w.fired && bytes.Contains(b, []byte(`"event":"`+w.event+`"`)) {
		w.fired = true
		panic("write " + w.event)
	}
	return w.ResponseRecorder.Write(b)
}

// TestPipelineContract runs the request pipeline's contract over both
// POST routes: every rejection is typed and settles the tenant's
// reservation, and a panic after the run settled is contained without
// settling the ledger a second time.
func TestPipelineContract(t *testing.T) {
	const tenant = "t"
	cases := []struct {
		name string
		cfg  Config
		// setup prepares the server and returns its cleanup.
		setup      func(t *testing.T, s *Server) func()
		body       []byte // nil posts the route's valid request
		status     int
		kind       string
		retryAfter bool
	}{
		{name: "draining", status: http.StatusServiceUnavailable, kind: "draining", retryAfter: true,
			setup: func(t *testing.T, s *Server) func() { s.Drain(time.Second); return func() {} }},
		{name: "malformed", body: []byte(`{"nodes":`), status: http.StatusBadRequest, kind: "bad_request"},
		{name: "quota", cfg: Config{Quotas: map[string]TenantQuota{tenant: {MaxSessions: 1}}},
			status: http.StatusTooManyRequests, kind: "rejected_quota", retryAfter: true,
			setup: func(t *testing.T, s *Server) func() {
				if _, err := s.tenants.reserve(tenant); err != nil {
					t.Fatal(err)
				}
				return func() {}
			}},
		{name: "busy", cfg: Config{MaxConcurrent: 1, QueueDepth: 1, AdmitTimeout: time.Minute},
			status: http.StatusTooManyRequests, kind: "rejected_busy", retryAfter: true,
			setup: func(t *testing.T, s *Server) func() {
				// Hold the only slot and fill the one-deep queue.
				_, release, err := s.adm.admit(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				queued := make(chan struct{})
				go func() {
					defer close(queued)
					if _, rel, err := s.adm.admit(context.Background()); err == nil {
						rel()
					}
				}()
				for s.adm.queuedG.Load() != 1 {
					time.Sleep(time.Millisecond)
				}
				return func() { release(); <-queued }
			}},
	}
	for _, rt := range pipelineRoutes {
		valid, _ := json.Marshal(rt.body(tenant))
		for _, tc := range cases {
			t.Run(strings.TrimPrefix(rt.path, "/v1/")+"/"+tc.name, func(t *testing.T) {
				s := NewServer(tc.cfg)
				ts := httptest.NewServer(s.Handler())
				defer ts.Close()
				if tc.setup != nil {
					defer tc.setup(t, s)()
				}
				active := s.tenants.usage()[tenant].Active
				body := tc.body
				if body == nil {
					body = valid
				}
				status, hdr, events := postBody(t, ts, rt.path, body)
				if status != tc.status {
					t.Fatalf("status %d, want %d: %+v", status, tc.status, events)
				}
				if ev := eventByKind(events, "error"); len(events) != 1 || ev == nil || ev.Error.Kind != tc.kind {
					t.Fatalf("rejection body %+v, want one %s error", events, tc.kind)
				}
				if got := hdr.Get("Retry-After") != ""; got != tc.retryAfter {
					t.Fatalf("Retry-After %q, want set=%v", hdr.Get("Retry-After"), tc.retryAfter)
				}
				if u := s.tenants.usage()[tenant]; u.Active != active {
					t.Fatalf("tenant active %d after the rejection, want %d", u.Active, active)
				}
				if c := s.Counters(); c.Admitted != 0 || c.Panics != 0 {
					t.Fatalf("counters %+v", c)
				}
			})
		}
		t.Run(strings.TrimPrefix(rt.path, "/v1/")+"/panic", func(t *testing.T) {
			s := NewServer(Config{MaxConcurrent: 1})
			w := &panicWriter{ResponseRecorder: httptest.NewRecorder(), event: rt.afterSettle}
			s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, rt.path, bytes.NewReader(valid)))
			if !w.fired {
				t.Fatalf("the stream never wrote a %s event", rt.afterSettle)
			}
			events, err := readEvents(w.Body)
			if err != nil {
				t.Fatal(err)
			}
			if last := events[len(events)-1]; last.Event != "error" || last.Error.Kind != "panicked" {
				t.Fatalf("stream ends in %+v, want a panicked error event", last)
			}
			if u := s.tenants.usage()[tenant]; u.Active != 0 || u.VirtualTime <= 0 {
				t.Fatalf("tenant usage %+v after the panic: the ledger must settle exactly once, with the run's charge", u)
			}
			if c := s.Counters(); c.Panics != 1 || c.Failed != 1 || c.Completed != 0 {
				t.Fatalf("counters %+v", c)
			}
		})
	}
}

// TestDiagnoseQuotaCutsSearch: a diagnosis runs each session of its
// search under the tenant allowance left after the sessions before it,
// so a quota between the base run's cost and the whole search's cuts
// the search over budget, counts a cut, and charges every session the
// search ran, the cut one included.
func TestDiagnoseQuotaCutsSearch(t *testing.T) {
	req := DiagnoseRequest{Tenant: "bounded", Source: diagSource, Nodes: 4}

	// The unlimited search prices both bounds: its first finding carries
	// the base run's cost, its summary the whole search's.
	free := httptest.NewServer(NewServer(Config{MaxConcurrent: 1}).Handler())
	defer free.Close()
	_, _, events := postDiagnose(t, free, req)
	first, diag := eventByKind(events, "finding"), eventByKind(events, "diagnosis")
	if first == nil || diag == nil {
		t.Fatalf("unlimited search events %+v", events)
	}
	base, total := first.Finding.CostNS, diag.Diagnosis.SearchVTimeNS
	if base <= 0 || total <= base {
		t.Fatalf("base run %d ns, search %d ns: the search replays nothing", base, total)
	}
	quota := vtime.Duration(base + (total-base)/2)

	s := NewServer(Config{MaxConcurrent: 1, Quotas: map[string]TenantQuota{"bounded": {MaxVirtualTime: quota}}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	status, _, events := postDiagnose(t, ts, req)
	if status != http.StatusOK {
		t.Fatalf("status %d %+v", status, events)
	}
	if last := events[len(events)-1]; last.Event != "error" || last.Error.Kind != "over budget" {
		t.Fatalf("search under a %v quota ends in %+v, want an over budget error", quota, last)
	}
	if eventByKind(events, "finding") == nil {
		t.Fatalf("the base run's findings did not stream: %+v", events)
	}
	if c := s.Counters(); c.Cut != 1 || c.Failed != 1 || c.Completed != 0 {
		t.Fatalf("counters %+v", c)
	}
	if u := s.tenants.usage()["bounded"]; u.Active != 0 || u.VirtualTime <= quota || int64(u.VirtualTime) >= total {
		t.Fatalf("tenant usage %+v: want the cut search charged past its %v quota and short of the full %d ns", u, quota, total)
	}
}

// TestDiagnoseAllocQuotaCutsSearch is TestDiagnoseQuotaCutsSearch for
// the allocation quota: the request's one meter carries allocation
// bytes as well as virtual time, so each search session runs under the
// allocation allowance the sessions before it left, an allocation quota
// between one run's bytes and the whole search's cuts the search over
// budget, and the tenant is charged the bytes of every session the
// search ran.
func TestDiagnoseAllocQuotaCutsSearch(t *testing.T) {
	req := DiagnoseRequest{Tenant: "bounded", Source: diagSource, Nodes: 4}

	// The unlimited server prices both bounds: one plain run of the
	// program, and the whole unlimited search.
	free := NewServer(Config{MaxConcurrent: 1})
	fts := httptest.NewServer(free.Handler())
	defer fts.Close()
	body, _ := json.Marshal(SessionRequest{Tenant: "one-run", Source: diagSource, Nodes: 4})
	if status, _, events := postBody(t, fts, "/v1/sessions", body); status != http.StatusOK {
		t.Fatalf("plain run: status %d %+v", status, events)
	}
	if _, _, events := postDiagnose(t, fts, req); eventByKind(events, "diagnosis") == nil {
		t.Fatalf("unlimited search events %+v", events)
	}
	usage := free.tenants.usage()
	run, total := usage["one-run"].AllocBytes, usage["bounded"].AllocBytes
	if run <= 0 || total <= run {
		t.Fatalf("one run allocates %d bytes, the search %d: the diagnosis was not charged its sessions' allocations", run, total)
	}
	t.Logf("one run %d bytes, whole search %d bytes", run, total)
	quota := run + (total-run)/2

	s := NewServer(Config{MaxConcurrent: 1, Quotas: map[string]TenantQuota{"bounded": {MaxAllocBytes: quota}}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	status, _, events := postDiagnose(t, ts, req)
	if status != http.StatusOK {
		t.Fatalf("status %d %+v", status, events)
	}
	if last := events[len(events)-1]; last.Event != "error" || last.Error.Kind != "over budget" {
		t.Fatalf("search under a %d-byte quota ends in %+v, want an over budget error", quota, last)
	}
	if eventByKind(events, "finding") == nil {
		t.Fatalf("the base run's findings did not stream: %+v", events)
	}
	if c := s.Counters(); c.Cut != 1 || c.Failed != 1 || c.Completed != 0 {
		t.Fatalf("counters %+v", c)
	}
	if u := s.tenants.usage()["bounded"]; u.Active != 0 || u.AllocBytes <= quota {
		t.Fatalf("tenant usage %+v: want the cut search charged past its %d-byte quota", u, quota)
	}
}
