package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// postDiagnose fires one diagnosis request and parses the NDJSON
// stream.
func postDiagnose(t *testing.T, ts *httptest.Server, req DiagnoseRequest) (int, http.Header, []Event) {
	t.Helper()
	body, _ := json.Marshal(req)
	return postBody(t, ts, "/v1/diagnose", body)
}

// diagSource is compute-heavy enough that the consultant confirms
// CPUBound and refines it, so the stream carries findings at depth > 0.
const diagSource = `PROGRAM hot
REAL H(2048)
REAL S
FORALL (I = 1:2048) H(I) = I
DO K = 1, 4
H = H * 1.0001 + H * H - H / 3.0 + SQRT(H)
S = SUM(H)
END DO
END
`

func TestDiagnoseLifecycle(t *testing.T) {
	s := NewServer(Config{MaxConcurrent: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, hdr, events := postDiagnose(t, ts, DiagnoseRequest{
		Tenant: "alice",
		Source: diagSource,
		Nodes:  4,
	})
	if status != 200 {
		t.Fatalf("status %d, events %+v", status, events)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type %q", ct)
	}
	if adm := eventByKind(events, "admitted"); adm == nil || adm.Admitted.ShedLevel != 0 {
		t.Fatalf("admitted event %+v", adm)
	}

	// Findings stream in probe order: the first five are the top-level
	// hypotheses at the whole-program focus, sequenced 0..4.
	var findings []*FindingInfo
	for i := range events {
		if events[i].Event == "finding" {
			findings = append(findings, events[i].Finding)
		}
	}
	if len(findings) < 5 {
		t.Fatalf("%d finding events, want the 5 top-level hypotheses at least: %+v", len(findings), events)
	}
	confirmed := map[string]bool{}
	for i, f := range findings {
		if f.Seq != i {
			t.Fatalf("finding %d has seq %d: stream is not in probe order", i, f.Seq)
		}
		if i < 5 {
			if f.Focus != "/WholeProgram" || f.Depth != 0 {
				t.Fatalf("probe %d is %q at depth %d, want a whole-program probe", i, f.Focus, f.Depth)
			}
			confirmed[f.Hypothesis] = f.Confirmed
		}
	}
	if !confirmed["CPUBound"] {
		t.Fatalf("compute-heavy program did not confirm CPUBound: %+v", confirmed)
	}
	deeper := false
	for _, f := range findings {
		if f.Depth > 0 {
			deeper = true
		}
	}
	if !deeper {
		t.Fatalf("no refinement findings streamed: %+v", findings)
	}

	diag := eventByKind(events, "diagnosis")
	if diag == nil || diag.Diagnosis == nil {
		t.Fatalf("no diagnosis summary in %+v", events)
	}
	d := diag.Diagnosis
	if d.ProbesRun != len(findings) {
		t.Fatalf("summary says %d probes, stream carried %d findings", d.ProbesRun, len(findings))
	}
	if d.Confirmed < 1 || d.Text == "" || d.SearchVTimeNS <= 0 {
		t.Fatalf("diagnosis summary %+v", d)
	}
	if done := eventByKind(events, "done"); done == nil || done.Done.ElapsedVirtualNS != d.SearchVTimeNS {
		t.Fatalf("done event %+v, want elapsed = search vtime %d", done, d.SearchVTimeNS)
	}
	if c := s.Counters(); c.Admitted != 1 || c.Completed != 1 || c.Failed != 0 {
		t.Fatalf("counters %+v", c)
	}

	// The tenant was charged the search's virtual time, not a single
	// run's.
	if u := s.tenants.usage()["alice"]; int64(u.VirtualTime) != d.SearchVTimeNS {
		t.Fatalf("tenant charged %d ns, search cost %d ns", int64(u.VirtualTime), d.SearchVTimeNS)
	}
}

func TestDiagnoseBudgetOnWire(t *testing.T) {
	s := NewServer(Config{MaxConcurrent: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const budget = 5 // exactly the top-level hypotheses, refinement pruned
	status, _, events := postDiagnose(t, ts, DiagnoseRequest{
		Source: diagSource, Nodes: 4, Budget: budget,
	})
	if status != 200 {
		t.Fatalf("status %d %+v", status, events)
	}
	n := 0
	for _, ev := range events {
		if ev.Event == "finding" {
			n++
		}
	}
	if n != budget {
		t.Fatalf("%d findings streamed under budget %d", n, budget)
	}
	diag := eventByKind(events, "diagnosis")
	if diag == nil || diag.Diagnosis.ProbesRun != budget || diag.Diagnosis.Pruned == 0 {
		t.Fatalf("budget accounting on the wire: %+v", diag)
	}
}

func TestDiagnoseBadRequests(t *testing.T) {
	s := NewServer(Config{MaxConcurrent: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []DiagnoseRequest{
		{},                                 // neither source nor scenario
		{Scenario: "bogus"},                // unknown scenario
		{Source: diagSource, Nodes: -1},    // bad nodes
		{Source: diagSource, Budget: -3},   // negative budget
		{Source: diagSource, Threshold: 1}, // threshold outside [0, 1)
		{Source: diagSource, MaxDepth: -1}, // negative depth
		{Source: diagSource, DeadlineMS: -5},
		{Source: "PROGRAM x\nTHIS IS NOT FORTRAN\nEND\n"}, // compile error
	}
	for i, req := range cases {
		status, _, events := postDiagnose(t, ts, req)
		if status != 400 {
			t.Errorf("case %d: status %d, want 400 (events %+v)", i, status, events)
			continue
		}
		if ev := eventByKind(events, "error"); ev == nil || ev.Error.Kind != "bad_request" {
			t.Errorf("case %d: error event %+v", i, events)
		}
	}
	if c := s.Counters(); c.BadRequests != int64(len(cases)) || c.Completed != 0 {
		t.Fatalf("counters %+v", c)
	}
}

func TestDiagnoseDrainCutsSearch(t *testing.T) {
	s := NewServer(Config{MaxConcurrent: 1, DefaultDeadline: time.Minute})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type result struct {
		status int
		events []Event
	}
	// Heavy enough that the search (base run + replays) comfortably
	// outlasts the drain grace window.
	drainSource := strings.Replace(slowSource, "DO K = 1, 120", "DO K = 1, 5000", 1)
	resc := make(chan result, 1)
	go func() {
		body, _ := json.Marshal(DiagnoseRequest{Source: drainSource, Nodes: 8})
		resp, err := ts.Client().Post(ts.URL+"/v1/diagnose", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Errorf("POST: %v", err)
			resc <- result{}
			return
		}
		defer resp.Body.Close()
		var events []Event
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			var ev Event
			if json.Unmarshal(sc.Bytes(), &ev) == nil {
				events = append(events, ev)
			}
		}
		resc <- result{resp.StatusCode, events}
	}()

	// Wait until the search has registered its cancel hook, then drain
	// with a grace window far shorter than the search.
	for {
		s.mu.Lock()
		n := len(s.inflight)
		s.mu.Unlock()
		if n > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	s.Drain(10 * time.Millisecond)

	r := <-resc
	if r.status != 200 {
		t.Fatalf("draining diagnosis status %d %+v", r.status, r.events)
	}
	errEv := eventByKind(r.events, "error")
	if errEv == nil || errEv.Error.Kind != "cancelled" {
		t.Fatalf("cut search error event %+v", r.events)
	}
	if eventByKind(r.events, "done") != nil {
		t.Fatalf("cut search still claimed completion: %+v", r.events)
	}

	// Post-drain: new diagnoses are refused with Retry-After and nothing
	// is left in flight.
	status, hdr, events := postDiagnose(t, ts, DiagnoseRequest{Source: diagSource})
	if status != 503 || hdr.Get("Retry-After") == "" {
		t.Fatalf("post-drain admit: status %d, Retry-After %q, %+v", status, hdr.Get("Retry-After"), events)
	}
	if n := s.adm.inflight.Load(); n != 0 {
		t.Fatalf("%d diagnoses still in flight after Drain returned", n)
	}
	if c := s.Counters(); c.Cut != 1 || c.Failed != 1 || c.RejectedDraining != 1 {
		t.Fatalf("counters %+v", c)
	}
}
