package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"nvmap"
	"nvmap/internal/paradyn"
)

// postSession fires one session request at a test server and parses the
// NDJSON stream.
func postSession(t *testing.T, ts *httptest.Server, req SessionRequest) (int, http.Header, []Event) {
	t.Helper()
	body, _ := json.Marshal(req)
	return postSessionBody(t, ts, body)
}

func postSessionBody(t *testing.T, ts *httptest.Server, body []byte) (int, http.Header, []Event) {
	t.Helper()
	return postBody(t, ts, "/v1/sessions", body)
}

// postBody posts a raw body to one route and parses the NDJSON stream.
func postBody(t *testing.T, ts *httptest.Server, path string, body []byte) (int, http.Header, []Event) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	events, err := readEvents(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, events
}

// readEvents reads a response body as NDJSON, rejecting any line that
// is not a well-formed Event: valid JSON with no unknown fields, a
// known event name, and exactly the one payload that name calls for.
func readEvents(body io.Reader) ([]Event, error) {
	var events []Event
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		var ev Event
		if err := dec.Decode(&ev); err != nil {
			return nil, fmt.Errorf("bad event line %q: %w", line, err)
		}
		if err := wellFormed(ev); err != nil {
			return nil, fmt.Errorf("event line %q: %w", line, err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("stream read: %w", err)
	}
	return events, nil
}

// wellFormed checks Event's invariant: exactly one payload pointer is
// set, the one matching its name.
func wellFormed(ev Event) error {
	payloads := map[string]bool{
		"admitted":  ev.Admitted != nil,
		"answer":    ev.Answer != nil,
		"question":  ev.Question != nil,
		"report":    ev.Report != nil,
		"finding":   ev.Finding != nil,
		"diagnosis": ev.Diagnosis != nil,
		"done":      ev.Done != nil,
		"error":     ev.Error != nil,
	}
	set, known := payloads[ev.Event]
	if !known {
		return fmt.Errorf("unknown event %q", ev.Event)
	}
	if !set {
		return errors.New("payload missing")
	}
	for name, ok := range payloads {
		if ok && name != ev.Event {
			return fmt.Errorf("stray %s payload", name)
		}
	}
	return nil
}

func eventByKind(events []Event, kind string) *Event {
	for i := range events {
		if events[i].Event == kind {
			return &events[i]
		}
	}
	return nil
}

func TestSessionLifecycle(t *testing.T) {
	s := NewServer(Config{MaxConcurrent: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, hdr, events := postSession(t, ts, SessionRequest{
		Tenant:   "alice",
		Scenario: ScenarioPlain,
		Seed:     7,
		Nodes:    4,
		Metrics:  []string{"computations", "summations"},
		Questions: []QuestionSpec{
			{Label: "sends-during-sums", Text: "{? Sums}, {? Sends}"},
		},
	})
	if status != 200 {
		t.Fatalf("status %d, events %+v", status, events)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type %q", ct)
	}
	adm := eventByKind(events, "admitted")
	if adm == nil || adm.Admitted == nil {
		t.Fatalf("no admitted event in %+v", events)
	}
	if adm.Admitted.ShedLevel != 0 {
		t.Fatalf("unloaded daemon shed to level %d", adm.Admitted.ShedLevel)
	}
	answers := 0
	for _, ev := range events {
		if ev.Event == "answer" {
			answers++
			if ev.Answer.Metric == "computations" && ev.Answer.Value <= 0 {
				t.Fatalf("computations answer %v", ev.Answer.Value)
			}
		}
	}
	if answers != 2 {
		t.Fatalf("%d answer events, want 2", answers)
	}
	q := eventByKind(events, "question")
	if q == nil || q.Question.Label != "sends-during-sums" || q.Question.Count <= 0 {
		t.Fatalf("question event %+v", q.Question)
	}
	rep := eventByKind(events, "report")
	if rep == nil || !rep.Report.Zero || rep.Report.Text != "no degradation\n" {
		t.Fatalf("plain scenario report %+v", rep)
	}
	done := eventByKind(events, "done")
	if done == nil || done.Done.ElapsedVirtualNS <= 0 {
		t.Fatalf("done event %+v", done)
	}
	if c := s.Counters(); c.Admitted != 1 || c.Completed != 1 || c.Failed != 0 {
		t.Fatalf("counters %+v", c)
	}
}

func TestBadRequests(t *testing.T) {
	s := NewServer(Config{MaxConcurrent: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []SessionRequest{
		{},                             // neither source nor scenario
		{Scenario: "bogus"},            // unknown scenario
		{Scenario: "plain", Nodes: -2}, // bad nodes
		{Scenario: "plain", DeadlineMS: -5},
		{Source: "PROGRAM x\nTHIS IS NOT FORTRAN\nEND\n"}, // compile error
		{Scenario: "plain", Metrics: []string{"no_such_metric"}},
		{Scenario: "plain", Questions: []QuestionSpec{{Label: "q", Text: ""}}},
	}
	for i, req := range cases {
		status, _, events := postSession(t, ts, req)
		if status != 400 {
			t.Errorf("case %d: status %d, want 400 (events %+v)", i, status, events)
			continue
		}
		if ev := eventByKind(events, "error"); ev == nil || ev.Error.Kind != "bad_request" {
			t.Errorf("case %d: error event %+v", i, events)
		}
	}
	// The decoder is lenient: a client still sending the retired
	// "workers" field is served, not rejected.
	status, _, events := postSessionBody(t, ts, []byte(`{"scenario":"plain","workers":8}`))
	if status != 200 || eventByKind(events, "done") == nil {
		t.Errorf("legacy workers field: status %d, events %+v", status, events)
	}
	if c := s.Counters(); c.BadRequests != int64(len(cases)) || c.Completed != 1 {
		t.Fatalf("counters %+v", c)
	}
}

func TestTenantQuotaRejects(t *testing.T) {
	s := NewServer(Config{
		MaxConcurrent: 2,
		Quotas: map[string]TenantQuota{
			"bounded": {MaxVirtualTime: 1}, // 1ns cumulative: second run must be rejected
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, _, events := postSession(t, ts, SessionRequest{Tenant: "bounded", Scenario: ScenarioPlain})
	if status != 200 {
		t.Fatalf("first run status %d %+v", status, events)
	}
	// The first run was cut over budget or completed within 1ns; either
	// way it consumed the tenant's virtual-time quota.
	status, hdr, events := postSession(t, ts, SessionRequest{Tenant: "bounded", Scenario: ScenarioPlain})
	if status != 429 {
		t.Fatalf("second run status %d %+v", status, events)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("quota rejection missing Retry-After")
	}
	ev := eventByKind(events, "error")
	if ev == nil || ev.Error.Kind != "rejected_quota" || !strings.Contains(ev.Error.Message, "bounded") {
		t.Fatalf("quota rejection body %+v", events)
	}
	// Unrelated tenants are untouched.
	if status, _, _ := postSession(t, ts, SessionRequest{Tenant: "other", Scenario: ScenarioPlain}); status != 200 {
		t.Fatalf("other tenant status %d", status)
	}
	if c := s.Counters(); c.RejectedQuota != 1 {
		t.Fatalf("counters %+v", c)
	}
}

func TestTenantSessionCap(t *testing.T) {
	l := newTenantLedger(TenantQuota{}, map[string]TenantQuota{"t": {MaxSessions: 1}})
	if _, err := l.reserve("t"); err != nil {
		t.Fatal(err)
	}
	if _, err := l.reserve("t"); err == nil {
		t.Fatal("second concurrent session admitted past MaxSessions=1")
	} else {
		var qe *QuotaError
		if !errors.As(err, &qe) || qe.Tenant != "t" {
			t.Fatalf("error %v", err)
		}
	}
	l.settle("t", 10, 20)
	if _, err := l.reserve("t"); err != nil {
		t.Fatalf("after settle: %v", err)
	}
	u := l.usage()["t"]
	if u.Sessions != 2 || u.VirtualTime != 10 || u.AllocBytes != 20 || u.Rejected != 1 {
		t.Fatalf("usage %+v", u)
	}
}

func TestAdmissionQueueBoundsAndShedLevels(t *testing.T) {
	a := newAdmission(1, 4, time.Second)
	// Occupy the only slot.
	_, release, err := a.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Fill the queue and record the shed level each waiter was priced.
	levels := make(chan int, 4)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lvl, rel, err := a.admit(context.Background())
			if err != nil {
				t.Errorf("queued admit: %v", err)
				return
			}
			levels <- lvl
			rel()
		}()
	}
	// Wait until all four are queued.
	for a.queuedG.Load() != 4 {
		time.Sleep(time.Millisecond)
	}
	// The fifth request must fast-reject, not queue.
	start := time.Now()
	if _, _, err := a.admit(context.Background()); !errors.Is(err, ErrBusy) {
		t.Fatalf("overflow admit: %v, want ErrBusy", err)
	}
	if d := time.Since(start); d > 200*time.Millisecond {
		t.Fatalf("fast reject took %v", d)
	}
	release()
	wg.Wait()
	close(levels)
	// Pricing climbs with queue occupancy: the four waiters joined at
	// depths 1..4 of a 4-deep queue, so levels 1, 2, 2, 3 were granted
	// (in some order — the slot handoff order is scheduler-dependent).
	counts := map[int]int{}
	for l := range levels {
		counts[l]++
	}
	if counts[1] != 1 || counts[2] != 2 || counts[3] != 1 {
		t.Fatalf("shed level distribution %v, want map[1:1 2:2 3:1]", counts)
	}
}

func TestAdmissionTimeout(t *testing.T) {
	a := newAdmission(1, 4, 20*time.Millisecond)
	_, release, err := a.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if _, _, err := a.admit(context.Background()); !errors.Is(err, ErrBusy) {
		t.Fatalf("timed-out admit: %v, want ErrBusy", err)
	}
	if got := a.queuedG.Load(); got != 0 {
		t.Fatalf("queue gauge %d after timeout, want 0", got)
	}
}

func TestAdmissionDrainReleasesWaiters(t *testing.T) {
	a := newAdmission(1, 4, time.Minute)
	_, release, err := a.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	errc := make(chan error, 1)
	go func() {
		_, _, err := a.admit(context.Background())
		errc <- err
	}()
	for a.queuedG.Load() != 1 {
		time.Sleep(time.Millisecond)
	}
	a.beginDrain()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrDraining) {
			t.Fatalf("drained waiter got %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("drain did not release the queued waiter")
	}
	if _, _, err := a.admit(context.Background()); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain admit: %v", err)
	}
}

// slowSource is a program heavy enough (tens of ms of host work) that
// drain tests can reliably overlap requests with it.
const slowSource = `PROGRAM slow
REAL A(2048)
REAL B(2048)
REAL S
FORALL (I = 1:2048) A(I) = I
FORALL (I = 1:2048) B(I) = 2 * I
DO K = 1, 120
B = A * 2.0 + B
S = SUM(B)
A = CSHIFT(A, 1)
S = DOT_PRODUCT(A, B)
END DO
S = SUM(A)
END
`

// TestOverloadShedsThenRejects holds the only run slot through the
// server's own admission controller, so the outcome does not depend on
// how long a session runs or how the clients are scheduled: of eight
// clients two queue and six are fast-rejected while the slot is held;
// once it is released the two queued requests run shed.
func TestOverloadShedsThenRejects(t *testing.T) {
	s := NewServer(Config{MaxConcurrent: 1, QueueDepth: 2, AdmitTimeout: 10 * time.Second})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, release, err := s.adm.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	release = sync.OnceFunc(release)
	defer release() // a failed assertion must not leave the queued clients waiting

	const clients, queued = 8, 2
	type outcome struct {
		status     int
		retryAfter string
		events     []Event
	}
	results := make(chan outcome, clients)
	for i := 0; i < clients; i++ {
		go func() {
			var out outcome
			defer func() { results <- out }()
			body, _ := json.Marshal(SessionRequest{Source: slowSource, Nodes: 4})
			resp, err := ts.Client().Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("POST: %v", err)
				return
			}
			defer resp.Body.Close()
			out.status, out.retryAfter = resp.StatusCode, resp.Header.Get("Retry-After")
			sc := bufio.NewScanner(resp.Body)
			sc.Buffer(make([]byte, 1<<20), 1<<20)
			for sc.Scan() {
				var ev Event
				if json.Unmarshal(sc.Bytes(), &ev) == nil {
					out.events = append(out.events, ev)
				}
			}
		}()
	}

	// Nothing can be admitted while the slot is held, so the first six
	// outcomes are the rejections.
	for i := 0; i < clients-queued; i++ {
		r := <-results
		if r.status != http.StatusTooManyRequests {
			t.Fatalf("outcome %d while the slot is held: status %d, want 429", i, r.status)
		}
		if r.retryAfter == "" {
			t.Error("429 without Retry-After")
		}
		if ev := eventByKind(r.events, "error"); ev == nil || ev.Error.Kind != "rejected_busy" {
			t.Errorf("429 body %+v", r.events)
		}
	}
	release()
	for i := 0; i < queued; i++ {
		r := <-results
		if r.status != http.StatusOK {
			t.Fatalf("queued request: status %d, want 200", r.status)
		}
		if adm := eventByKind(r.events, "admitted"); adm == nil || adm.Admitted.ShedLevel == 0 {
			t.Errorf("queued request was not admitted shed: %+v", r.events)
		}
		if eventByKind(r.events, "done") == nil {
			t.Errorf("200 stream without done event: %+v", r.events)
		}
	}
	c := s.Counters()
	if c.RejectedBusy != clients-queued || c.Completed != queued || c.Shed != queued {
		t.Fatalf("counters %+v, want %d rejected, %d completed, %d shed", c, clients-queued, queued, queued)
	}
}

func TestDrainCutsInflightAndFlushesReport(t *testing.T) {
	s := NewServer(Config{MaxConcurrent: 1, DefaultDeadline: time.Minute})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type result struct {
		status int
		events []Event
	}
	// Much heavier than slowSource: the run must comfortably outlast the
	// window between cancel registration and Drain's grace expiry.
	drainSource := strings.Replace(slowSource, "DO K = 1, 120", "DO K = 1, 5000", 1)
	resc := make(chan result, 1)
	go func() {
		body, _ := json.Marshal(SessionRequest{Source: drainSource, Nodes: 8, Metrics: []string{"computations"}})
		resp, err := ts.Client().Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader(body))
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

	// Wait until the run has registered its cancel hook (it is then
	// inside RunContext), then drain with a grace window far shorter
	// than the run.
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
		t.Fatalf("draining run status %d %+v", r.status, r.events)
	}
	rep := eventByKind(r.events, "report")
	if rep == nil || rep.Report.Cut == nil {
		t.Fatalf("cut run flushed no cut report: %+v", r.events)
	}
	if rep.Report.Cut.Kind != "cancelled" {
		t.Fatalf("drain cut kind %q, want cancelled", rep.Report.Cut.Kind)
	}
	if rep.Report.Cut.AtNS <= 0 {
		t.Fatalf("cut at %d ns: not an exact virtual-time boundary", rep.Report.Cut.AtNS)
	}
	// The answer for the enabled metric still flowed, exact up to the cut.
	if ans := eventByKind(r.events, "answer"); ans == nil || ans.Answer.Value <= 0 {
		t.Fatalf("cut run lost its answers: %+v", r.events)
	}
	errEv := eventByKind(r.events, "error")
	if errEv == nil || errEv.Error.Kind != "cancelled" {
		t.Fatalf("cut run error event %+v", r.events)
	}

	// Post-drain: new sessions are refused with Retry-After, health
	// reports draining, and nothing is left in flight.
	status, hdr, events := postSession(t, ts, SessionRequest{Scenario: ScenarioPlain})
	if status != 503 || hdr.Get("Retry-After") == "" {
		t.Fatalf("post-drain admit: status %d, Retry-After %q, %+v", status, hdr.Get("Retry-After"), events)
	}
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("healthz during drain: %d", resp.StatusCode)
	}
	if n := s.adm.inflight.Load(); n != 0 {
		t.Fatalf("%d sessions still in flight after Drain returned", n)
	}
	if c := s.Counters(); c.Cut != 1 || c.RejectedDraining != 1 {
		t.Fatalf("counters %+v", c)
	}
}

func TestStatsAndMetricsEndpoints(t *testing.T) {
	s := NewServer(Config{MaxConcurrent: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if status, _, _ := postSession(t, ts, SessionRequest{Tenant: "alice", Scenario: ScenarioFaulty, Seed: 3}); status != 200 {
		t.Fatalf("faulty session status %d", status)
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsPayload
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Counters.Admitted != 1 || st.Counters.Completed != 1 {
		t.Fatalf("stats counters %+v", st.Counters)
	}
	u, ok := st.Tenants["alice"]
	if !ok || u.Sessions != 1 || u.VirtualTime <= 0 {
		t.Fatalf("tenant usage %+v", st.Tenants)
	}

	// The daemon's own lifecycle series ride the obs exporter.
	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	buf := new(bytes.Buffer)
	if _, err := buf.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, want := range []string{
		"nvprofd_sessions_admitted_total 1",
		"nvprofd_sessions_completed_total 1",
		"nvprofd_inflight_sessions 0",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%.600s", want, body)
		}
	}
}

// TestRecoveryUnderService is the recovery-under-service contract: a
// crashy fault plan routed through the daemon returns the same partial
// annotations and lost-time accounting as a direct Session.Run.
func TestRecoveryUnderService(t *testing.T) {
	const (
		kind  = ScenarioCrashy
		seed  = 42
		nodes = 8
	)
	type fingerprint struct {
		report    string
		partial   string
		value     float64
		lostNS    int64
		lostNodes string
	}

	direct := func() fingerprint {
		plan, rc := ScenarioPlan(kind, seed, nodes)
		opts := []nvmap.Option{
			nvmap.WithNodes(nodes),
			nvmap.WithSourceFile(fmt.Sprintf("%s-%d.fcm", kind, seed)),
			nvmap.WithFaults(plan),
			nvmap.WithRecovery(*rc),
		}
		sess, err := nvmap.NewSession(ScenarioProgram(kind, seed), opts...)
		if err != nil {
			t.Fatal(err)
		}
		em, err := sess.Tool.EnableMetric("computations", paradyn.WholeProgram())
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sess.Run()
		if err != nil {
			t.Fatalf("direct run: %v", err)
		}
		return fingerprint{
			report:    rep.String(),
			partial:   em.Partial(),
			value:     em.Value(sess.Now()),
			lostNS:    int64(rep.LostTime),
			lostNodes: fmt.Sprint(rep.LostNodes),
		}
	}

	s := NewServer(Config{MaxConcurrent: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	served := func() fingerprint {
		status, _, events := postSession(t, ts, SessionRequest{
			Scenario: kind, Seed: seed, Nodes: nodes,
			Metrics: []string{"computations"},
		})
		if status != 200 {
			t.Fatalf("served run: status %d %+v", status, events)
		}
		rep := eventByKind(events, "report")
		ans := eventByKind(events, "answer")
		if rep == nil || ans == nil || eventByKind(events, "done") == nil {
			t.Fatalf("served run events %+v", events)
		}
		return fingerprint{
			report:    rep.Report.Text,
			partial:   ans.Answer.Partial,
			value:     ans.Answer.Value,
			lostNS:    rep.Report.LostTimeNS,
			lostNodes: fmt.Sprint(rep.Report.LostNodes),
		}
	}

	ref := direct()
	if !strings.Contains(ref.partial, "(partial: lost node") {
		t.Fatalf("crashy scenario produced no partial annotation: %q", ref.partial)
	}
	if ref.lostNS <= 0 || !strings.Contains(ref.report, "never recovered") {
		t.Fatalf("crashy scenario lost no time:\n%s", ref.report)
	}
	if got := served(); got != ref {
		t.Fatalf("served run diverged from direct:\n%+v\nvs\n%+v", got, ref)
	}
}

// TestRunErrorUnwrapsThroughServiceLayer: the service wrapper keeps the
// full unwrap chain visible to errors.Is / errors.As.
func TestRunErrorUnwrapsThroughServiceLayer(t *testing.T) {
	sess, err := nvmap.NewSession(slowSource, nvmap.WithNodes(2),
		nvmap.WithSourceFile("wrap.fcm"),
		nvmap.WithBudget(nvmap.Budget{MaxOps: 10}))
	if err != nil {
		t.Fatal(err)
	}
	_, runErr := sess.Run()
	if runErr == nil {
		t.Fatal("MaxOps=10 run completed")
	}
	wrapped := fmt.Errorf("retry context: %w", &RunError{Tenant: "t", ID: 9, Err: runErr})
	if !errors.Is(wrapped, nvmap.ErrBudgetExceeded) {
		t.Fatalf("errors.Is(ErrBudgetExceeded) false through service wrapper: %v", wrapped)
	}
	var serr *nvmap.SessionError
	if !errors.As(wrapped, &serr) || serr.Kind != nvmap.ErrorOverBudget {
		t.Fatalf("errors.As(*SessionError) through service wrapper: %v", wrapped)
	}
	var rerr *RunError
	if !errors.As(wrapped, &rerr) || rerr.Tenant != "t" || rerr.ID != 9 {
		t.Fatalf("errors.As(*RunError): %v", wrapped)
	}
}
