package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nvmap"
	"nvmap/internal/obs"
	"nvmap/internal/paradyn"
	"nvmap/internal/vtime"
)

// Config sizes the daemon. The zero value is usable: every field has a
// production-shaped default applied by NewServer.
type Config struct {
	// MaxConcurrent is the run-slot pool size (default: GOMAXPROCS).
	MaxConcurrent int
	// QueueDepth bounds the admission wait queue (default:
	// 2*MaxConcurrent). Request MaxConcurrent+QueueDepth+1 gets an
	// immediate 429.
	QueueDepth int
	// AdmitTimeout bounds how long a queued request waits for a slot
	// before converting to a 429 (default 5s).
	AdmitTimeout time.Duration
	// DefaultDeadline is the per-run wall deadline when the request
	// names none (default 30s). Mapped onto Session.RunContext, so an
	// expired run is cut at an exact virtual-time boundary.
	DefaultDeadline time.Duration
	// MaxBodyBytes bounds the request body (default 1 MiB).
	MaxBodyBytes int64
	// MaxNodes clamps per-request partition sizing (default 64).
	MaxNodes int
	// DefaultQuota applies to tenants without an entry in Quotas. The
	// zero quota is unlimited.
	DefaultQuota TenantQuota
	// Quotas maps tenant names to their ceilings.
	Quotas map[string]TenantQuota
	// AvgRun seeds the Retry-After estimate (default 200ms).
	AvgRun time.Duration
}

func (c *Config) fill() {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.MaxConcurrent
	}
	if c.AdmitTimeout <= 0 {
		c.AdmitTimeout = 5 * time.Second
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxNodes <= 0 {
		c.MaxNodes = 64
	}
	if c.AvgRun <= 0 {
		c.AvgRun = 200 * time.Millisecond
	}
}

// Counters is the daemon's lifecycle ledger, snapshotted at /v1/stats
// and exported as nvprofd_* series at /metrics.
type Counters struct {
	Admitted         int64 `json:"admitted"`
	Completed        int64 `json:"completed"`
	Failed           int64 `json:"failed"`
	Cut              int64 `json:"cut"`
	Shed             int64 `json:"shed"`
	RejectedBusy     int64 `json:"rejected_busy"`
	RejectedQuota    int64 `json:"rejected_quota"`
	RejectedDraining int64 `json:"rejected_draining"`
	BadRequests      int64 `json:"bad_requests"`
	Panics           int64 `json:"panics"`
}

// Server is the multi-tenant profiling daemon. Create with NewServer,
// serve via Handler, stop with Drain.
type Server struct {
	cfg     Config
	adm     *admission
	tenants *tenantLedger
	plane   *obs.Plane
	mux     *http.ServeMux

	draining atomic.Bool
	wg       sync.WaitGroup

	mu       sync.Mutex
	inflight map[uint64]context.CancelFunc
	nextID   uint64

	admitted, completed, failed, cutRuns, shedRuns   atomic.Int64
	rejBusy, rejQuota, rejDraining, badReq, panicked atomic.Int64
}

// NewServer builds the daemon. The obs plane is the server's own
// telemetry: its registry carries the daemon lifecycle gauges and its
// handler is mounted under the same mux as the session API, so the
// service observes itself with the plane it serves.
func NewServer(cfg Config) *Server {
	cfg.fill()
	s := &Server{
		cfg:      cfg,
		adm:      newAdmission(cfg.MaxConcurrent, cfg.QueueDepth, cfg.AdmitTimeout),
		tenants:  newTenantLedger(cfg.DefaultQuota, cfg.Quotas),
		plane:    obs.New(obs.Options{}),
		inflight: map[uint64]context.CancelFunc{},
	}
	s.registerMetrics()
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/sessions", s.handleSessions)
	mux.HandleFunc("/v1/diagnose", s.handleDiagnose)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.Handle("/", obs.Handler(s.plane))
	s.mux = mux
	return s
}

// Handler returns the daemon's HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Plane exposes the daemon's own observability plane (tests read the
// registry directly; cmd/nvprofd logs from it on drain).
func (s *Server) Plane() *obs.Plane { return s.plane }

// Counters snapshots the lifecycle ledger.
func (s *Server) Counters() Counters {
	return Counters{
		Admitted:         s.admitted.Load(),
		Completed:        s.completed.Load(),
		Failed:           s.failed.Load(),
		Cut:              s.cutRuns.Load(),
		Shed:             s.shedRuns.Load(),
		RejectedBusy:     s.rejBusy.Load(),
		RejectedQuota:    s.rejQuota.Load(),
		RejectedDraining: s.rejDraining.Load(),
		BadRequests:      s.badReq.Load(),
		Panics:           s.panicked.Load(),
	}
}

// registerMetrics publishes the daemon's own series through the obs
// registry, alongside whatever the plane's standard collectors export.
func (s *Server) registerMetrics() {
	m := s.plane.Metrics
	reg := func(name, help string, kind obs.Kind, fn func() float64) {
		m.Func("nvprofd_"+name, help, kind, true, fn)
	}
	counter := func(c *atomic.Int64) func() float64 {
		return func() float64 { return float64(c.Load()) }
	}
	reg("sessions_admitted_total", "sessions granted a run slot", obs.KindCounter, counter(&s.admitted))
	reg("sessions_completed_total", "sessions that ran to completion", obs.KindCounter, counter(&s.completed))
	reg("sessions_failed_total", "sessions that ended in a typed error", obs.KindCounter, counter(&s.failed))
	reg("sessions_cut_total", "sessions cut at a virtual-time boundary", obs.KindCounter, counter(&s.cutRuns))
	reg("sessions_shed_total", "sessions admitted at degraded fidelity", obs.KindCounter, counter(&s.shedRuns))
	reg("rejected_busy_total", "429s from a full run queue", obs.KindCounter, counter(&s.rejBusy))
	reg("rejected_quota_total", "429s from tenant quotas", obs.KindCounter, counter(&s.rejQuota))
	reg("rejected_draining_total", "503s during drain", obs.KindCounter, counter(&s.rejDraining))
	reg("panics_contained_total", "handler panics converted to errors", obs.KindCounter, counter(&s.panicked))
	reg("inflight_sessions", "sessions holding a run slot", obs.KindGauge,
		func() float64 { return float64(s.adm.inflight.Load()) })
	reg("queued_requests", "requests waiting for a run slot", obs.KindGauge,
		func() float64 { return float64(s.adm.queuedG.Load()) })
}

// Drain performs the SIGTERM sequence: stop admitting (everything new
// gets 503 + Retry-After), release the wait queue, give in-flight runs
// the grace window, then cancel the stragglers — each is cut by its
// RunContext at an exact virtual-time operation boundary and its
// partial report is still flushed to the client — and wait for every
// handler to finish. Idempotent; returns only when no session remains.
func (s *Server) Drain(grace time.Duration) {
	s.draining.Store(true)
	s.adm.beginDrain()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return
	case <-time.After(grace):
	}
	s.mu.Lock()
	for _, cancel := range s.inflight {
		cancel()
	}
	s.mu.Unlock()
	<-done
}

// RunError wraps a session failure with its service context (tenant,
// session id). It unwraps to the underlying *nvmap.SessionError chain,
// so errors.Is still sees context.DeadlineExceeded, context.Canceled
// and nvmap.ErrBudgetExceeded through the service layer.
type RunError struct {
	Tenant string
	ID     uint64
	Err    error
}

func (e *RunError) Error() string {
	return fmt.Sprintf("serve: session %d (tenant %q): %v", e.ID, e.Tenant, e.Err)
}

func (e *RunError) Unwrap() error { return e.Err }

// statsPayload is the /v1/stats body.
type statsPayload struct {
	Counters Counters               `json:"counters"`
	Inflight int64                  `json:"inflight"`
	Queued   int64                  `json:"queued"`
	Draining bool                   `json:"draining"`
	Tenants  map[string]TenantUsage `json:"tenants"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(statsPayload{
		Counters: s.Counters(),
		Inflight: s.adm.inflight.Load(),
		Queued:   s.adm.queuedG.Load(),
		Draining: s.draining.Load(),
		Tenants:  s.tenants.usage(),
	})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

// reject writes a structured rejection (the whole body is one Event).
func (s *Server) reject(w http.ResponseWriter, status int, kind, msg string, retryAfter int) {
	w.Header().Set("Content-Type", "application/json")
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(Event{Event: "error",
		Error: &ErrorInfo{Kind: kind, Message: msg, RetryAfterSec: retryAfter}})
}

// decodeRequest reads one JSON request body and validates it in place.
// Both POST handlers call it, so FuzzDecode drives exactly the path an
// untrusted body takes.
func (s *Server) decodeRequest(body io.Reader, req interface{ validate(maxNodes int) error }) error {
	if err := json.NewDecoder(body).Decode(req); err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	return req.validate(s.cfg.MaxNodes)
}

// validate normalises a session request in place and rejects malformed
// ones.
func (req *SessionRequest) validate(maxNodes int) error {
	if req.Source == "" && req.Scenario == "" {
		return errors.New("one of source or scenario is required")
	}
	if req.Scenario != "" && !ValidScenario(req.Scenario) {
		return fmt.Errorf("unknown scenario %q (valid: %v)", req.Scenario, ScenarioKinds)
	}
	if req.Nodes == 0 {
		req.Nodes = 8
	}
	if req.Nodes < 1 || req.Nodes > maxNodes {
		return fmt.Errorf("nodes %d out of range [1, %d]", req.Nodes, maxNodes)
	}
	if req.DeadlineMS < 0 {
		return fmt.Errorf("deadline_ms %d is negative", req.DeadlineMS)
	}
	if req.MaxVirtualTimeNS < 0 {
		return fmt.Errorf("max_virtual_time_ns %d is negative", req.MaxVirtualTimeNS)
	}
	for i, q := range req.Questions {
		if q.Text == "" {
			return fmt.Errorf("question %d has empty text", i)
		}
	}
	return nil
}

// handleSessions is the tenant entry point: admission, quota
// reservation, the run itself, and the NDJSON event stream back.
func (s *Server) handleSessions(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if s.draining.Load() {
		s.rejDraining.Add(1)
		s.reject(w, http.StatusServiceUnavailable, "draining", "daemon is draining", 5)
		return
	}
	var req SessionRequest
	if err := s.decodeRequest(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), &req); err != nil {
		s.badReq.Add(1)
		s.reject(w, http.StatusBadRequest, "bad_request", err.Error(), 0)
		return
	}

	// Quota first (cheap ledger check, fast reject), then the slot.
	runBudget, err := s.tenants.reserve(req.Tenant)
	if err != nil {
		s.rejQuota.Add(1)
		s.reject(w, http.StatusTooManyRequests, "rejected_quota", err.Error(), s.adm.retryAfter(s.cfg.AvgRun))
		return
	}
	queuedAt := time.Now()
	level, release, err := s.adm.admit(r.Context())
	if err != nil {
		s.tenants.settle(req.Tenant, 0, 0)
		switch {
		case errors.Is(err, ErrDraining):
			s.rejDraining.Add(1)
			s.reject(w, http.StatusServiceUnavailable, "draining", "daemon is draining", 5)
		case errors.Is(err, ErrBusy):
			s.rejBusy.Add(1)
			s.reject(w, http.StatusTooManyRequests, "rejected_busy",
				"run queue full", s.adm.retryAfter(s.cfg.AvgRun))
		default: // client went away while queued
			s.reject(w, http.StatusRequestTimeout, "cancelled", err.Error(), 0)
		}
		return
	}
	queueWait := time.Since(queuedAt)

	s.wg.Add(1)
	defer s.wg.Done()
	defer release()
	defer func() {
		if v := recover(); v != nil {
			// The session layer contains its own panics into typed
			// errors; this guard catches serve-layer bugs so one tenant
			// can never kill the daemon. The stream is already open, so
			// the best we can do is a final error event.
			s.panicked.Add(1)
			s.failed.Add(1)
			s.tenants.settle(req.Tenant, 0, 0)
			writeNDJSON(w, Event{Event: "error",
				Error: &ErrorInfo{Kind: "panicked", Message: fmt.Sprint(v)}})
		}
	}()
	s.admitted.Add(1)
	if level > 0 {
		s.shedRuns.Add(1)
	}

	s.mu.Lock()
	s.nextID++
	id := s.nextID
	s.mu.Unlock()

	s.runSession(w, r, id, &req, runBudget, level, queueWait)
}

// runSession owns an admitted request from session construction to the
// final event. It always settles the tenant ledger exactly once.
func (s *Server) runSession(w http.ResponseWriter, r *http.Request, id uint64,
	req *SessionRequest, runBudget nvmap.Budget, level int, queueWait time.Duration) {

	source := req.Source
	if source == "" {
		source = ScenarioProgram(req.Scenario, req.Seed)
	}
	opts := []nvmap.Option{
		nvmap.WithNodes(req.Nodes),
		nvmap.WithSourceFile(serveSourceName(req)),
	}
	if req.Fuse {
		opts = append(opts, nvmap.WithFuse())
	}
	if req.Scenario != "" {
		if plan, rc := ScenarioPlan(req.Scenario, req.Seed, req.Nodes); plan != nil {
			opts = append(opts, nvmap.WithFaults(plan))
			if rc != nil {
				opts = append(opts, nvmap.WithRecovery(*rc))
			}
		}
	}
	// The run always executes under a budget: the tenant's remaining
	// allowance intersected with the request's own cap. Even a fully
	// unlimited budget still meters ops and alloc bytes, which is what
	// the settle charge reads. Zero ceilings never shed and never cut,
	// so an unloaded serve run is byte-identical to a direct Session.Run.
	if cap := vtime.Duration(req.MaxVirtualTimeNS); cap > 0 &&
		(runBudget.MaxVirtualTime == 0 || cap < runBudget.MaxVirtualTime) {
		runBudget.MaxVirtualTime = cap
	}
	opts = append(opts, nvmap.WithBudget(runBudget))

	sess, err := nvmap.NewSession(source, opts...)
	if err != nil {
		s.badReq.Add(1)
		s.tenants.settle(req.Tenant, 0, 0)
		s.reject(w, http.StatusBadRequest, "bad_request", "compile: "+err.Error(), 0)
		return
	}
	// Fidelity priced at admission: pre-shed the tool to the granted
	// level. The budget governor can only raise it further.
	if level > 0 {
		sess.Tool.Shed(level)
	}

	type askedQ struct {
		spec  QuestionSpec
		asked *nvmap.AskedQuestion
	}
	var asked []askedQ
	if len(req.Questions) > 0 {
		mon := sess.EnableSASMonitor(true)
		for _, spec := range req.Questions {
			label := spec.Label
			if label == "" {
				label = spec.Text
			}
			aq, err := mon.Ask(label, spec.Text)
			if err != nil {
				s.badReq.Add(1)
				s.tenants.settle(req.Tenant, 0, 0)
				s.reject(w, http.StatusBadRequest, "bad_request",
					fmt.Sprintf("question %q: %v", spec.Text, err), 0)
				return
			}
			asked = append(asked, askedQ{spec: QuestionSpec{Label: label, Text: spec.Text}, asked: aq})
		}
	}
	var metrics []*paradyn.EnabledMetric
	for _, mid := range req.Metrics {
		em, err := sess.Tool.EnableMetric(mid, paradyn.WholeProgram())
		if err != nil {
			s.badReq.Add(1)
			s.tenants.settle(req.Tenant, 0, 0)
			s.reject(w, http.StatusBadRequest, "bad_request", "metric: "+err.Error(), 0)
			return
		}
		metrics = append(metrics, em)
	}

	// From here the stream is open: every outcome is an event, the
	// status is already 200.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	writeNDJSON(w, Event{Event: "admitted",
		Admitted: &AdmittedInfo{ShedLevel: level, QueueNS: queueWait.Nanoseconds()}})

	deadline := s.cfg.DefaultDeadline
	if req.DeadlineMS > 0 {
		deadline = time.Duration(req.DeadlineMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	defer cancel()
	s.mu.Lock()
	s.inflight[id] = cancel
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.inflight, id)
		s.mu.Unlock()
	}()

	started := time.Now()
	rep, runErr := sess.RunContext(ctx)
	wall := time.Since(started)
	now := sess.Now()
	if rep != nil {
		s.tenants.settle(req.Tenant, sess.Elapsed(), rep.Budget.AllocBytes)
	} else {
		s.tenants.settle(req.Tenant, sess.Elapsed(), 0)
	}

	// Answers flow even for cut runs: metric values and SAS results are
	// exact up to the cut instant — that is the whole point of cutting
	// at an operation boundary instead of killing the goroutine.
	for _, em := range metrics {
		writeNDJSON(w, Event{Event: "answer", Answer: &AnswerInfo{
			Metric:   em.Metric.ID,
			Value:    em.Value(now),
			Units:    em.Metric.Units,
			Degraded: em.Degraded(),
			Partial:  em.Partial(),
		}})
	}
	for _, q := range asked {
		res, err := q.asked.Answer(now)
		if err != nil {
			writeNDJSON(w, Event{Event: "error",
				Error: &ErrorInfo{Kind: "internal", Message: fmt.Sprintf("answer %q: %v", q.spec.Label, err)}})
			continue
		}
		writeNDJSON(w, Event{Event: "question", Question: &QuestionInfo{
			Label:           q.spec.Label,
			Count:           res.Count,
			EventTimeNS:     nsOf(res.EventTime),
			SatisfiedTimeNS: nsOf(res.SatisfiedTime),
			Satisfied:       res.Satisfied,
		}})
	}
	if rep != nil {
		writeNDJSON(w, Event{Event: "report", Report: reportInfo(rep)})
	}

	if runErr != nil {
		s.failed.Add(1)
		if rep != nil && rep.Cut != nil {
			s.cutRuns.Add(1)
		}
		werr := &RunError{Tenant: req.Tenant, ID: id, Err: runErr}
		writeNDJSON(w, Event{Event: "error",
			Error: &ErrorInfo{Kind: errKind(runErr), Message: werr.Error()}})
		return
	}
	s.completed.Add(1)
	writeNDJSON(w, Event{Event: "done", Done: &DoneInfo{
		ElapsedVirtualNS: nsOf(sess.Elapsed()),
		WallNS:           wall.Nanoseconds(),
	}})
}

// serveSourceName labels the compile unit; scenario runs share a name
// per (scenario, seed) so the process-wide compile memo can hit across
// tenants replaying the same workload.
func serveSourceName(req *SessionRequest) string {
	if req.Source != "" {
		return "tenant.fcm"
	}
	return fmt.Sprintf("%s-%d.fcm", req.Scenario, req.Seed)
}

// reportInfo converts the session report to wire form.
func reportInfo(rep *nvmap.DegradationReport) *ReportInfo {
	ri := &ReportInfo{
		Text:       rep.String(),
		Zero:       rep.Zero(),
		ShedLevel:  rep.Budget.ShedLevel,
		LostNodes:  rep.LostNodes,
		LostTimeNS: nsOf(rep.LostTime),
	}
	if c := rep.Cut; c != nil {
		ri.Cut = &CutInfo{
			Kind:   c.Kind.String(),
			Op:     c.Op,
			Node:   c.Node,
			AtNS:   nsOf(c.At.Sub(0)),
			Reason: c.Reason,
		}
	}
	return ri
}

// errKind maps a run error to its wire kind.
func errKind(err error) string {
	var serr *nvmap.SessionError
	if errors.As(err, &serr) {
		return serr.Kind.String()
	}
	return "internal"
}

// writeNDJSON emits one event line and flushes it to the client, so
// answers stream as they materialise rather than on request end.
func writeNDJSON(w http.ResponseWriter, ev Event) {
	b, err := json.Marshal(ev)
	if err != nil {
		return
	}
	_, _ = w.Write(append(b, '\n'))
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
}
