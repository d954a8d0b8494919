package serve

import (
	"cmp"
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
	mux.HandleFunc("/v1/sessions", func(w http.ResponseWriter, r *http.Request) { s.handle(w, r, new(SessionRequest)) })
	mux.HandleFunc("/v1/diagnose", func(w http.ResponseWriter, r *http.Request) { s.handle(w, r, new(DiagnoseRequest)) })
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
// Both POST routes call it, so FuzzDecode drives exactly the path an
// untrusted body takes.
func (s *Server) decodeRequest(body io.Reader, req request) error {
	if err := json.NewDecoder(body).Decode(req); err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	return req.validate(s.cfg.MaxNodes)
}

// program is the half of a request both kinds share: which program
// runs, on which partition and fault composition, for how long, and
// whose quota pays for it.
type program struct {
	tenant, source, scenario string
	seed                     int64
	nodes                    int
	fuse                     bool
	deadlineMS               int64
	maxVirtualTimeNS         int64 // the request's own cap; sessions only
}

// validate rejects malformed program fields and returns the partition
// size, defaulted to 8 nodes.
func (p program) validate(maxNodes int) (int, error) {
	if p.source == "" && p.scenario == "" {
		return 0, errors.New("one of source or scenario is required")
	}
	if p.scenario != "" && !ValidScenario(p.scenario) {
		return 0, fmt.Errorf("unknown scenario %q (valid: %v)", p.scenario, ScenarioKinds)
	}
	nodes := cmp.Or(p.nodes, 8)
	if nodes < 1 || nodes > maxNodes {
		return 0, fmt.Errorf("nodes %d out of range [1, %d]", nodes, maxNodes)
	}
	if p.deadlineMS < 0 {
		return 0, fmt.Errorf("deadline_ms %d is negative", p.deadlineMS)
	}
	if p.maxVirtualTimeNS < 0 {
		return 0, fmt.Errorf("max_virtual_time_ns %d is negative", p.maxVirtualTimeNS)
	}
	return nodes, nil
}

// job is an admitted program ready to run: its source, the session
// options it names, the request's allowance (the tenant's remaining
// quota intersected with the request's cap), the fidelity admission
// granted, and the request's one meter — the virtual time and
// allocation bytes every session built so far consumed. Each session
// runs under the allowance less the meter, and the tenant ledger
// settles from the meter.
type job struct {
	source string
	opts   []nvmap.Option
	budget nvmap.Budget
	level  int
	spent  vtime.Duration
	alloc  int64
}

// newJob resolves a program into session options. Scenario runs share
// a source name per (scenario, seed) so the process-wide compile memo
// hits across tenants replaying the same workload.
func newJob(p program, allowance nvmap.Budget, level int) *job {
	j := &job{source: p.source, budget: allowance, level: level}
	name := "tenant.fcm"
	if p.source == "" {
		j.source = ScenarioProgram(p.scenario, p.seed)
		name = fmt.Sprintf("%s-%d.fcm", p.scenario, p.seed)
	}
	// Room for every option a program names plus the budget slot that
	// session fills.
	j.opts = append(make([]nvmap.Option, 0, 5), nvmap.WithNodes(p.nodes), nvmap.WithSourceFile(name))
	if p.fuse {
		j.opts = append(j.opts, nvmap.WithFuse())
	}
	if p.scenario != "" {
		if plan, rc := ScenarioPlan(p.scenario, p.seed, p.nodes); plan != nil {
			j.opts = append(j.opts, nvmap.WithFaults(plan))
			if rc != nil {
				j.opts = append(j.opts, nvmap.WithRecovery(*rc))
			}
		}
	}
	if cap := vtime.Duration(p.maxVirtualTimeNS); cap > 0 &&
		(j.budget.MaxVirtualTime == 0 || cap < j.budget.MaxVirtualTime) {
		j.budget.MaxVirtualTime = cap
	}
	return j
}

// session builds the job's next run under the allowance its meter
// leaves. Every run executes under a budget: even a fully unlimited one
// still meters ops and alloc bytes, which is what the charge reads, and
// zero ceilings never shed and never cut, so an unloaded serve run is
// byte-identical to a direct Session.Run. An allowance already used up
// cuts the run at once (a ceiling of 1 ns or 1 byte) instead of lifting
// the cap. Fidelity is priced at
// admission: the run is pre-shed to the granted level, and the budget
// governor can only raise it further. The budget goes in the options'
// spare slot, which is safe because a job builds its sessions one at a
// time and NewSession reads its options before it returns.
func (j *job) session() (*nvmap.Session, error) {
	b := j.budget
	if b.MaxVirtualTime > 0 {
		b.MaxVirtualTime = max(b.MaxVirtualTime-j.spent, 1)
	}
	if b.MaxAllocBytes > 0 {
		b.MaxAllocBytes = max(b.MaxAllocBytes-j.alloc, 1)
	}
	sess, err := nvmap.NewSession(j.source, append(j.opts, nvmap.WithBudget(b))...)
	if err != nil {
		return nil, err
	}
	if j.level > 0 {
		sess.Tool.Shed(j.level)
	}
	return sess, nil
}

// run runs one of the job's sessions and adds what it consumed — a cut
// run up to its cut — to the job's meter.
func (j *job) run(ctx context.Context, sess *nvmap.Session) (*nvmap.DegradationReport, error) {
	rep, err := sess.RunContext(ctx)
	j.spent += sess.Elapsed()
	if rep != nil {
		j.alloc += rep.Budget.AllocBytes
	}
	return rep, err
}

// request is one POST route's body. Both kinds name a program; start
// is the route's own middle of the pipeline. It readies the route on
// the job's first session — an error is the client's, answered with a
// 400 before the stream opens — and returns the run.
type request interface {
	validate(maxNodes int) error
	program() program
	start(j *job, first *nvmap.Session) (run func(ctx context.Context, w http.ResponseWriter) outcome, err error)
}

// outcome is what a route's run hands back to the pipeline; what the
// run consumed is on the job's meter.
type outcome struct {
	err error
	// after, when set, streams the route's events that follow the
	// ledger's settle and precede the final event.
	after func(w http.ResponseWriter)
}

// handle is the one request pipeline both POST routes run: admit
// (method, drain, decode, quota, run slot), build (the program's first
// session and the route's setup), stream (the route's run under the
// request's deadline), settle (the tenant ledger, exactly once), and
// the final done or error event.
func (s *Server) handle(w http.ResponseWriter, r *http.Request, req request) {
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
	if err := s.decodeRequest(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), req); err != nil {
		s.badReq.Add(1)
		s.reject(w, http.StatusBadRequest, "bad_request", err.Error(), 0)
		return
	}
	p := req.program()

	// Quota first (cheap ledger check, fast reject), then the slot. A
	// reservation is settled exactly once: with what the run consumed
	// as soon as it ends, or with nothing on an exit before that (a
	// rejection, a 400, a panic).
	allowance, err := s.tenants.reserve(p.tenant)
	if err != nil {
		s.rejQuota.Add(1)
		s.reject(w, http.StatusTooManyRequests, "rejected_quota", err.Error(), s.adm.retryAfter(s.cfg.AvgRun))
		return
	}
	settled := false
	settle := func(elapsed vtime.Duration, allocBytes int64) {
		if !settled {
			settled = true
			s.tenants.settle(p.tenant, elapsed, allocBytes)
		}
	}
	defer settle(0, 0)
	queuedAt := time.Now()
	level, release, err := s.adm.admit(r.Context())
	if err != nil {
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

	j := newJob(p, allowance, level)
	sess, err := j.session()
	if err != nil {
		s.badReq.Add(1)
		s.reject(w, http.StatusBadRequest, "bad_request", "compile: "+err.Error(), 0)
		return
	}
	run, err := req.start(j, sess)
	if err != nil {
		s.badReq.Add(1)
		s.reject(w, http.StatusBadRequest, "bad_request", err.Error(), 0)
		return
	}

	// From here the stream is open: every outcome is an event, the
	// status is already 200.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	writeNDJSON(w, Event{Event: "admitted",
		Admitted: &AdmittedInfo{ShedLevel: level, QueueNS: queueWait.Nanoseconds()}})

	deadline := s.cfg.DefaultDeadline
	if p.deadlineMS > 0 {
		deadline = time.Duration(p.deadlineMS) * time.Millisecond
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
	out := run(ctx, w)
	wall := time.Since(started)
	settle(j.spent, j.alloc)
	if out.after != nil {
		out.after(w)
	}
	if out.err != nil {
		s.failed.Add(1)
		// A typed session error is a run cut at a virtual-time boundary
		// (deadline, drain, budget, stall, contained panic).
		kind := "internal"
		var serr *nvmap.SessionError
		if errors.As(out.err, &serr) {
			s.cutRuns.Add(1)
			kind = serr.Kind.String()
		}
		werr := &RunError{Tenant: p.tenant, ID: id, Err: out.err}
		writeNDJSON(w, Event{Event: "error", Error: &ErrorInfo{Kind: kind, Message: werr.Error()}})
		return
	}
	s.completed.Add(1)
	writeNDJSON(w, Event{Event: "done", Done: &DoneInfo{
		ElapsedVirtualNS: nsOf(j.spent),
		WallNS:           wall.Nanoseconds(),
	}})
}

func (req *SessionRequest) program() program {
	return program{req.Tenant, req.Source, req.Scenario, req.Seed, req.Nodes, req.Fuse, req.DeadlineMS, req.MaxVirtualTimeNS}
}

// validate normalises a session request in place and rejects malformed
// ones.
func (req *SessionRequest) validate(maxNodes int) error {
	nodes, err := req.program().validate(maxNodes)
	if err != nil {
		return err
	}
	req.Nodes = nodes
	for i, q := range req.Questions {
		if q.Text == "" {
			return fmt.Errorf("question %d has empty text", i)
		}
	}
	return nil
}

// start is the session route's middle: register the SAS questions and
// enable the metrics, then run once and answer them.
func (req *SessionRequest) start(j *job, sess *nvmap.Session) (func(context.Context, http.ResponseWriter) outcome, error) {
	type askedQ struct {
		label string
		asked *nvmap.AskedQuestion
	}
	asked := make([]askedQ, 0, len(req.Questions))
	if len(req.Questions) > 0 {
		mon := sess.EnableSASMonitor(true)
		for _, spec := range req.Questions {
			label := cmp.Or(spec.Label, spec.Text)
			aq, err := mon.Ask(label, spec.Text)
			if err != nil {
				return nil, fmt.Errorf("question %q: %v", spec.Text, err)
			}
			asked = append(asked, askedQ{label, aq})
		}
	}
	metrics := make([]*paradyn.EnabledMetric, 0, len(req.Metrics))
	for _, mid := range req.Metrics {
		em, err := sess.Tool.EnableMetric(mid, paradyn.WholeProgram())
		if err != nil {
			return nil, fmt.Errorf("metric: %v", err)
		}
		metrics = append(metrics, em)
	}
	return func(ctx context.Context, _ http.ResponseWriter) outcome {
		rep, err := j.run(ctx, sess)
		out := outcome{err: err}
		// Answers flow even for cut runs: metric values and SAS results
		// are exact up to the cut instant — that is the whole point of
		// cutting at an operation boundary instead of killing the
		// goroutine.
		out.after = func(w http.ResponseWriter) {
			now := sess.Now()
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
						Error: &ErrorInfo{Kind: "internal", Message: fmt.Sprintf("answer %q: %v", q.label, err)}})
					continue
				}
				writeNDJSON(w, Event{Event: "question", Question: &QuestionInfo{
					Label:           q.label,
					Count:           res.Count,
					EventTimeNS:     nsOf(res.EventTime),
					SatisfiedTimeNS: nsOf(res.SatisfiedTime),
					Satisfied:       res.Satisfied,
				}})
			}
			if rep != nil {
				writeNDJSON(w, Event{Event: "report", Report: reportInfo(rep)})
			}
		}
		return out
	}, nil
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
