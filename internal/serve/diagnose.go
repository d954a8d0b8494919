package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"nvmap"
	"nvmap/internal/diagnose"
	"nvmap/internal/paradyn"
	"nvmap/internal/vtime"
)

// This file is the daemon's Performance Consultant surface:
// POST /v1/diagnose runs the budget-bounded why/where bottleneck search
// over a tenant program and streams every probe's finding back as an
// NDJSON event the moment it is evaluated, followed by the diagnosis
// summary. A diagnosis goes through the same admission control, tenant
// quotas and drain sequence as a plain session — it holds one run slot
// for its whole search (the base instrumented run plus every focused
// replay), and drain or deadline expiry cuts the in-flight replay at an
// exact virtual-time operation boundary, ending the stream with a
// typed error event after the findings already gathered.

// validate normalises a diagnosis request in place and rejects malformed
// ones.
func (req *DiagnoseRequest) validate(maxNodes int) error {
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
	if req.Budget < 0 {
		return fmt.Errorf("budget %d is negative (0 selects the default)", req.Budget)
	}
	if req.Threshold < 0 || req.Threshold >= 1 {
		return fmt.Errorf("threshold %g out of range [0, 1)", req.Threshold)
	}
	if req.MaxDepth < 0 {
		return fmt.Errorf("max_depth %d is negative", req.MaxDepth)
	}
	if req.DeadlineMS < 0 {
		return fmt.Errorf("deadline_ms %d is negative", req.DeadlineMS)
	}
	return nil
}

// handleDiagnose is the diagnosis entry point: the same admission,
// quota reservation and panic containment as handleSessions, then the
// streamed search.
func (s *Server) handleDiagnose(w http.ResponseWriter, r *http.Request) {
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
	var req DiagnoseRequest
	if err := s.decodeRequest(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), &req); err != nil {
		s.badReq.Add(1)
		s.reject(w, http.StatusBadRequest, "bad_request", err.Error(), 0)
		return
	}

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
		default:
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

	s.runDiagnose(w, r, id, &req, runBudget, level, queueWait)
}

// runDiagnose owns an admitted diagnosis from compile check to the
// final event. It always settles the tenant ledger exactly once,
// charging the search's total virtual time (base run plus replays).
func (s *Server) runDiagnose(w http.ResponseWriter, r *http.Request, id uint64,
	req *DiagnoseRequest, runBudget nvmap.Budget, level int, queueWait time.Duration) {

	source := req.Source
	if source == "" {
		source = ScenarioProgram(req.Scenario, req.Seed)
	}
	name := "tenant.fcm"
	if req.Source == "" {
		name = fmt.Sprintf("%s-%d.fcm", req.Scenario, req.Seed)
	}
	opts := []nvmap.Option{
		nvmap.WithNodes(req.Nodes),
		nvmap.WithSourceFile(name),
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
	opts = append(opts, nvmap.WithBudget(runBudget))

	// Compile once before the stream opens so a bad program is still a
	// clean 400, not a mid-stream error; the compile memo makes the
	// search's own sessions hit this work.
	if _, err := nvmap.NewSession(source, opts...); err != nil {
		s.badReq.Add(1)
		s.tenants.settle(req.Tenant, 0, 0)
		s.reject(w, http.StatusBadRequest, "bad_request", "compile: "+err.Error(), 0)
		return
	}

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

	c := paradyn.NewConsultant()
	c.Budget = req.Budget
	c.Threshold = req.Threshold
	c.MaxDepth = req.MaxDepth
	// The engine evaluates probes sequentially on this goroutine, so
	// streaming from the hook needs no synchronisation. vtimeSpent is
	// the settle fallback for searches that die mid-way (the report
	// carries the exact total otherwise).
	var vtimeSpent vtime.Duration
	c.OnFinding = func(f diagnose.Finding) {
		vtimeSpent += f.Cost
		writeNDJSON(w, Event{Event: "finding", Finding: &FindingInfo{
			Hypothesis: f.Hypothesis,
			Focus:      f.Focus,
			Fraction:   f.Fraction,
			Threshold:  f.Threshold,
			Confirmed:  f.Confirmed,
			Source:     f.Source.String(),
			Depth:      f.Depth,
			Seq:        f.Seq,
			CostNS:     nsOf(f.Cost),
		}})
	}
	factory := func() (*paradyn.Tool, func() error, error) {
		sess, err := nvmap.NewSession(source, opts...)
		if err != nil {
			return nil, nil, err
		}
		// Fidelity priced at admission, like sessions: every run of the
		// search is pre-shed to the granted level.
		if level > 0 {
			sess.Tool.Shed(level)
		}
		run := func() error { _, err := sess.RunContext(ctx); return err }
		return sess.Tool, run, nil
	}

	started := time.Now()
	rep, runErr := c.Diagnose(factory)
	wall := time.Since(started)

	if rep != nil {
		vtimeSpent = rep.SearchVTime
	}
	s.tenants.settle(req.Tenant, vtimeSpent, 0)

	if runErr != nil {
		s.failed.Add(1)
		if errors.Is(runErr, context.Canceled) || errors.Is(runErr, context.DeadlineExceeded) {
			s.cutRuns.Add(1)
		}
		werr := &RunError{Tenant: req.Tenant, ID: id, Err: runErr}
		writeNDJSON(w, Event{Event: "error",
			Error: &ErrorInfo{Kind: errKind(runErr), Message: werr.Error()}})
		return
	}
	writeNDJSON(w, Event{Event: "diagnosis", Diagnosis: &DiagnosisInfo{
		Text:          rep.Text(),
		Confirmed:     rep.Confirmed(),
		ProbesRun:     rep.ProbesRun,
		Pruned:        rep.Pruned,
		Budget:        rep.Budget,
		MaxDepth:      rep.MaxDepth,
		SearchVTimeNS: nsOf(rep.SearchVTime),
	}})
	s.completed.Add(1)
	writeNDJSON(w, Event{Event: "done", Done: &DoneInfo{
		ElapsedVirtualNS: nsOf(rep.SearchVTime),
		WallNS:           wall.Nanoseconds(),
	}})
}
