package serve

import (
	"context"
	"fmt"
	"net/http"

	"nvmap"
	"nvmap/internal/diagnose"
	"nvmap/internal/paradyn"
)

// This file is the daemon's Performance Consultant route:
// POST /v1/diagnose runs the budget-bounded why/where bottleneck search
// over a tenant program and streams every probe's finding back as an
// NDJSON event the moment it is evaluated, followed by the diagnosis
// summary. A diagnosis goes through the same pipeline as a plain
// session — admission, tenant quotas, deadline and drain — and holds
// one run slot for its whole search (the base instrumented run plus
// every focused replay). Each of the search's sessions runs under the
// tenant allowance left after the sessions before it, and the tenant
// is charged the virtual time and allocation bytes of every session the
// search ran. Drain,
// deadline expiry or an exhausted allowance cuts the in-flight run at
// an exact virtual-time operation boundary, ending the stream with a
// typed error event after the findings already gathered.

func (req *DiagnoseRequest) program() program {
	return program{req.Tenant, req.Source, req.Scenario, req.Seed, req.Nodes, req.Fuse, req.DeadlineMS, 0}
}

// validate normalises a diagnosis request in place and rejects malformed
// ones.
func (req *DiagnoseRequest) validate(maxNodes int) error {
	nodes, err := req.program().validate(maxNodes)
	if err != nil {
		return err
	}
	req.Nodes = nodes
	if req.Budget < 0 {
		return fmt.Errorf("budget %d is negative (0 selects the default)", req.Budget)
	}
	if req.Threshold < 0 || req.Threshold >= 1 {
		return fmt.Errorf("threshold %g out of range [0, 1)", req.Threshold)
	}
	if req.MaxDepth < 0 {
		return fmt.Errorf("max_depth %d is negative", req.MaxDepth)
	}
	return nil
}

// start is the diagnosis route's middle: the search's base run reuses
// the session the pipeline compiled, and every replay builds a fresh
// one under what is left of the allowance.
func (req *DiagnoseRequest) start(j *job, first *nvmap.Session) (func(context.Context, http.ResponseWriter) outcome, error) {
	return func(ctx context.Context, w http.ResponseWriter) (out outcome) {
		c := paradyn.NewConsultant()
		c.Budget = req.Budget
		c.Threshold = req.Threshold
		c.MaxDepth = req.MaxDepth
		// The engine evaluates probes sequentially on this goroutine, so
		// streaming from the hook needs no synchronisation.
		c.OnFinding = func(f diagnose.Finding) {
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
		rep, err := c.Diagnose(func() (*paradyn.Tool, func() error, error) {
			sess := first
			if sess == nil {
				var err error
				if sess, err = j.session(); err != nil {
					return nil, nil, err
				}
			}
			first = nil
			// Every session the search runs is charged, a cut one up to
			// its cut.
			run := func() error {
				_, err := j.run(ctx, sess)
				return err
			}
			return sess.Tool, run, nil
		})
		if out.err = err; err == nil {
			out.after = func(w http.ResponseWriter) {
				writeNDJSON(w, Event{Event: "diagnosis", Diagnosis: &DiagnosisInfo{
					Text:          rep.Text(),
					Confirmed:     rep.Confirmed(),
					ProbesRun:     rep.ProbesRun,
					Pruned:        rep.Pruned,
					Budget:        rep.Budget,
					MaxDepth:      rep.MaxDepth,
					SearchVTimeNS: nsOf(rep.SearchVTime),
				}})
			}
		}
		return out
	}, nil
}
