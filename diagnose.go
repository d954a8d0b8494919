package nvmap

import (
	"context"

	"nvmap/internal/diagnose"
	"nvmap/internal/obs"
	"nvmap/internal/paradyn"
)

// This file is the public doorway to the Performance Consultant: the
// budget-bounded why/where bottleneck search of Section 5, rebuilt on
// internal/diagnose. A diagnosis runs the program once with full
// instrumentation, answers as many hypothesis probes as it can from
// that single run's counters and classified idle spans, and replays the
// program with focus-constrained instrumentation only where the
// where-axis refinement needs an isolated number.

// DiagnoseConfig tunes a diagnosis search.
type DiagnoseConfig struct {
	// Budget caps probe evaluations, sampled and replayed alike
	// (0 selects diagnose.DefaultBudget; negative is rejected).
	Budget int
	// Threshold, when positive, overrides every hypothesis's own
	// confirmation threshold.
	Threshold float64
	// MaxDepth bounds where-axis refinement depth (0 selects
	// diagnose.DefaultMaxDepth).
	MaxDepth int
	// RefineStatements / RefineArrays gate the replay-based refinement
	// phases. NewSession-level diagnosis enables both by default; zero
	// value here means "default on" via Diagnose.
	DisableStatements bool
	DisableArrays     bool
	// OnFinding, when set, observes every finding the moment its probe
	// is evaluated (probe order, before the report tree is sorted). The
	// daemon's /v1/diagnose streams findings to the client through it.
	OnFinding func(diagnose.Finding)
}

// Diagnose runs the Performance Consultant over a program and returns
// the full diagnosis report: the findings tree plus the search's own
// cost accounting (probes run and pruned against the budget, virtual
// and wall time spent searching).
func Diagnose(source string, cfg DiagnoseConfig, opts ...Option) (*diagnose.Report, error) {
	return DiagnoseContext(context.Background(), source, cfg, opts...)
}

// DiagnoseContext is Diagnose under a context: cancellation cuts the
// in-flight base run or replay at a virtual-time boundary and the
// search returns that run's typed error.
func DiagnoseContext(ctx context.Context, source string, cfg DiagnoseConfig, opts ...Option) (*diagnose.Report, error) {
	c := paradyn.NewConsultant()
	c.Budget = cfg.Budget
	c.Threshold = cfg.Threshold
	c.MaxDepth = cfg.MaxDepth
	c.RefineStatements = !cfg.DisableStatements
	c.RefineArrays = !cfg.DisableArrays
	c.OnFinding = cfg.OnFinding
	// Every factory call builds a fresh, deterministic session over the
	// same program; ctx reaches every run, base and replay alike.
	return c.Diagnose(func() (*paradyn.Tool, func() error, error) {
		s, err := NewSession(source, opts...)
		if err != nil {
			return nil, nil, err
		}
		return s.Tool, func() error { _, err := s.RunContext(ctx); return err }, nil
	})
}

// RegisterDiagnosisCollectors publishes a diagnosis's search-cost
// accounting on an obs metrics registry as nvmap_consultant_* series.
// The report is read through the getter at snapshot time, so collectors
// can be registered before a search finishes (they read zero until the
// getter returns a report). Every series except the wall-clock one is
// deterministic — byte-stable metric goldens may include them; the wall
// reading is marked unstable and excluded from stable exports.
func RegisterDiagnosisCollectors(r *obs.Registry, rep func() *diagnose.Report) {
	read := func(f func(*diagnose.Report) float64) func() float64 {
		return func() float64 {
			if rp := rep(); rp != nil {
				return f(rp)
			}
			return 0
		}
	}
	r.Func("nvmap_consultant_probes_run_total", "Hypothesis-focus probes the diagnosis search evaluated.",
		obs.KindCounter, false, read(func(rp *diagnose.Report) float64 { return float64(rp.ProbesRun) }))
	r.Func("nvmap_consultant_probes_pruned_total", "Enqueued probes the search budget cut before evaluation.",
		obs.KindCounter, false, read(func(rp *diagnose.Report) float64 { return float64(rp.Pruned) }))
	r.Func("nvmap_consultant_hypotheses_confirmed", "Top-level hypotheses the diagnosis confirmed.",
		obs.KindGauge, false, read(func(rp *diagnose.Report) float64 { return float64(rp.Confirmed()) }))
	r.Func("nvmap_consultant_refinement_depth", "Deepest where-axis refinement level probed.",
		obs.KindGauge, false, read(func(rp *diagnose.Report) float64 { return float64(rp.MaxDepth) }))
	r.Func("nvmap_consultant_search_vtime_ns", "Virtual time spent acquiring probe measurements.",
		obs.KindCounter, false, read(func(rp *diagnose.Report) float64 { return float64(rp.SearchVTime) }))
	// Wall clock depends on host load, never on the program: unstable,
	// so byte-stable metric goldens skip it.
	r.Func("nvmap_consultant_search_wall_ns", "Host wall-clock the diagnosis search took.",
		obs.KindCounter, true, read(func(rp *diagnose.Report) float64 { return float64(rp.Wall) }))
}
