package obs

import (
	"fmt"
	"sort"
	"strings"

	"nvmap/internal/vtime"
)

// StageCost is one stage's share of the tool's self-cost during a run.
type StageCost struct {
	Stage Stage
	// Spans is how many spans the stage recorded during the run.
	Spans uint64
	// VTime is the stage's summed virtual-time extent.
	VTime vtime.Duration
	// Wall and SelfWall are the stage's inclusive and exclusive
	// wall-clock cost in host nanoseconds. SelfWall values over all
	// stages are disjoint and sum to (at most) RunWall.
	Wall     int64
	SelfWall int64
}

// LevelCost aggregates stage costs per abstraction level.
type LevelCost struct {
	Level    Level
	Spans    uint64
	SelfWall int64
}

// PerturbationReport is the tool's instrumentation-cost accounting for
// one Session.Run: every wall-clock nanosecond of the run, attributed
// to the named pipeline stage that spent it — the paper's §5–§6
// instrumentation-cost discussion applied to the tool itself. Wall
// values are host measurements and vary run to run; the report's
// structure (which stages ran, how many spans, their virtual-time
// totals) is deterministic.
type PerturbationReport struct {
	// RunWall is the measured wall-clock duration of Session.Run in
	// host nanoseconds.
	RunWall int64
	// Stages lists every stage that recorded spans during the run, in
	// stage order.
	Stages []StageCost
	// Unattributed is RunWall minus the summed exclusive self-cost of
	// all stages: time the run spent outside any instrumented span
	// (clamped at zero).
	Unattributed int64
}

// BuildPerturbation diffs two stage-totals snapshots taken around a run
// and attributes the measured runWall across them.
func BuildPerturbation(before, after [NumStages]StageTotals, runWall int64) PerturbationReport {
	r := PerturbationReport{RunWall: runWall}
	var attributed int64
	for i := 0; i < NumStages; i++ {
		d := StageTotals{
			Spans: after[i].Spans - before[i].Spans,
			VTime: after[i].VTime - before[i].VTime,
			Wall:  after[i].Wall - before[i].Wall,
			Self:  after[i].Self - before[i].Self,
		}
		if d.Spans == 0 {
			continue
		}
		r.Stages = append(r.Stages, StageCost{
			Stage:    Stage(i),
			Spans:    d.Spans,
			VTime:    vtime.Duration(d.VTime),
			Wall:     d.Wall,
			SelfWall: d.Self,
		})
		attributed += d.Self
	}
	if runWall > attributed {
		r.Unattributed = runWall - attributed
	}
	return r
}

// Attributed returns the fraction of RunWall attributed to named
// stages, in [0, 1]. The acceptance bar is >= 0.95.
func (r PerturbationReport) Attributed() float64 {
	if r.RunWall <= 0 {
		return 1
	}
	return float64(r.RunWall-r.Unattributed) / float64(r.RunWall)
}

// ByLevel folds the stage costs into abstraction levels, largest
// self-cost first (ties broken by level name for determinism).
func (r PerturbationReport) ByLevel() []LevelCost {
	acc := map[Level]*LevelCost{}
	for _, s := range r.Stages {
		lv := s.Stage.Level()
		c := acc[lv]
		if c == nil {
			c = &LevelCost{Level: lv}
			acc[lv] = c
		}
		c.Spans += s.Spans
		c.SelfWall += s.SelfWall
	}
	out := make([]LevelCost, 0, len(acc))
	for _, c := range acc {
		out = append(out, *c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfWall != out[j].SelfWall {
			return out[i].SelfWall > out[j].SelfWall
		}
		return out[i].Level < out[j].Level
	})
	return out
}

// Structure renders the deterministic part of the report — stage
// sentences, span counts and virtual-time totals, without wall values —
// identical from run to run for the same workload.
func (r PerturbationReport) Structure() string {
	var b strings.Builder
	for _, s := range r.Stages {
		fmt.Fprintf(&b, "%-28s spans=%-7d vtime=%s\n", s.Stage.Sentence(), s.Spans, s.VTime)
	}
	return b.String()
}

// String renders the full report as a table: per-stage self-cost with
// percentages of the measured run wall, a per-level summary, and the
// attribution fraction. Wall values are host measurements
// (nondeterministic); use Structure for golden comparison.
func (r PerturbationReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "perturbation report: run wall %s, %.1f%% attributed\n",
		fmtNanos(r.RunWall), 100*r.Attributed())
	fmt.Fprintf(&b, "  %-28s %8s %14s %14s %7s\n", "stage", "spans", "vtime", "self-wall", "%run")
	for _, s := range r.Stages {
		pct := 0.0
		if r.RunWall > 0 {
			pct = 100 * float64(s.SelfWall) / float64(r.RunWall)
		}
		fmt.Fprintf(&b, "  %-28s %8d %14s %14s %6.2f%%\n",
			s.Stage.Sentence(), s.Spans, s.VTime, fmtNanos(s.SelfWall), pct)
	}
	pct := 0.0
	if r.RunWall > 0 {
		pct = 100 * float64(r.Unattributed) / float64(r.RunWall)
	}
	fmt.Fprintf(&b, "  %-28s %8s %14s %14s %6.2f%%\n", "(unattributed)", "", "", fmtNanos(r.Unattributed), pct)
	fmt.Fprintf(&b, "by level:\n")
	for _, c := range r.ByLevel() {
		lpct := 0.0
		if r.RunWall > 0 {
			lpct = 100 * float64(c.SelfWall) / float64(r.RunWall)
		}
		fmt.Fprintf(&b, "  %-12s %8d spans %14s %6.2f%%\n", c.Level, c.Spans, fmtNanos(c.SelfWall), lpct)
	}
	return b.String()
}
