package paradyn

import (
	"errors"
	"sync"
	"testing"

	"nvmap/internal/diagnose"
	"nvmap/internal/machine"
	"nvmap/internal/vtime"
)

// TestConsultantConcurrentSearches runs two full diagnoses at once over
// independent sessions. The sessions share nothing but the process-wide
// noun/verb interner, which must tolerate concurrent readers and
// writers — this test exists to run under -race.
func TestConsultantConcurrentSearches(t *testing.T) {
	fa := factoryFor(t, computeHeavy, 4, nil)
	fb := factoryFor(t, commHeavy, 4, nil)
	var wg sync.WaitGroup
	results := make([]*diagnose.Report, 2)
	errs := make([]error, 2)
	for i, f := range []AppFactory{fa, fb} {
		wg.Add(1)
		go func(i int, f AppFactory) {
			defer wg.Done()
			c := NewConsultant()
			results[i], errs[i] = c.Diagnose(f)
		}(i, f)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("search %d: %v", i, err)
		}
		if results[i] == nil || results[i].ProbesRun == 0 {
			t.Fatalf("search %d produced no probes: %+v", i, results[i])
		}
	}
	// The compute-heavy session must confirm CPUBound, the comm-heavy one
	// must not — proving the concurrent sessions did not bleed state.
	cpuConfirmed := func(rep *diagnose.Report) bool {
		for _, r := range rep.Roots {
			if r.Hypothesis == HypCPUBound {
				return r.Confirmed
			}
		}
		return false
	}
	if !cpuConfirmed(results[0]) {
		t.Fatalf("compute-heavy session lost CPUBound: %s", results[0].Text())
	}
	if cpuConfirmed(results[1]) {
		t.Fatalf("comm-heavy session confirmed CPUBound: %s", results[1].Text())
	}
}

// TestConsultantDiagnoseReportShape checks the full report carries the
// search-cost accounting the flattened Search view drops.
func TestConsultantDiagnoseReportShape(t *testing.T) {
	c := NewConsultant()
	rep, err := c.Diagnose(factoryFor(t, computeHeavy, 4, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Roots) != len(DefaultHypotheses()) {
		t.Fatalf("roots = %d, want one per hypothesis", len(rep.Roots))
	}
	if rep.ProbesRun == 0 || rep.SearchVTime == 0 {
		t.Fatalf("cost accounting missing: %+v", rep)
	}
	if rep.Budget != diagnose.DefaultBudget {
		t.Fatalf("budget = %d", rep.Budget)
	}
	// The base run's cost is charged exactly once, to the first probe.
	first := 0
	rep.Walk(func(f *diagnose.Finding) {
		if f.Seq == 0 && f.Cost > 0 {
			first++
		}
	})
	if first != 1 {
		t.Fatalf("base-run cost not charged to the first probe")
	}
}

// TestConsultantBudgetRespected cuts the search short and checks the
// exact pruning arithmetic survives the paradyn adapter.
func TestConsultantBudgetRespected(t *testing.T) {
	c := NewConsultant()
	c.Budget = 6
	rep, err := c.Diagnose(factoryFor(t, computeHeavy, 4, nil))
	if err != nil {
		t.Fatal(err)
	}
	if rep.ProbesRun != 6 {
		t.Fatalf("probes run = %d, want 6", rep.ProbesRun)
	}
	if rep.Pruned == 0 {
		t.Fatalf("budget cut nothing on a refining search: %+v", rep)
	}
	full, err := NewConsultant().Diagnose(factoryFor(t, computeHeavy, 4, nil))
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.ProbesRun + rep.Pruned; got > full.ProbesRun+full.Pruned && full.Pruned == 0 {
		t.Fatalf("run+pruned = %d exceeds the full frontier %d", got, full.ProbesRun)
	}

	// Cut inside the sibling group: the CPUBound refinement's statement
	// and array probes share one replay, and the budget stops two probes
	// into it. The accounting stays exact and the replay is charged once.
	sampled := 0
	full.Walk(func(f *diagnose.Finding) {
		if f.Source == diagnose.SourceSampled {
			sampled++
		}
	})
	if full.Replays != 1 || full.ProbesRun-sampled < 3 {
		t.Fatalf("full search: %d replays for %d re-run probes, want 1 for at least 3\n%s",
			full.Replays, full.ProbesRun-sampled, full.Text())
	}
	c = NewConsultant()
	c.Budget = sampled + 2
	mid, err := c.Diagnose(factoryFor(t, computeHeavy, 4, nil))
	if err != nil {
		t.Fatal(err)
	}
	if mid.ProbesRun != c.Budget || mid.ProbesRun+mid.Pruned != full.ProbesRun {
		t.Fatalf("mid-group cut: run %d + pruned %d, want %d + %d",
			mid.ProbesRun, mid.Pruned, c.Budget, full.ProbesRun-c.Budget)
	}
	charged, cost := 0, vtime.Duration(0)
	mid.Walk(func(f *diagnose.Finding) {
		cost += f.Cost
		if f.Source == diagnose.SourceRerun && f.Cost > 0 {
			charged++
		}
	})
	if mid.Replays != 1 || charged != 1 || cost != mid.SearchVTime || mid.SearchVTime != full.SearchVTime {
		t.Fatalf("mid-group cut: %d replays, %d probes charged for one, cost %v / search vtime %v, full search %v",
			mid.Replays, charged, cost, mid.SearchVTime, full.SearchVTime)
	}
}

// TestConsultantFailedReplayCachesNothing fails the first shared replay
// and the route recording after they ran to the end: the probe returns
// the run's error, and the next probe runs the replay again instead of
// reading measurements from the failed run.
func TestConsultantFailedReplayCachesNothing(t *testing.T) {
	torus := func(cfg *machine.Config) {
		cfg.Topology = &machine.Topology{GridX: 4, GridY: 1, Torus: true, LinkHop: 40 * vtime.Microsecond}
	}
	for _, tc := range []struct {
		name, src, hyp string
		cfgMut         func(*machine.Config)
		cached         func(*consultSession) bool
	}{
		{"sibling group", computeHeavy, HypCPUBound, nil, func(cs *consultSession) bool {
			for _, g := range cs.groups {
				if g.got != nil {
					return true
				}
			}
			return false
		}},
		{"route recording", commHeavy, HypCommBound, torus, func(cs *consultSession) bool { return cs.routes != nil }},
	} {
		inner := factoryFor(t, tc.src, 4, tc.cfgMut)
		errCut := errors.New("replay cut")
		calls := 0
		factory := func() (*Tool, func() error, error) {
			tool, run, err := inner()
			calls++
			if calls == 2 { // the first replay after the base run
				return tool, func() error { _ = run(); return errCut }, err
			}
			return tool, run, err
		}
		cs, err := newConsultSession(NewConsultant(), factory)
		if err != nil {
			t.Fatal(err)
		}
		replayedChildren := func(parent string) (out []string) {
			for _, f := range cs.Children(tc.hyp, parent) {
				if cs.kindOf(tc.hyp, parseFocus(f)) != probeSampled {
					out = append(out, f)
				}
			}
			return out
		}
		// The whole program's replayed children, then (statement × link
		// in the route case) those of the first of them.
		replayed := replayedChildren(diagnose.FocusWholeProgram)
		if len(replayed) > 0 {
			replayed = append(replayed, replayedChildren(replayed[0])...)
		}
		if len(replayed) < 2 {
			t.Fatalf("%s: %d replayed children, want at least 2", tc.name, len(replayed))
		}
		if _, err := cs.Eval(tc.hyp, replayed[0]); !errors.Is(err, errCut) {
			t.Fatalf("%s: failed replay returned %v", tc.name, err)
		}
		if tc.cached(cs) {
			t.Fatalf("%s: a failed replay left measurements behind", tc.name)
		}
		m, err := cs.Eval(tc.hyp, replayed[1])
		if err != nil || m.Runs != 1 || m.Cost == 0 || calls != 3 {
			t.Fatalf("%s: probe after the failure: %+v, %v, %d factory calls", tc.name, m, err, calls)
		}
		if m, err := cs.Eval(tc.hyp, replayed[0]); err != nil || m.Runs != 0 || m.Cost != 0 || calls != 3 {
			t.Fatalf("%s: sibling of the retried replay: %+v, %v, %d factory calls", tc.name, m, err, calls)
		}
	}
}

func BenchmarkConsultantSearch(b *testing.B) {
	fa := factoryFor(b, computeHeavy, 4, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := NewConsultant()
		if _, err := c.Diagnose(fa); err != nil {
			b.Fatal(err)
		}
	}
}
