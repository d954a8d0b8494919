package nvmap

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"nvmap/internal/diagnose"
	"nvmap/internal/obs"
)

var updateDiagGoldens = flag.Bool("update-diag-goldens", false,
	"rewrite testdata/diag_*.golden from this run's diagnosis reports")

// diagnoseScenario runs one corpus scenario's diagnosis.
func diagnoseScenario(t testing.TB, sc DiagScenario) *diagnose.Report {
	t.Helper()
	rep, err := Diagnose(sc.Source, DiagnoseConfig{}, sc.Opts...)
	if err != nil {
		t.Fatalf("%s: %v", sc.Name, err)
	}
	return rep
}

// TestDiagnosisCorpusGoldens is the planted-root-cause contract: each
// pathological program's diagnosis must confirm exactly its planted
// hypothesis at the whole-program focus, and the full text report must
// match its golden byte for byte.
func TestDiagnosisCorpusGoldens(t *testing.T) {
	for _, sc := range DiagnosisCorpus() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			rep := diagnoseScenario(t, sc)
			for _, root := range rep.Roots {
				if root.Confirmed != (root.Hypothesis == sc.Planted) {
					t.Errorf("%s: top-level %s confirmed=%v, want planted cause %s and only it\n%s",
						sc.Name, root.Hypothesis, root.Confirmed, sc.Planted, rep.Text())
				}
			}
			text := rep.Text()

			path := filepath.Join("testdata", "diag_"+sc.Name+".golden")
			if *updateDiagGoldens {
				if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run go test -update-diag-goldens to create)", err)
			}
			if string(want) != text {
				t.Errorf("%s drifted from golden; regenerate with -update-diag-goldens if the change is deliberate\n--- got ---\n%s--- want ---\n%s",
					sc.Name, text, want)
			}
		})
	}
}

// TestDiagnosisCorpusBudget cuts every corpus search with a tight probe
// budget and checks the accounting: exactly Budget probes run, and
// run+pruned covers everything the uncut search enqueued at the moment
// of the cut — nothing is silently dropped.
func TestDiagnosisCorpusBudget(t *testing.T) {
	const budget = 7 // 5 top-level probes + 2 refinements
	for _, sc := range DiagnosisCorpus() {
		rep, err := Diagnose(sc.Source, DiagnoseConfig{Budget: budget}, sc.Opts...)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		if rep.ProbesRun != budget {
			t.Errorf("%s: probes run = %d, want %d", sc.Name, rep.ProbesRun, budget)
		}
		if rep.Pruned == 0 {
			t.Errorf("%s: tight budget pruned nothing (every scenario refines past %d probes)", sc.Name, budget)
		}
		if rep.Budget != budget {
			t.Errorf("%s: report budget = %d", sc.Name, rep.Budget)
		}
		// A budget covering the whole frontier prunes nothing and probes
		// fewer or equally many cells.
		full, err := Diagnose(sc.Source, DiagnoseConfig{}, sc.Opts...)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		if full.Pruned != 0 {
			t.Errorf("%s: default budget %d cut the search (pruned %d)", sc.Name, full.Budget, full.Pruned)
		}
		if full.ProbesRun < budget {
			t.Errorf("%s: full search ran %d probes, fewer than the cut one", sc.Name, full.ProbesRun)
		}
	}
}

// TestDiagnosisCollectors checks the nvmap_consultant_* series read
// through to the report and the wall-clock one is unstable.
func TestDiagnosisCollectors(t *testing.T) {
	sc := DiagnosisCorpus()[0]
	var rep *diagnose.Report
	r := obs.NewRegistry()
	RegisterDiagnosisCollectors(r, func() *diagnose.Report { return rep })

	// Before a search completes every stable series reads zero.
	for _, s := range r.Snapshot(false) {
		if s.Value != 0 {
			t.Fatalf("collector %s non-zero before any diagnosis: %v", s.Name, s.Value)
		}
	}

	rep = diagnoseScenario(t, sc)
	got := map[string]float64{}
	unstable := map[string]bool{}
	for _, s := range r.Snapshot(true) {
		got[s.Name] = s.Value
		unstable[s.Name] = s.Unstable
	}
	if got["nvmap_consultant_probes_run_total"] != float64(rep.ProbesRun) {
		t.Errorf("probes_run = %v, want %d", got["nvmap_consultant_probes_run_total"], rep.ProbesRun)
	}
	if got["nvmap_consultant_hypotheses_confirmed"] != float64(rep.Confirmed()) {
		t.Errorf("hypotheses_confirmed = %v, want %d", got["nvmap_consultant_hypotheses_confirmed"], rep.Confirmed())
	}
	if got["nvmap_consultant_search_vtime_ns"] != float64(rep.SearchVTime) {
		t.Errorf("search_vtime = %v, want %d", got["nvmap_consultant_search_vtime_ns"], rep.SearchVTime)
	}
	if got["nvmap_consultant_refinement_depth"] != float64(rep.MaxDepth) {
		t.Errorf("refinement_depth = %v, want %d", got["nvmap_consultant_refinement_depth"], rep.MaxDepth)
	}
	if !unstable["nvmap_consultant_search_wall_ns"] {
		t.Error("wall-clock collector must be unstable")
	}
	for _, name := range []string{"nvmap_consultant_probes_run_total", "nvmap_consultant_probes_pruned_total",
		"nvmap_consultant_hypotheses_confirmed", "nvmap_consultant_refinement_depth",
		"nvmap_consultant_search_vtime_ns"} {
		if unstable[name] {
			t.Errorf("deterministic collector %s marked unstable", name)
		}
	}
}

// BenchmarkDiagnosisCorpus is the benchmark's diagnose_corpus op rebuilt
// in this package over the fixed corpus: one round of Diagnose+Text over
// every scenario, each required to confirm its planted cause and only
// it. `make pprof-diagnose` profiles it.
func BenchmarkDiagnosisCorpus(b *testing.B) {
	corpus := DiagnosisCorpus()
	replays := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sc := range corpus {
			rep, err := Diagnose(sc.Source, DiagnoseConfig{}, sc.Opts...)
			if err != nil {
				b.Fatalf("%s: %v", sc.Name, err)
			}
			_ = rep.Text()
			for _, root := range rep.Roots {
				if root.Confirmed != (root.Hypothesis == sc.Planted) {
					b.Fatalf("%s: top-level %s confirmed=%v, planted %s", sc.Name, root.Hypothesis, root.Confirmed, sc.Planted)
				}
			}
			replays += rep.Replays
		}
	}
	b.ReportMetric(float64(replays)/float64(b.N), "replays/op")
}
