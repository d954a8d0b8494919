package nvmap

import (
	"strings"
	"testing"
)

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) != 15 {
		t.Fatalf("experiments = %d", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("malformed experiment %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
	}
	if _, err := RunExperiment("nope"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunExperimentByID(t *testing.T) {
	out, err := RunExperiment("fig3")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Mapping definition") {
		t.Fatalf("fig3 output = %q", out)
	}
}

func TestExperimentFig1Shapes(t *testing.T) {
	out, err := ExperimentFig1()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"One-to-One", "One-to-Many", "Many-to-One", "Many-to-Many",
		// Split halves the 10-unit cost; merge keeps it whole.
		"{R1 Reduce} = 5 ops",
		"[{R1 Reduce} + {R2 Reduce}] = 10 ops",
		// Many-to-one aggregates 7+5.
		"{L Executes} = 12 ops",
		// Many-to-many aggregates 8+4 then splits 6/6.
		"{L1 Executes} = 6 ops",
		"[{L1 Executes} + {L2 Executes}] = 12 ops",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("fig1 missing %q:\n%s", want, out)
		}
	}
}

func TestExperimentFig2RecordsMatchPaperShape(t *testing.T) {
	out, err := ExperimentFig2()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"NOUN", "VERB", "MAPPING",
		"name = cmpe_corr_1_()",
		"description = compiler generated function, source code not available",
		"source = {cmpe_corr_1_(), CPU Utilization}",
		"destination = {line4, Executes}",
		"destination = {line5, Executes}",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("fig2 missing %q", want)
		}
	}
}

func TestExperimentFig5SnapshotShape(t *testing.T) {
	out, err := ExperimentFig5()
	if err != nil {
		t.Fatal(err)
	}
	// Figure 5's three active sentences: an HPF statement executing, an
	// HPF array being summed, and a base-level processor sending.
	for _, want := range []string{"HPF:", "{A Sums}", "Base:", "Sends}"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig5 missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "Executes}") {
		t.Errorf("fig5 missing executing statement:\n%s", out)
	}
}

func TestExperimentFig6Answers(t *testing.T) {
	results, err := runFig6(false)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	// On 4 nodes each reduction sends 3 tree messages; processor 1 sends
	// exactly one of them. A and C are summed; B takes a MAXVAL.
	if got := results[1].Count; got != 3 {
		t.Errorf("sends by processor 1 = %g, want 3 (one per reduction)", got)
	}
	if got := results[2].Count; got != 1 {
		t.Errorf("sends by 1 during SUM(A) = %g, want 1", got)
	}
	if got := results[3].Count; got != 2 {
		t.Errorf("sends by 1 during any SUM = %g, want 2 (A and C)", got)
	}
	// The gate question accumulates summation time, not counts.
	if results[0].Count != 0 || results[0].Time <= 0 {
		t.Errorf("{A Sums} = count %g, time %v", results[0].Count, results[0].Time)
	}
	// The wildcard question strictly dominates the specific one.
	if !(results[3].Count > results[2].Count) {
		t.Error("wildcard question should count more than the specific one")
	}
}

func TestExperimentFig7Remedy(t *testing.T) {
	out, err := ExperimentFig7()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "attributed to func(): 0 (want 2)") {
		t.Errorf("limitation half missing:\n%s", out)
	}
	if !strings.Contains(out, "attributed to func(): 2 (want 2)") {
		t.Errorf("remedy half missing:\n%s", out)
	}
}

func TestExperimentFig8Hierarchies(t *testing.T) {
	out, err := ExperimentFig8()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"Machine", "node3", "Code", "CMRTS_send",
		"CMFarrays", "TOT", "node0:[0,128)",
		"CMFstmts", "line13",
		"cmpe_bow_1_()",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("fig8 missing %q:\n%s", want, out)
		}
	}
	// Block functions live under Code, not as their own hierarchies.
	if strings.Contains(out, "\n    cmpe_bow_1_()") {
		t.Errorf("block function floated to hierarchy level:\n%s", out)
	}
}

func TestExperimentFig9CoversEveryVerb(t *testing.T) {
	out, err := ExperimentFig9()
	if err != nil {
		t.Fatal(err)
	}
	// Every counted metric must be non-zero: the workload exercises the
	// whole Figure 9 table.
	for _, row := range []string{
		"Computations", "Reductions", "Summations", "MAXVAL Count", "MINVAL Count",
		"Array Transformations", "Rotations", "Shifts", "Transposes",
		"Scans", "Sorts", "Broadcasts", "Cleanups", "Node Activations",
		"Point-to-Point Operations",
	} {
		idx := strings.Index(out, row)
		if idx < 0 {
			t.Errorf("fig9 missing metric %q", row)
			continue
		}
		line := out[idx:]
		line = line[:strings.IndexByte(line, '\n')]
		if strings.Contains(line, " 0 ops") {
			t.Errorf("fig9 metric %q measured zero: %s", row, line)
		}
	}
	for _, timeRow := range []string{"Idle Time", "Argument Processing Time", "Broadcast Time"} {
		idx := strings.Index(out, timeRow)
		if idx < 0 {
			t.Errorf("fig9 missing %q", timeRow)
			continue
		}
		line := out[idx:]
		line = line[:strings.IndexByte(line, '\n')]
		if strings.Contains(line, "0.000000 s") {
			t.Errorf("fig9 %q measured zero: %s", timeRow, line)
		}
	}
}

func TestAblationSplitMergeReport(t *testing.T) {
	out, err := AblationSplitMerge()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "worst attribution error: 40") {
		t.Errorf("split error not quantified:\n%s", out)
	}
	if !strings.Contains(out, "[{line4 Executes} + {line5 Executes}] = 100 %") {
		t.Errorf("merge unit missing:\n%s", out)
	}
}

func TestAblationDynInstShape(t *testing.T) {
	out, err := AblationDynInst()
	if err != nil {
		t.Fatal(err)
	}
	// The report's internal assertions already enforce the ordering; spot
	// check the text.
	for _, want := range []string{"uninstrumented", "dynamic", "always-on", "0 ns"} {
		if !strings.Contains(out, want) {
			t.Errorf("abldyn missing %q:\n%s", want, out)
		}
	}
}

func TestAblationSASFilterShape(t *testing.T) {
	out, err := AblationSASFilter()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "filtered") || !strings.Contains(out, "unfiltered") {
		t.Fatalf("ablsas output incomplete:\n%s", out)
	}
}

func TestAblationOrderedQuestionsShape(t *testing.T) {
	out, err := AblationOrderedQuestions()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "identical semantics") {
		t.Fatalf("ablorder output incomplete:\n%s", out)
	}
}

func TestAblationFusionShape(t *testing.T) {
	out, err := AblationFusion()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "unfused") || !strings.Contains(out, "fused") {
		t.Fatalf("ablfuse output incomplete:\n%s", out)
	}
}

func TestRunAllExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep")
	}
	out, err := RunAllExperiments()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range Experiments() {
		if !strings.Contains(out, "==== "+e.ID) {
			t.Errorf("combined report missing %s", e.ID)
		}
	}
}
