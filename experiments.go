package nvmap

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Experiment is one reproducible artefact of the paper: a figure, a
// table, or one of the quantitative ablations the text argues in prose.
// Running an experiment produces the textual report recorded in
// EXPERIMENTS.md.
type Experiment struct {
	ID    string
	Title string
	Run   func() (string, error)
}

// Experiments returns every experiment in presentation order.
func Experiments() []Experiment {
	return []Experiment{
		{"fig1", "Figure 1: mapping taxonomy and cost assignment", ExperimentFig1},
		{"fig2", "Figure 2: static mapping information (PIF)", ExperimentFig2},
		{"fig3", "Figure 3: types of mapping information", ExperimentFig3},
		{"fig5", "Figures 4-5: the SAS when a message is sent", ExperimentFig5},
		{"fig6", "Figure 6: performance questions over the SAS", ExperimentFig6},
		{"fig7", "Figure 7: asynchronous activation and the shadow remedy", ExperimentFig7},
		{"fig8", "Figure 8: the CMF where axis", ExperimentFig8},
		{"fig9", "Figure 9: CMF and CMRTS metrics", ExperimentFig9},
		{"ablsplit", "Ablation: split vs merge cost assignment", AblationSplitMerge},
		{"abldyn", "Ablation: dynamic vs always-on instrumentation", AblationDynInst},
		{"ablsas", "Ablation: SAS relevance filtering", AblationSASFilter},
		{"ablorder", "Ablation: ordered performance questions", AblationOrderedQuestions},
		{"ablfuse", "Ablation: statement fusion vs attribution", AblationFusion},
		{"consultant", "Section 5: the Performance Consultant's search", ExperimentConsultant},
		{"placement", "Topology placement: identity vs bisection vs greedy", ExperimentPlacement},
	}
}

// RunExperiment runs one experiment by ID.
func RunExperiment(id string) (string, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e.Run()
		}
	}
	var ids []string
	for _, e := range Experiments() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return "", fmt.Errorf("nvmap: unknown experiment %q (have %s)", id, strings.Join(ids, ", "))
}

// RunAllExperiments concatenates every experiment's report. Each
// experiment builds its own sessions over its own machine, so the
// drivers run concurrently, one goroutine each (the compile cache and
// the vocabulary interner are the only shared state, and both are
// thread-safe); the reports are assembled in presentation order, so the
// output is identical to running them one by one. Errors keep the
// sequential contract: the first failing experiment in presentation
// order is reported.
func RunAllExperiments() (string, error) {
	exps := Experiments()
	outs := make([]string, len(exps))
	errs := make([]error, len(exps))
	var wg sync.WaitGroup
	for i := range exps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One experiment panicking must not take down its siblings
			// (or the process): contain it as that experiment's error.
			defer func() {
				if v := recover(); v != nil {
					errs[i] = fmt.Errorf("%w: %v", ErrPanicked, v)
				}
			}()
			outs[i], errs[i] = exps[i].Run()
		}()
	}
	wg.Wait()
	var b strings.Builder
	for i, e := range exps {
		if errs[i] != nil {
			return "", fmt.Errorf("nvmap: experiment %s: %w", e.ID, errs[i])
		}
		fmt.Fprintf(&b, "==== %s — %s ====\n\n%s\n", e.ID, e.Title, outs[i])
	}
	return b.String(), nil
}
