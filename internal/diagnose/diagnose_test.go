package diagnose

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"nvmap/internal/vtime"
)

// scriptedEval answers probes from a table and records evaluation order.
type scriptedEval struct {
	hyps     []HypothesisSpec
	fracs    map[string]float64  // "hyp focus" -> fraction
	children map[string][]string // "hyp focus" -> child foci
	costs    map[string]vtime.Duration
	failOn   string
	order    []string
}

func key(h, f string) string { return h + " " + f }

func (s *scriptedEval) Hypotheses() []HypothesisSpec { return s.hyps }

func (s *scriptedEval) Eval(h, f string) (Measurement, error) {
	k := key(h, f)
	if k == s.failOn {
		return Measurement{}, errors.New("scripted failure")
	}
	s.order = append(s.order, k)
	m := Measurement{Fraction: s.fracs[k], Source: SourceSampled, Cost: s.costs[k]}
	if m.Cost > 0 {
		m.Source, m.Runs = SourceRerun, 1
	}
	return m, nil
}

func (s *scriptedEval) Children(h, f string) []string { return s.children[key(h, f)] }

func basicEval() *scriptedEval {
	return &scriptedEval{
		hyps: []HypothesisSpec{
			{ID: "Hot", Description: "hot", Threshold: 0.4},
			{ID: "Cold", Description: "cold", Threshold: 0.4},
			{ID: "Warm", Description: "warm", Threshold: 0.4},
		},
		fracs: map[string]float64{
			key("Hot", FocusWholeProgram):  0.8,
			key("Cold", FocusWholeProgram): 0.1,
			key("Warm", FocusWholeProgram): 0.5,
			key("Hot", "/a"):               0.9,
			key("Hot", "/b"):               0.2,
			key("Warm", "/c"):              0.45,
			key("Hot", "/a/x"):             0.7,
		},
		children: map[string][]string{
			key("Hot", FocusWholeProgram):  {"/a", "/b"},
			key("Warm", FocusWholeProgram): {"/c"},
			key("Hot", "/a"):               {"/a/x"},
		},
		costs: map[string]vtime.Duration{
			key("Hot", "/a/x"): 250 * vtime.Microsecond,
		},
	}
}

func TestSearchOrderAndTree(t *testing.T) {
	ev := basicEval()
	rep, err := (&Engine{}).Search(ev)
	if err != nil {
		t.Fatal(err)
	}
	// Top-level probes run first in declaration order; then children of
	// the highest-fraction parent (Hot 0.8) before Warm's (0.5).
	want := []string{
		key("Hot", FocusWholeProgram),
		key("Cold", FocusWholeProgram),
		key("Warm", FocusWholeProgram),
		key("Hot", "/a"),
		key("Hot", "/a/x"), // freshly enqueued at priority 0.9, beating /b (0.8)
		key("Hot", "/b"),
		key("Warm", "/c"),
	}
	if strings.Join(ev.order, ";") != strings.Join(want, ";") {
		t.Fatalf("eval order = %v, want %v", ev.order, want)
	}
	if rep.ProbesRun != 7 || rep.Pruned != 0 {
		t.Fatalf("probes=%d pruned=%d", rep.ProbesRun, rep.Pruned)
	}
	if rep.MaxDepth != 2 {
		t.Fatalf("max depth = %d", rep.MaxDepth)
	}
	if rep.Confirmed() != 2 {
		t.Fatalf("confirmed = %d", rep.Confirmed())
	}
	// Roots sorted by fraction.
	if rep.Roots[0].Hypothesis != "Hot" || rep.Roots[1].Hypothesis != "Warm" || rep.Roots[2].Hypothesis != "Cold" {
		t.Fatalf("root order wrong: %v %v %v", rep.Roots[0], rep.Roots[1], rep.Roots[2])
	}
	// The tree nests /a/x under /a under the Hot root.
	a := rep.Roots[0].Children[0]
	if a.Focus != "/a" || len(a.Children) != 1 || a.Children[0].Focus != "/a/x" {
		t.Fatalf("tree misshapen: %+v", rep.Roots[0])
	}
	if rep.SearchVTime != 250*vtime.Microsecond {
		t.Fatalf("search vtime = %v", rep.SearchVTime)
	}
	if a.Children[0].Source != SourceRerun {
		t.Fatalf("costed probe not marked re-run: %+v", a.Children[0])
	}
}

func TestSearchBudgetCutExactPruning(t *testing.T) {
	ev := basicEval()
	rep, err := (&Engine{Budget: 4}).Search(ev)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ProbesRun != 4 {
		t.Fatalf("probes run = %d, want 4", rep.ProbesRun)
	}
	// After 4 probes (3 top + Hot//a) the frontier holds Hot//b, Warm//c
	// and Hot//a/x: exactly 3 pruned.
	if rep.Pruned != 3 {
		t.Fatalf("pruned = %d, want 3", rep.Pruned)
	}
	if rep.ProbesRun+rep.Pruned != 7 {
		t.Fatalf("run+pruned = %d, want the full enqueued probe count", rep.ProbesRun+rep.Pruned)
	}
}

func TestSearchBudgetExactFitPrunesNothing(t *testing.T) {
	rep, err := (&Engine{Budget: 7}).Search(basicEval())
	if err != nil {
		t.Fatal(err)
	}
	if rep.ProbesRun != 7 || rep.Pruned != 0 {
		t.Fatalf("probes=%d pruned=%d", rep.ProbesRun, rep.Pruned)
	}
}

func TestSearchThresholdOverride(t *testing.T) {
	rep, err := (&Engine{Threshold: 0.95}).Search(basicEval())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Confirmed() != 0 || rep.ProbesRun != 3 {
		t.Fatalf("override ignored: confirmed=%d probes=%d", rep.Confirmed(), rep.ProbesRun)
	}
	for _, r := range rep.Roots {
		if r.Threshold != 0.95 {
			t.Fatalf("threshold not overridden: %+v", r)
		}
	}
}

func TestSearchMaxDepth(t *testing.T) {
	rep, err := (&Engine{MaxDepth: 1}).Search(basicEval())
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxDepth != 1 {
		t.Fatalf("max depth = %d", rep.MaxDepth)
	}
	rep.Walk(func(f *Finding) {
		if f.Depth > 1 {
			t.Fatalf("probe beyond max depth: %+v", f)
		}
	})
}

func TestSearchErrors(t *testing.T) {
	ev := basicEval()
	ev.failOn = key("Warm", FocusWholeProgram)
	if _, err := (&Engine{}).Search(ev); err == nil || !strings.Contains(err.Error(), "Warm") {
		t.Fatalf("eval error not propagated: %v", err)
	}
	if _, err := (&Engine{Budget: -1}).Search(basicEval()); err == nil {
		t.Fatal("negative budget accepted")
	}
	if _, err := (&Engine{}).Search(&scriptedEval{}); err == nil {
		t.Fatal("empty hypothesis set accepted")
	}
}

func TestReportRenderings(t *testing.T) {
	rep, err := (&Engine{Budget: 5}).Search(basicEval())
	if err != nil {
		t.Fatal(err)
	}
	text := rep.Text()
	for _, want := range []string{
		"2/3 hypotheses confirmed",
		"probes: 5 run, 2 pruned (budget 5)",
		"; replays 1\n", // the re-run /a/x, summed from its measurement's Runs
		"CONFIRMED [sampled]",
		"rejected ",
		"  Hot",
		"    Hot", // the nested child is indented one level deeper
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("Text missing %q:\n%s", want, text)
		}
	}
	// Byte stability: a second identical search renders identically
	// (Wall never appears in Text).
	rep2, err := (&Engine{Budget: 5}).Search(basicEval())
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Text() != text {
		t.Fatalf("Text not byte-stable:\n%s\n----\n%s", text, rep2.Text())
	}
	// A search the base run answered alone prints no replay count.
	sampledOnly, err := (&Engine{Budget: 3}).Search(basicEval())
	if err != nil {
		t.Fatal(err)
	}
	if sampledOnly.Replays != 0 || strings.Contains(sampledOnly.Text(), "replays") {
		t.Fatalf("sampled-only search reports replays:\n%s", sampledOnly.Text())
	}

	js, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded Report
	if err := json.Unmarshal(js, &decoded); err != nil {
		t.Fatalf("JSON round-trip: %v", err)
	}
	if decoded.ProbesRun != rep.ProbesRun || decoded.Pruned != rep.Pruned || decoded.Replays != 1 {
		t.Fatalf("JSON lost counters: %+v", decoded)
	}
	if !strings.Contains(string(js), `"source": "sampled"`) {
		t.Fatalf("JSON source not symbolic:\n%s", js)
	}

	ct := rep.ChromeTrace()
	var tr struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(ct, &tr); err != nil {
		t.Fatalf("ChromeTrace not valid JSON: %v", err)
	}
	if len(tr.TraceEvents) != 2*rep.ProbesRun {
		t.Fatalf("trace events = %d, want %d", len(tr.TraceEvents), 2*rep.ProbesRun)
	}
}

func TestFormatFractionFixedWidth(t *testing.T) {
	for _, f := range []float64{0, 0.62, 0.125, 1, 0.9999} {
		if got := FormatFraction(f); len(got) != 8 {
			t.Fatalf("FormatFraction(%v) = %q (len %d)", f, got, len(got))
		}
	}
	if FormatFraction(0.62) != "  0.6200" {
		t.Fatalf("FormatFraction(0.62) = %q", FormatFraction(0.62))
	}
}

func TestFindingLineIncludesSource(t *testing.T) {
	f := &Finding{Hypothesis: "CommBound", Focus: "/Machine/node2",
		Fraction: 0.71, Threshold: 0.3, Confirmed: true, Source: SourceRerun}
	line := f.Line()
	if !strings.Contains(line, "[re-run]") || !strings.Contains(line, "0.7100") {
		t.Fatalf("Line = %q", line)
	}
	f.Confirmed = false
	f.Source = SourceSampled
	if !strings.Contains(f.Line(), "rejected") || !strings.Contains(f.Line(), "[sampled]") {
		t.Fatalf("Line = %q", f.Line())
	}
}
