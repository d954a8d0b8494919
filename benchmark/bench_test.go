package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

func TestGeneratorsFollowTheSeed(t *testing.T) {
	type inputs struct {
		Flat, Loop program
		Corpus     []corpusProgram
		Serve      []serveProgram
		Slots      []serveSlot
	}
	gen := func(seed int64) inputs {
		r := newRNG(seed, "serve_closed")
		progs := servePrograms(r)
		return inputs{
			Flat:   flatProgram(newRNG(seed, "frontend_cold"), "fc.fcm", 2, 8, 64, 400),
			Loop:   loopProgram(newRNG(seed, "events_hot"), "events_hot.fcm", 32, 4, 40),
			Corpus: corpus(newRNG(seed, "diagnose_corpus")),
			Serve:  progs,
			Slots:  serveSchedule(r, progs),
		}
	}
	a, again, b := gen(1), gen(1), gen(2)
	if !reflect.DeepEqual(a, again) {
		t.Error("the same seed generated different inputs")
	}
	if a.Flat.Source == b.Flat.Source || a.Loop.Source == b.Loop.Source ||
		a.Corpus[0].Source == b.Corpus[0].Source || a.Serve[0].Source == b.Serve[0].Source ||
		reflect.DeepEqual(a.Slots, b.Slots) {
		t.Error("two seeds generated the same inputs")
	}

	// The shape is the seed's to vary, the amount of work is not.
	for _, in := range []inputs{a, b} {
		// 400 statements + PROGRAM + 11 declarations + END.
		if got := strings.Count(in.Flat.Source, "\n"); got != 400+13 {
			t.Errorf("flat program has %d lines, want %d", got, 400+13)
		}
		if in.Flat.Summations != 60 || in.Loop.Summations != 81 {
			t.Errorf("summations = %d and %d, want 60 and 81", in.Flat.Summations, in.Loop.Summations)
		}
		if len(in.Corpus) != 5 || len(in.Serve) != 32 || len(in.Slots) != 100 {
			t.Errorf("%d corpus programs, %d serve programs, %d slots; want 5, 32, 100",
				len(in.Corpus), len(in.Serve), len(in.Slots))
		}
		mix := map[string]int{}
		for _, s := range in.Slots {
			mix[s.Class]++
		}
		want := map[string]int{classPlain: 60, classFaulty: 15, classParallel: 15, classCrashy: 8, classDiagnose: 2}
		if !reflect.DeepEqual(mix, want) {
			t.Errorf("schedule mix %v, want %v", mix, want)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := make([]int64, 100)
	for i := range xs {
		xs[i] = int64(100 - i) // 100..1, unsorted
	}
	s := sortedCopy(xs)
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 50}, {0.95, 95}, {1, 100}, {0, 1}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %d", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

// The expected values are statistics.quantiles(v, n=4) from Python 3.
func TestQuartileSpread(t *testing.T) {
	ten := []float64{10.2, 9.8, 10.0, 10.5, 9.9, 10.1, 11.0, 9.7, 10.3, 10.4}
	// quantiles -> [9.875, 10.15, 10.425]; median 10.15
	if got, want := quartileSpread(ten), (10.425-9.875)/10.15; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread of ten = %v, want %v", got, want)
	}
	// quantiles([1, 2], n=4) -> [0.75, 1.5, 2.25]: the end pair extrapolates.
	if got, want := quartileSpread([]float64{1, 2}), 1.5/1.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread of two = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{7}); got != 0 {
		t.Errorf("spread of one value = %v", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	tr := newTracer()
	o := tr.begin(0, 0)
	// Overwrite the clock readings: op 0..100, a 10..60 with child b 20..30
	// and recorded child c 30..50, then d 60..90.
	o.push("a")
	o.push("b")
	o.pop()
	o.record("c", tr.origin, tr.origin)
	o.pop()
	o.push("d")
	o.pop()
	o.finish()
	set := func(i int, start, end int64) { tr.spans[i].start, tr.spans[i].end = start, end }
	set(0, 0, 100)
	set(1, 10, 60)
	set(2, 20, 30)
	set(3, 30, 50)
	set(4, 60, 90)
	self, tot := selfTimes(tr.spans), totalTimes(tr.spans)
	wantSelf := map[string]int64{rootSpan: 20, "a": 20, "b": 10, "c": 20, "d": 30}
	wantTot := map[string]int64{rootSpan: 100, "a": 50, "b": 10, "c": 20, "d": 30}
	if !reflect.DeepEqual(self, wantSelf) {
		t.Errorf("self times %v, want %v", self, wantSelf)
	}
	if !reflect.DeepEqual(tot, wantTot) {
		t.Errorf("total times %v, want %v", tot, wantTot)
	}

	// Untraced mode: a nil tracer hands out nil ops whose methods run the
	// body and record nothing.
	var off *tracer
	ran := false
	op := off.begin(0, 0)
	op.span("x", func() { ran = true })
	op.record("y", tr.origin, tr.origin)
	op.finish()
	if !ran {
		t.Error("an untraced span did not run its body")
	}
}

func TestParseProm(t *testing.T) {
	text := `# HELP nvmap_sas_stored_total sentences stored
# TYPE nvmap_sas_stored_total counter
nvmap_sas_stored_total{node="0",who="a b"} 3
nvmap_sas_stored_total{node="1",who="c"} 4
nvmap_machine_sends_total 12
nvmap_machine_sends_total{node="0"} 5
nvmap_daemon_queue_max 9

nvmap_ratio 2.5e-1
`
	m, err := parseProm(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 6 || m[`nvmap_sas_stored_total{node="0",who="a b"}`] != 3 || m["nvmap_ratio"] != 0.25 {
		t.Errorf("parsed %v", m)
	}
	set := seriesSet{m, m}
	if v, ok := set.sum("nvmap_sas_stored_total"); !ok || v != 14 {
		t.Errorf("labelled family sums to %v (%v), want 14", v, ok)
	}
	if v, ok := set.sum("nvmap_machine_sends_total"); !ok || v != 24 {
		t.Errorf("family with a plain total sums to %v (%v), want 24: the parts must not be added again", v, ok)
	}
	if v, ok := set.max("nvmap_daemon_queue_max"); !ok || v != 9 {
		t.Errorf("max = %v (%v)", v, ok)
	}
	if _, ok := set.sum("nvmap_absent_total"); ok {
		t.Error("an absent series was reported present")
	}
	for _, bad := range []string{"novalue", "name notanumber"} {
		if _, err := parseProm(bad); err == nil {
			t.Errorf("parseProm(%q) did not fail", bad)
		}
	}
}

// contract mirrors BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func TestContractFileMatchesTheTables(t *testing.T) {
	var want contract
	want.Command = []string{"bash", "benchmark/run.sh"}
	want.Paths = []string{"benchmark"}
	want.RunSeconds = 20
	for _, w := range workloads {
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
		want.Workloads = append(want.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{w.name, w.why})
	}
	for _, m := range e2eMetrics {
		bound := m.bound
		want.EndToEnd = append(want.EndToEnd, contractMetric{m.name, m.unit, m.better, &bound})
	}
	for _, m := range layerMetrics {
		want.PerLayer = append(want.PerLayer, contractMetric{m.name, m.unit, m.better, nil})
	}
	if len(want.PerLayer) != 88 {
		t.Errorf("%d per-layer rows, the issue fixes 88", len(want.PerLayer))
	}
	seen := map[string]bool{}
	for _, m := range append(append([]contractMetric(nil), want.EndToEnd...), want.PerLayer...) {
		if seen[m.Name] {
			t.Errorf("metric name %s is used twice", m.Name)
		}
		seen[m.Name] = true
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got contract
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		b, _ := json.MarshalIndent(want, "", "  ")
		t.Errorf("BENCHMARK.json is out of step with the tables in result.go, layers.go and workloads.go; it should read:\n%s", b)
	}
}

func TestResultLineSchema(t *testing.T) {
	b, err := json.Marshal(line{Correct: true, Attempted: 3, Metrics: map[string]metric{"op_p50_ms": {1.25, "ms"}}})
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"correct":true,"attempted":3,"failed":0,"metrics":{"op_p50_ms":{"value":1.25,"unit":"ms"}}}`
	if string(b) != want {
		t.Errorf("line = %s\nwant   %s", b, want)
	}
}

func TestCompare(t *testing.T) {
	set := func(h host, p50 []float64, virtual float64) results {
		e2e := map[string][]float64{}
		for _, m := range e2eMetrics {
			e2e[m.name] = []float64{1, 1, 1, 1}
		}
		e2e["op_p50_ms"] = p50
		e2e["virtual_us_per_op"] = []float64{virtual, virtual, virtual, virtual}
		return results{Host: h, Seed: 1, Runs: 4, Workloads: map[string]workloadResult{
			"data_hot": {Attempted: 10, EndToEnd: e2e, PerLayer: map[string]float64{"machine.sends": 181}}}}
	}
	here := host{CPUs: 2, GOMAXPROCS: 2, Go: "go1.24.0", Kernel: "k"}
	excess := func(vs []verdict) []string {
		var out []string
		for _, v := range vs {
			if v.excess {
				out = append(out, v.metric+" "+v.what)
			}
		}
		return out
	}
	steady := []float64{10, 10.1, 9.9, 10}

	if got := excess(compare(set(here, steady, 5), set(here, steady, 5))); got != nil {
		t.Errorf("equal sets exceed: %v", got)
	}
	slower := []float64{13, 13.1, 12.9, 13}
	if got := excess(compare(set(here, steady, 5), set(here, slower, 5))); !reflect.DeepEqual(got, []string{"op_p50_ms median"}) {
		t.Errorf("a 30%% slower median: %v", got)
	}
	if got := excess(compare(set(here, slower, 5), set(here, steady, 5))); got != nil {
		t.Errorf("a faster median exceeds: %v", got)
	}
	wide := []float64{8, 10, 12, 10}
	if got := excess(compare(set(here, steady, 5), set(here, wide, 5))); !reflect.DeepEqual(got, []string{"op_p50_ms spread B"}) {
		t.Errorf("a wide set: %v", got)
	}
	if got := excess(compare(set(here, steady, 5), set(here, steady, 5.000001))); len(got) != 4 {
		t.Errorf("simulated time moved on all four seeds, flagged: %v", got)
	}

	// Another host: wall-clock rows are refused, simulated time still compares.
	there := here
	there.CPUs = 64
	vs := compare(set(here, steady, 5), set(there, slower, 5.000001))
	if got := excess(vs); len(got) != 4 {
		t.Errorf("across hosts only simulated time may be flagged, got %v", got)
	}
	skipped := 0
	for _, v := range vs {
		if v.skipped != "" {
			skipped++
		}
	}
	if skipped != 5 {
		t.Errorf("%d rows skipped across hosts, want the 5 wall-clock metrics", skipped)
	}

	b := set(here, steady, 5)
	wb := b.Workloads["data_hot"]
	wb.PerLayer = map[string]float64{"machine.sends": 182}
	b.Workloads["data_hot"] = wb
	if got := excess(compare(set(here, steady, 5), b)); !reflect.DeepEqual(got, []string{"machine.sends exact"}) {
		t.Errorf("a work count moved: %v", got)
	}
}

// TestSmoke runs both passes of all five workloads at one cycle per
// stretch: every op still checks its known answers.
func TestSmoke(t *testing.T) {
	res, err := runSuite(workloads, 1, 1, runOptions{seconds: 1, setups: 1, smoke: true, outDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		wr := res.Workloads[w.name]
		if wr.Failed != 0 || wr.Attempted == 0 {
			t.Errorf("%s: %d of %d ops failed", w.name, wr.Failed, wr.Attempted)
		}
		for _, m := range e2eMetrics {
			if v := wr.EndToEnd[m.name]; len(v) != 1 || v[0] <= 0 {
				t.Errorf("%s: %s = %v, want one positive value", w.name, m.name, v)
			}
		}
		for _, m := range layerMetrics {
			if _, ok := wr.PerLayer[m.name]; !ok {
				t.Errorf("%s: per-layer row %s missing", w.name, m.name)
			}
		}
	}
	// The contrasts the workloads exist for, as counts (times at this size
	// mean nothing): only the service mix checkpoints and crashes, only
	// the corpus routes over links.
	if res.Workloads["serve_closed"].PerLayer["checkpoint.saves"] == 0 ||
		res.Workloads["events_hot"].PerLayer["checkpoint.saves"] != 0 {
		t.Error("checkpoint.saves should be non-zero on serve_closed only")
	}
	if res.Workloads["diagnose_corpus"].PerLayer["machine.net_link_hops"] == 0 {
		t.Error("diagnose_corpus routed over no links")
	}
	if ev, dh := res.Workloads["events_hot"].PerLayer["sas.notifications"], res.Workloads["data_hot"].PerLayer["sas.notifications"]; ev == 0 || dh != 0 {
		t.Errorf("sas.notifications: events_hot %v (want > 0), data_hot %v (want 0)", ev, dh)
	}
}
