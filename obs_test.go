package nvmap

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"nvmap/internal/obs"
	"nvmap/internal/paradyn"
)

// The observability plane's determinism contract: with the plane
// enabled, the Chrome trace export, the stable Prometheus export and
// the perturbation report's structure are byte-identical across worker
// counts — and pinned against committed goldens, so any change to the
// span stream or the collector set is a visible diff.

var updateObsGoldens = flag.Bool("update-obs-goldens", false,
	"rewrite the observability export goldens in testdata/")

const obsWorkload = `PROGRAM quick
REAL A(1024)
REAL B(1024)
REAL ASUM
FORALL (I = 1:1024) A(I) = I
B = A * 0.5 + 1.0
B = CSHIFT(B, 16)
ASUM = SUM(A)
PRINT *, ASUM
END
`

// obsSession builds the reference observed session: the quickstart
// workload with gating, dynamic mapping, four metrics and a SAS monitor
// question — every span-recording subsystem exercised.
func obsSession(t testing.TB) *Session {
	t.Helper()
	s, err := NewSession(obsWorkload,
		WithNodes(8),
		WithSourceFile("quick.fcm"),
		WithOutput(io.Discard),
		WithObservability())
	if err != nil {
		t.Fatal(err)
	}
	s.Tool.EnableDynamicMapping()
	s.Tool.EnableGating()
	for _, id := range []string{"summations", "summation_time", "point_to_point_ops", "idle_time"} {
		if _, err := s.Tool.EnableMetric(id, paradyn.WholeProgram()); err != nil {
			t.Fatal(err)
		}
	}
	mon := s.EnableSASMonitor(false)
	if _, err := mon.Ask("sums while sending", "{? Sums}, {? Sends}"); err != nil {
		t.Fatal(err)
	}
	return s
}

// obsExports runs the reference session and returns its two
// deterministic exports.
func obsExports(t *testing.T) (chrome, prom string) {
	t.Helper()
	s := obsSession(t)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	s.Tool.SampleAll(s.Now())
	var cb, pb bytes.Buffer
	if err := obs.WriteChromeTrace(&cb, s.Observability().Tracer); err != nil {
		t.Fatal(err)
	}
	if err := obs.WritePrometheus(&pb, s.Observability().Metrics, false); err != nil {
		t.Fatal(err)
	}
	return cb.String(), pb.String()
}

func checkObsGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateObsGoldens {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test -update-obs-goldens to create)", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from golden (%d bytes vs %d); regenerate with -update-obs-goldens if the change is deliberate",
			name, len(got), len(want))
	}
}

func TestObsExportGoldens(t *testing.T) {
	chrome, prom := obsExports(t)
	if !json.Valid([]byte(chrome)) {
		t.Fatalf("chrome trace is not valid JSON:\n%.400s", chrome)
	}
	checkObsGolden(t, "obs_quickstart_trace.json", chrome)
	checkObsGolden(t, "obs_quickstart_metrics.prom", prom)
}

// TestObsPerturbation pins the perturbation report's guarantee: with a
// deterministic host clock it attributes at least 95% of the run's
// wall self-cost to named stages.
func TestObsPerturbation(t *testing.T) {
	s := obsSession(t)
	var tick int64
	s.Observability().Tracer.SetWallClock(func() int64 {
		tick += 1000
		return tick
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	rep := s.PerturbationReport()
	if rep == nil {
		t.Fatal("no perturbation report after Run")
	}
	if att := rep.Attributed(); att < 0.95 {
		t.Errorf("only %.1f%% of run wall attributed to stages", 100*att)
	}
	if rep.RunWall <= 0 {
		t.Errorf("non-positive run wall %d", rep.RunWall)
	}
}

// TestObsDisabled pins the off-by-default contract: without
// WithObservability the session exposes no plane and no report, and the
// record sites all see nil tracers.
func TestObsDisabled(t *testing.T) {
	s, err := NewSession(obsWorkload, WithNodes(4), WithOutput(io.Discard))
	if err != nil {
		t.Fatal(err)
	}
	if s.Observability() != nil {
		t.Error("disabled session exposes an observability plane")
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.PerturbationReport() != nil {
		t.Error("disabled session produced a perturbation report")
	}
}

// TestObsScrapeCreatesNoSAS pins that a metrics scrape is read-only: a
// session with the plane but no monitor and no gating has no SAS, and
// exporting every collector (unstable ones included) creates none.
func TestObsScrapeCreatesNoSAS(t *testing.T) {
	s, err := NewSession(obsWorkload, WithNodes(8), WithOutput(io.Discard), WithObservability())
	if err != nil {
		t.Fatal(err)
	}
	if n := len(s.Tool.SASes.Nodes()); n != 0 {
		t.Fatalf("%d SASes before the scrape, want 0", n)
	}
	if err := obs.WritePrometheus(io.Discard, s.Observability().Metrics, true); err != nil {
		t.Fatal(err)
	}
	if n := len(s.Tool.SASes.Nodes()); n != 0 {
		t.Fatalf("the scrape materialised %d SASes", n)
	}
}

// TestMonitorStatsRegistryEquality pins the collector contract for the
// session's one SAS registry: the unlabelled nvmap_sas_* collectors read
// the same counters as the registry's TotalStats, which sum the monitor's
// notifications and the tool's gating ones, so their values are equal at
// any instant.
func TestMonitorStatsRegistryEquality(t *testing.T) {
	s := obsSession(t)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	st := s.Tool.SASes.TotalStats()
	reg := s.Observability().Metrics
	for name, want := range map[string]float64{
		"nvmap_sas_notifications_total": float64(st.Notifications),
		"nvmap_sas_ignored_total":       float64(st.Ignored),
		"nvmap_sas_stored_total":        float64(st.Stored),
		"nvmap_sas_evaluations_total":   float64(st.Evaluations),
		"nvmap_sas_events_total":        float64(st.Events),
	} {
		sample, ok := reg.Lookup(name)
		if !ok {
			t.Errorf("metric %s not registered", name)
			continue
		}
		if sample.Value != want {
			t.Errorf("%s = %v, TotalStats says %v", name, sample.Value, want)
		}
	}
	if st.Events == 0 || st.Notifications == 0 {
		t.Error("workload produced no SAS notifications or events; equality check is vacuous")
	}
	// One registry, one unlabelled collector set.
	for _, name := range []string{
		"nvmap_sas_notifications_total{sas=\"tool\"}",
		"nvmap_sas_notifications_total{sas=\"monitor\"}",
	} {
		if _, ok := reg.Lookup(name); ok {
			t.Errorf("labelled collector %s is still registered", name)
		}
	}
}

// TestObsDaemonStatsRegistryEquality pins the same contract for the
// daemon channel's counters.
func TestObsDaemonStatsRegistryEquality(t *testing.T) {
	s := obsSession(t)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	s.Tool.SampleAll(s.Now())
	st := s.Tool.Channel().Stats()
	reg := s.Observability().Metrics
	for name, want := range map[string]float64{
		"nvmap_daemon_sent_total":      float64(st.Sent),
		"nvmap_daemon_delivered_total": float64(st.Delivered),
		"nvmap_daemon_dropped_total":   float64(st.Dropped),
		"nvmap_daemon_queue_max":       float64(st.MaxQueue),
	} {
		sample, ok := reg.Lookup(name)
		if !ok {
			t.Errorf("metric %s not registered", name)
			continue
		}
		if sample.Value != want {
			t.Errorf("%s = %v, Channel.Stats() says %v", name, sample.Value, want)
		}
	}
	if st.Sent == 0 {
		t.Error("workload sent no daemon messages; equality check is vacuous")
	}
}
