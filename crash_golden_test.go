package nvmap

import (
	"strings"
	"testing"

	"nvmap/internal/fault"
	"nvmap/internal/paradyn"
	"nvmap/internal/sas"
	"nvmap/internal/vtime"
)

// Count-style metrics converge exactly between a crashed-and-recovered
// run and a clean one: the simulator is work-conserving, so a transient
// crash shifts waits but never loses operations. Time-in-wait metrics
// (idle_time, summation_time) legitimately differ and are not asserted.
var crashCountMetrics = []string{
	"summations", "point_to_point_ops", "computations", "computation_time",
}

// crashRecovery is the tight recovery tuning the ~90µs test program
// needs: checkpoints actually happen mid-run and the failure detector
// can declare death before the run ends.
func crashRecovery() RecoveryConfig {
	return RecoveryConfig{
		CheckpointEvery: 20 * vtime.Microsecond,
		Timeout:         5 * vtime.Microsecond,
		Probes:          2,
	}
}

// runCrashed builds and runs the fault test program with a crash plan,
// a SAS monitor question, and the convergence metrics enabled.
func runCrashed(t *testing.T, plan *fault.Plan) (*Session, *DegradationReport, map[string]float64, sas.Result) {
	t.Helper()
	s, err := NewSession(faultTestProgram,
		WithNodes(4), WithSourceFile("ftest.fcm"),
		WithFaults(plan), WithRecovery(crashRecovery()))
	if err != nil {
		t.Fatal(err)
	}
	s.Tool.EnableDynamicMapping()
	m := s.EnableSASMonitor(false)
	q, err := m.Ask("sends during SUM(A)", "{A Sums}, {? Sends}")
	if err != nil {
		t.Fatal(err)
	}
	ems := make(map[string]*paradyn.EnabledMetric)
	for _, id := range crashCountMetrics {
		em, err := s.Tool.EnableMetric(id, paradyn.WholeProgram())
		if err != nil {
			t.Fatal(err)
		}
		ems[id] = em
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	vals := make(map[string]float64)
	for id, em := range ems {
		vals[id] = em.Value(s.Now())
	}
	ans, err := q.Answer(s.Now())
	if err != nil {
		t.Fatal(err)
	}
	return s, rep, vals, ans
}

func transientPlan() *fault.Plan {
	p := &fault.Plan{Seed: 7}
	p.CrashAt(2, vtime.Time(30*vtime.Microsecond)).RestartAfter(10 * vtime.Microsecond)
	return p
}

// Satellite 3: the same seed and crash plan must reproduce the run
// bit-identically — elapsed clock, degradation report, metric values
// and metric histograms.
func TestCrashDeterministic(t *testing.T) {
	plan2 := func() *fault.Plan {
		p := transientPlan()
		p.CrashAt(3, vtime.Time(60*vtime.Microsecond)) // permanent, on top
		return p
	}
	s1, r1, v1, a1 := runCrashed(t, plan2())
	s2, r2, v2, a2 := runCrashed(t, plan2())
	if s1.Elapsed() != s2.Elapsed() {
		t.Fatalf("elapsed differs: %v vs %v", s1.Elapsed(), s2.Elapsed())
	}
	if r1.String() != r2.String() {
		t.Fatalf("degradation reports differ:\n%s\nvs\n%s", r1, r2)
	}
	for id, a := range v1 {
		if b := v2[id]; a != b {
			t.Fatalf("metric %s differs: %g vs %g", id, a, b)
		}
	}
	if a1.Count != a2.Count || a1.EventTime != a2.EventTime || a1.SatisfiedTime != a2.SatisfiedTime {
		t.Fatalf("SAS answers differ: %+v vs %+v", a1, a2)
	}
	// Histograms must be bin-for-bin identical, not just same totals.
	for i, em1 := range s1.Tool.Enabled() {
		em2 := s2.Tool.Enabled()[i]
		if em1.Hist.Total() != em2.Hist.Total() || em1.Hist.Sparkline(80) != em2.Hist.Sparkline(80) {
			t.Fatalf("histogram %s differs between identical runs", em1.Metric.ID)
		}
	}
	if r1.Injected.NodeCrashes != 2 || r1.Injected.NodeRestarts != 1 {
		t.Fatalf("crash ledger wrong: %+v", r1.Injected)
	}
}

// Acceptance: a seeded run with one mid-run crash and restart converges
// to the same metric-focus answers as the fault-free run — the
// checkpoint + journal replay rebuilt everything the crash wiped.
func TestTransientCrashConverges(t *testing.T) {
	s, rep, vals, ans := runCrashed(t, transientPlan())
	clean, cleanRep, cleanVals, cleanAns := runCrashed(t, nil)
	if !cleanRep.Zero() {
		t.Fatalf("clean run degraded: %s", cleanRep)
	}
	if rep.Zero() {
		t.Fatal("crash plan injected nothing")
	}
	for id, v := range vals {
		if cv := cleanVals[id]; v != cv {
			t.Fatalf("metric %s did not converge: crashed=%g clean=%g", id, v, cv)
		}
	}
	if ans.Count != cleanAns.Count {
		t.Fatalf("SAS question count did not converge: crashed=%g clean=%g", ans.Count, cleanAns.Count)
	}
	if ans.Count == 0 {
		t.Fatal("SAS question measured nothing; convergence is vacuous")
	}
	// The recovery actually happened — from a checkpoint, with replay.
	if rep.Supervisor.Recoveries+rep.Supervisor.ColdRecoveries != 1 {
		t.Fatalf("expected exactly one recovery: %+v", rep.Supervisor)
	}
	if rep.Checkpoints.Saves == 0 {
		t.Fatal("no checkpoints were taken")
	}
	if rep.RecoveredTime != 10*vtime.Microsecond || rep.LostTime != 0 {
		t.Fatalf("recovered/lost accounting wrong: %v / %v", rep.RecoveredTime, rep.LostTime)
	}
	// No answer is partial: the node came back.
	for _, em := range s.Tool.Enabled() {
		if p := em.Partial(); p != "" {
			t.Fatalf("recovered run annotated partial: %q", p)
		}
	}
	_ = clean
}

// Acceptance: a permanent crash yields annotated partial answers, and
// the report's lost-time accounting matches the crash window exactly.
func TestPermanentCrashPartial(t *testing.T) {
	plan := &fault.Plan{Seed: 7}
	plan.CrashAt(2, vtime.Time(40*vtime.Microsecond))
	s, rep, _, _ := runCrashed(t, plan)

	if len(rep.Crashes) != 1 || rep.Crashes[0].Recovered {
		t.Fatalf("expected one unrecovered window: %+v", rep.Crashes)
	}
	w := rep.Crashes[0]
	if want := s.Now().Sub(w.Down); rep.LostTime != want {
		t.Fatalf("lost time %v does not match crash window %v", rep.LostTime, want)
	}
	if rep.RecoveredTime != 0 {
		t.Fatalf("nothing recovered, yet RecoveredTime=%v", rep.RecoveredTime)
	}
	if rep.Injected.DeadTime != rep.LostTime {
		t.Fatalf("injector dead time %v != report lost time %v", rep.Injected.DeadTime, rep.LostTime)
	}
	if len(rep.LostNodes) != 1 || rep.LostNodes[0] != 2 {
		t.Fatalf("lost nodes wrong: %v", rep.LostNodes)
	}
	// Every whole-program answer is annotated partial.
	for _, em := range s.Tool.Enabled() {
		p := em.Partial()
		if !strings.Contains(p, "partial: lost node 2") {
			t.Fatalf("metric %s answer not annotated: %q", em.Metric.ID, p)
		}
	}
	// Display rows carry the annotation.
	rows := MetricRows(s.Tool.Enabled(), s.Now())
	if rows[0].Partial == "" {
		t.Fatal("display row lost the partial annotation")
	}
	if !strings.Contains(paradyn.Table("t", rows), "(partial: lost node 2") {
		t.Fatal("table does not render the partial annotation")
	}
	// The heartbeat protocol detected the death on its own.
	if rep.Supervisor.Detections == 0 {
		t.Fatalf("supervisor never detected the dead node: %+v", rep.Supervisor)
	}
	if s.Supervisor().Health(2).String() != "dead" {
		t.Fatalf("supervisor believes node 2 is %v", s.Supervisor().Health(2))
	}
	// A focus on a surviving node is NOT annotated; one on the dead node is.
	nodeFocus := func(name string) paradyn.Focus {
		r, ok := s.Tool.Axis.Find("Machine/" + name)
		if !ok {
			t.Fatalf("no %s resource", name)
		}
		f, err := paradyn.NewFocus(r)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	emAlive, err := s.Tool.EnableMetric("computations", nodeFocus("node1"))
	if err != nil {
		t.Fatal(err)
	}
	emDead, err := s.Tool.EnableMetric("computations", nodeFocus("node2"))
	if err != nil {
		t.Fatal(err)
	}
	if p := emAlive.Partial(); p != "" {
		t.Fatalf("surviving-node focus annotated: %q", p)
	}
	if p := emDead.Partial(); p == "" {
		t.Fatal("dead-node focus not annotated")
	}
	if rep.String() == "" || !strings.Contains(rep.String(), "never recovered") {
		t.Fatalf("report does not tell the story:\n%s", rep)
	}
}

// With periodic checkpoints disabled, a reboot recovers cold: the full
// journals replay onto the empty node, and the answers still converge.
func TestColdRecoveryConverges(t *testing.T) {
	run := func(plan *fault.Plan) (map[string]float64, *DegradationReport) {
		s, err := NewSession(faultTestProgram,
			WithNodes(4), WithSourceFile("ftest.fcm"), WithFaults(plan),
			WithRecovery(RecoveryConfig{CheckpointEvery: -1}))
		if err != nil {
			t.Fatal(err)
		}
		vals := make(map[string]float64)
		ems := make(map[string]*paradyn.EnabledMetric)
		for _, id := range crashCountMetrics {
			em, err := s.Tool.EnableMetric(id, paradyn.WholeProgram())
			if err != nil {
				t.Fatal(err)
			}
			ems[id] = em
		}
		rep, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		for id, em := range ems {
			vals[id] = em.Value(s.Now())
		}
		return vals, rep
	}
	vals, rep := run(transientPlan())
	cleanVals, _ := run(nil)
	if rep.Supervisor.ColdRecoveries != 1 || rep.Supervisor.Recoveries != 0 {
		t.Fatalf("expected one cold recovery: %+v", rep.Supervisor)
	}
	if rep.Checkpoints.Saves != 0 {
		t.Fatalf("checkpoints taken despite being disabled: %+v", rep.Checkpoints)
	}
	if rep.Supervisor.ProbesReplayed == 0 {
		t.Fatal("cold recovery replayed nothing")
	}
	for id, v := range vals {
		if cv := cleanVals[id]; v != cv {
			t.Fatalf("metric %s did not converge cold: %g vs %g", id, v, cv)
		}
	}
}

// TestCrashRecoveryMixedJournal: with gating on, statement-focus
// metrics and a monitor question, one node's SAS journal carries both
// the tool's {block BlockExecutes}/{a ArrayActive} records and the
// monitor's {lineN Executes} records. A transient crash must restore and
// replay them to the same answer, metric values and replay count as the
// run where the two vocabularies lived in separate SASes with separate
// journals (the values below were pinned there).
func TestCrashRecoveryMixedJournal(t *testing.T) {
	for _, plan := range []*fault.Plan{transientPlan(), nil} {
		s, err := NewSession(faultTestProgram,
			WithNodes(4), WithSourceFile("ftest.fcm"),
			WithFaults(plan), WithRecovery(crashRecovery()))
		if err != nil {
			t.Fatal(err)
		}
		s.Tool.EnableDynamicMapping()
		s.Tool.EnableGating()
		q, err := s.EnableSASMonitor(false).Ask("sends during SUM(A)", "{A Sums}, {? Sends}")
		if err != nil {
			t.Fatal(err)
		}
		// line6 is the FORALL over A, line8 is S = SUM(A).
		want := []struct {
			stmt, metric string
			value        float64
		}{
			{"line8", "summations", 1},
			{"line8", "point_to_point_ops", 3},
			{"line6", "computations", 1},
			{"line6", "computation_time", 1.04e-05},
		}
		ems := make([]*paradyn.EnabledMetric, len(want))
		for i, w := range want {
			res, ok := s.Tool.Axis.Find(paradyn.HierStmts + "/" + w.stmt)
			if !ok {
				t.Fatalf("statement %s missing from the where axis", w.stmt)
			}
			focus, err := paradyn.NewFocus(res)
			if err != nil {
				t.Fatal(err)
			}
			if ems[i], err = s.Tool.EnableMetric(w.metric, focus); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		now := s.Now()
		for i, w := range want {
			if got := ems[i].Value(now); got != w.value {
				t.Errorf("crashed=%v: %s at %s = %g, want %g", plan != nil, w.metric, w.stmt, got, w.value)
			}
		}
		ans, err := q.Answer(now)
		if err != nil {
			t.Fatal(err)
		}
		if ans.Count != 3 || ans.EventTime != 5160*vtime.Nanosecond || ans.SatisfiedTime != 5160*vtime.Nanosecond {
			t.Errorf("crashed=%v: answer %+v, want 3 sends over 5.16µs", plan != nil, ans)
		}
		if plan == nil {
			continue
		}
		st := s.Supervisor().Stats()
		if st.Recoveries != 1 || st.ColdRecoveries != 0 || st.SASReplayed != 6 {
			t.Errorf("supervisor %+v, want 1 recovery from checkpoint replaying 6 SAS records", st)
		}
	}
}
