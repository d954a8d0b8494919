package nvmap

import (
	"strings"
	"testing"

	"nvmap/internal/paradyn"
	"nvmap/internal/sas"
)

func TestMonitorAskTextQuestions(t *testing.T) {
	s, err := NewSession(hpfProgram, WithNodes(4), WithSourceFile("hpf.fcm"))
	if err != nil {
		t.Fatal(err)
	}
	m := s.EnableSASMonitor(false)
	qSends, err := m.Ask("", "{A Sums}, {? Sends}")
	if err != nil {
		t.Fatal(err)
	}
	qGate, err := m.Ask("sum gate", "{A Sums}")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	r1, err := qSends.Answer(s.Now())
	if err != nil {
		t.Fatal(err)
	}
	if r1.Count != 3 {
		t.Fatalf("sends during SUM(A) = %g, want 3", r1.Count)
	}
	r2, err := qGate.Answer(s.Now())
	if err != nil {
		t.Fatal(err)
	}
	if r2.SatisfiedTime <= 0 {
		t.Fatalf("gate time = %v", r2.SatisfiedTime)
	}
}

func TestMonitorAskValidation(t *testing.T) {
	s, err := NewSession(hpfProgram, WithNodes(2))
	if err != nil {
		t.Fatal(err)
	}
	m := s.EnableSASMonitor(false)
	if _, err := m.Ask("", "not a question"); err == nil {
		t.Fatal("malformed question accepted")
	}
}

func TestMonitorSnapshotWhen(t *testing.T) {
	s, err := NewSession(hpfProgram, WithNodes(4))
	if err != nil {
		t.Fatal(err)
	}
	m := s.EnableSASMonitor(false)
	m.SnapshotWhen(sas.T("Sums", sas.Any))
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Snapshot == nil {
		t.Fatal("snapshot trigger never fired")
	}
	found := false
	for _, a := range m.Snapshot {
		if a.Sentence.Verb == "Sums" {
			found = true
		}
	}
	if !found {
		t.Fatalf("snapshot %v lacks the triggering sentence", m.Snapshot)
	}
}

func TestMonitorStatsAndFiltering(t *testing.T) {
	run := func(filter bool) sas.Stats {
		s, err := NewSession(hpfProgram, WithNodes(4))
		if err != nil {
			t.Fatal(err)
		}
		m := s.EnableSASMonitor(filter)
		if _, err := m.Ask("", "{A Sums}"); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return s.Tool.SASes.TotalStats()
	}
	unfiltered := run(false)
	filtered := run(true)
	if unfiltered.Notifications != filtered.Notifications {
		t.Fatalf("notification counts differ: %d vs %d",
			unfiltered.Notifications, filtered.Notifications)
	}
	if filtered.Ignored == 0 || filtered.Stored >= unfiltered.Stored {
		t.Fatalf("filtering ineffective: %+v vs %+v", filtered, unfiltered)
	}
}

func TestMonitorOrderedQuestionText(t *testing.T) {
	s, err := NewSession(hpfProgram, WithNodes(4))
	if err != nil {
		t.Fatal(err)
	}
	m := s.EnableSASMonitor(false)
	q, err := m.Ask("", "{? Sends}, {A Sums} [ordered]")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	r, err := q.Answer(s.Now())
	if err != nil {
		t.Fatal(err)
	}
	// A summation never begins inside a send.
	if r.Count != 0 {
		t.Fatalf("ordered count = %g, want 0", r.Count)
	}
}

// TestMonitorSnapshotLabelsEveryLevel: with gating on, the tool's
// sentences are active in the same SAS as the monitor's, and a Figure 5
// snapshot names each sentence's level — none prints as "?".
func TestMonitorSnapshotLabelsEveryLevel(t *testing.T) {
	s, err := NewSession(hpfProgram, WithNodes(4), WithSourceFile("hpf.fcm"))
	if err != nil {
		t.Fatal(err)
	}
	s.Tool.EnableGating()
	m := s.EnableSASMonitor(false)
	m.SnapshotWhen(sas.T(verbSums, "A"))
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Snapshot == nil {
		t.Fatal("snapshot trigger never fired")
	}
	text := sas.FormatSnapshot(m.Snapshot, m.Model)
	if strings.Contains(text, "?:") {
		t.Errorf("snapshot has an unlabelled sentence:\n%s", text)
	}
	found := false
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "CMRTS:") && strings.Contains(line, string(paradyn.VerbBlockExec)) {
			found = true
		}
	}
	if !found {
		t.Errorf("snapshot has no CMRTS BlockExecutes sentence:\n%s", text)
	}
}

// TestEnableSASMonitorIsIdempotent: a second EnableSASMonitor returns the
// monitor already installed, rather than a second snippet set on the
// same SASes that would count every send twice.
func TestEnableSASMonitorIsIdempotent(t *testing.T) {
	s, err := NewSession(hpfProgram, WithNodes(4), WithSourceFile("hpf.fcm"))
	if err != nil {
		t.Fatal(err)
	}
	m := s.EnableSASMonitor(false)
	if again := s.EnableSASMonitor(true); again != m {
		t.Fatal("second EnableSASMonitor built a new monitor")
	}
	q, err := m.Ask("", "{A Sums}, {? Sends}")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	r, err := q.Answer(s.Now())
	if err != nil {
		t.Fatal(err)
	}
	if r.Count != 3 {
		t.Fatalf("sends during SUM(A) = %g, want 3", r.Count)
	}
	// The first call's filter stands: nothing was filtered.
	if st := s.Tool.SASes.TotalStats(); st.Ignored != 0 {
		t.Fatalf("the second call's filter took effect: %+v", st)
	}
}

// TestFilteredMonitorKeepsGatingSentences: the monitor's relevance filter
// covers the tool's gating sentences too, since they share one SAS per
// node. Array- and statement-focus metrics read those sentences, so a
// filtered run must give the same metric values and answer as an
// unfiltered one.
func TestFilteredMonitorKeepsGatingSentences(t *testing.T) {
	type outcome struct {
		vals   []float64
		answer sas.Result
		stats  sas.Stats
	}
	run := func(filter bool) outcome {
		s, err := NewSession(hpfProgram, WithNodes(4), WithSourceFile("hpf.fcm"))
		if err != nil {
			t.Fatal(err)
		}
		s.Tool.EnableDynamicMapping()
		s.Tool.EnableGating()
		q, err := s.EnableSASMonitor(filter).Ask("", "{A Sums}, {? Sends}")
		if err != nil {
			t.Fatal(err)
		}
		var ems []*paradyn.EnabledMetric
		for _, f := range []struct{ hier, name, metric string }{
			{paradyn.HierArrays, "A", "summations"},
			{paradyn.HierArrays, "B", "computations"},
			{paradyn.HierStmts, "line11", "summations"},
			{paradyn.HierStmts, "line11", "point_to_point_ops"},
		} {
			focus, err := paradyn.NewFocus(s.Tool.Axis.AddPath(f.hier, f.name))
			if err != nil {
				t.Fatal(err)
			}
			em, err := s.Tool.EnableMetric(f.metric, focus)
			if err != nil {
				t.Fatal(err)
			}
			ems = append(ems, em)
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		var o outcome
		for _, em := range ems {
			o.vals = append(o.vals, em.Value(s.Now()))
		}
		if o.answer, err = q.Answer(s.Now()); err != nil {
			t.Fatal(err)
		}
		o.stats = s.Tool.SASes.TotalStats()
		return o
	}
	plain, filtered := run(false), run(true)
	for i, v := range plain.vals {
		if v == 0 {
			t.Fatalf("metric %d reads 0 unfiltered; the comparison shows nothing", i)
		}
		if filtered.vals[i] != v {
			t.Errorf("metric %d: filtered %g, unfiltered %g", i, filtered.vals[i], v)
		}
	}
	if a, b := filtered.answer, plain.answer; a.Count != b.Count || a.EventTime != b.EventTime || a.SatisfiedTime != b.SatisfiedTime {
		t.Errorf("answer: filtered %+v, unfiltered %+v", filtered.answer, plain.answer)
	}
	if filtered.stats.Ignored == 0 {
		t.Errorf("the filter ignored nothing: %+v", filtered.stats)
	}
}

// TestExportReliableRejectsUnknownNodes: a reliable export names two
// nodes of the session's machine. An id outside [0, Nodes) is an error,
// not a SAS conjured for a node the machine does not have.
func TestExportReliableRejectsUnknownNodes(t *testing.T) {
	s, err := NewSession(hpfProgram, WithNodes(8), WithSourceFile("hpf.fcm"))
	if err != nil {
		t.Fatal(err)
	}
	m := s.EnableSASMonitor(false)
	for _, c := range [][2]int{{99, 0}, {1, 99}, {-1, 0}, {0, -1}, {8, 0}} {
		if _, err := m.ExportReliable(c[0], c[1], sas.T(verbSends, sas.Any)); err == nil {
			t.Errorf("ExportReliable(%d, %d) accepted a node outside the 8-node machine", c[0], c[1])
		}
	}
	if n := len(s.Tool.SASes.Nodes()); n != 0 && n != 8 {
		t.Fatalf("%d SASes, want the machine's 8 (or none yet)", n)
	}
	if _, err := m.ExportReliable(7, 0, sas.T(verbSends, sas.Any)); err != nil {
		t.Fatalf("ExportReliable(7, 0): %v", err)
	}
}
