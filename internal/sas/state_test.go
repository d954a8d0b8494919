package sas

import (
	"slices"
	"testing"

	"nvmap/internal/vtime"
)

// The journal hook sees every local operation; Replay reproduces them
// without re-journaling, so a recovered SAS converges to the original.
func TestJournalAndReplayConverge(t *testing.T) {
	src := New(Options{})
	var journal []Record
	src.SetRecorder(func(r Record) { journal = append(journal, r) })
	qid, err := src.AddQuestion(Q("sends during sum", T("Sum", "A"), T("Send", Any)))
	if err != nil {
		t.Fatal(err)
	}

	sum, send := sent("Sum", "A"), sent("Send", "P")
	src.Activate(sum, 10)
	src.Activate(send, 20)
	src.RecordEvent(send, 25, 3)
	src.RecordSpan(send, 25, 30, 5)
	if err := src.Deactivate(send, 30); err != nil {
		t.Fatal(err)
	}
	if len(journal) != 5 {
		t.Fatalf("journaled %d records, want 5", len(journal))
	}

	// A fresh SAS with the same question, fed only the journal.
	dst := New(Options{})
	qid2, err := dst.AddQuestion(Q("sends during sum", T("Sum", "A"), T("Send", Any)))
	if err != nil {
		t.Fatal(err)
	}
	if qid2 != qid {
		t.Fatalf("question IDs diverged: %v vs %v", qid2, qid)
	}
	var reJournal []Record
	dst.SetRecorder(func(r Record) { reJournal = append(reJournal, r) })
	for _, r := range journal {
		dst.Replay(r)
	}
	if len(reJournal) != 0 {
		t.Fatalf("replay re-journaled %d records", len(reJournal))
	}

	a, err := src.Result(qid, 40)
	if err != nil {
		t.Fatal(err)
	}
	b, err := dst.Result(qid2, 40)
	if err != nil {
		t.Fatal(err)
	}
	if a.Count != b.Count || a.EventTime != b.EventTime || a.SatisfiedTime != b.SatisfiedTime || a.Satisfied != b.Satisfied {
		t.Fatalf("replayed result diverged: %+v vs %+v", b, a)
	}
	if !dst.Active(sum) || dst.Active(send) {
		t.Fatal("replayed active set wrong")
	}
}

// ExportState/RestoreState round-trip the measurement state of a
// partition: active set, question results, statistics.
func TestExportRestoreStateRoundtrip(t *testing.T) {
	s := New(Options{Node: 3})
	qid, err := s.AddQuestion(Q("q", T("Sum", "A")))
	if err != nil {
		t.Fatal(err)
	}
	s.Activate(sent("Sum", "A"), 10)
	s.RecordEvent(sent("Sum", "A"), 15, 2)
	st := s.ExportState()
	if st.Node != 3 || len(st.Active) != 1 || len(st.Questions) != 1 {
		t.Fatalf("exported %+v", st)
	}

	// Wipe and restore: Reset keeps the question registered (RestoreState
	// only fills questions the SAS knows) and zeroes its results.
	s.Reset()
	if s.Size() != 0 {
		t.Fatal("reset left active sentences")
	}
	if r, err := s.Result(qid, 20); err != nil || r.Count != 0 || r.Satisfied {
		t.Fatalf("after reset: %+v, %v", r, err)
	}
	s.RestoreState(st)
	if !s.Active(sent("Sum", "A")) {
		t.Fatal("restore lost the active set")
	}
	r, err := s.Result(qid, 20)
	if err != nil {
		t.Fatal(err)
	}
	if r.Count != 2 || !r.Satisfied {
		t.Fatalf("restored result %+v", r)
	}
	// A snapshot mentioning an unknown question is dropped, not applied.
	st.Questions[0].ID = 99
	s.RestoreState(st)
}

// Registry.ResetNode wipes a node in place but keeps its questions: ids
// handed out before the crash stay valid with their results zeroed, and
// a question watched before the crash still reports its gate flips —
// the §6.1 flag stays wired through a reboot.
func TestResetNodeKeepsQuestionsAndWatchers(t *testing.T) {
	r := NewRegistry(2, Options{})
	first, err := r.AddQuestionAll(Q("first", T("Sum", "A")))
	if err != nil {
		t.Fatal(err)
	}
	second, err := r.AddQuestionAll(Q("second", T("Send", Any)))
	if err != nil {
		t.Fatal(err)
	}
	n0 := r.Node(0)
	var flips []bool
	if err := n0.Watch(first, func(sat bool, _ vtime.Time) { flips = append(flips, sat) }); err != nil {
		t.Fatal(err)
	}
	n0.Activate(sent("Sum", "A"), 5)
	n0.RecordEvent(sent("Sum", "A"), 6, 1)
	if reborn := r.ResetNode(0); reborn != n0 {
		t.Fatal("ResetNode returned a different SAS — held pointers broke")
	}
	if n0.Size() != 0 || n0.Stats().Notifications != 0 {
		t.Fatal("reset node kept active sentences or statistics")
	}
	for _, id := range []QuestionID{first, second} {
		res, err := n0.Result(id, 10)
		if err != nil {
			t.Fatalf("question %d invalid after reset: %v", id, err)
		}
		if res.Count != 0 || res.SatisfiedTime != 0 || res.Satisfied {
			t.Fatalf("reborn node kept results of question %d: %+v", id, res)
		}
	}
	// The wipe closed the gate; after the reboot the watcher hears the
	// same id's gate open and close again.
	n0.Activate(sent("Sum", "A"), 20)
	if err := n0.Deactivate(sent("Sum", "A"), 30); err != nil {
		t.Fatal(err)
	}
	if want := []bool{true, false, true, false}; !slices.Equal(flips, want) {
		t.Fatalf("watch flips = %v, want %v", flips, want)
	}
	if res, _ := n0.Result(first, 40); res.SatisfiedTime != 10 {
		t.Fatalf("post-crash SatisfiedTime = %v, want 10", res.SatisfiedTime)
	}
	// The untouched node is unaffected.
	if res, err := r.Node(1).Result(first, 10); err != nil || res.Count != 0 {
		t.Fatalf("node 1: %+v, %v", res, err)
	}
}
