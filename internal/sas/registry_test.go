package sas

import (
	"strings"
	"sync"
	"testing"

	"nvmap/internal/vtime"
)

// TestAggregateResultEmptyRegistry: aggregating over no nodes (or an id
// map covering none of them) is a zero result, not an error.
func TestAggregateResultEmptyRegistry(t *testing.T) {
	r := NewRegistry(Options{})
	agg, err := r.AggregateResult(map[int]QuestionID{0: 1}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Count != 0 || agg.EventTime != 0 || agg.SatisfiedTime != 0 || agg.Satisfied {
		t.Fatalf("empty aggregate = %+v", agg)
	}
	if st := r.TotalStats(); st != (Stats{}) {
		t.Fatalf("empty TotalStats = %+v", st)
	}
}

// TestAggregateResultSkipsUncoveredNodes: nodes absent from the id map
// simply do not contribute (the question was registered before those
// nodes materialised).
func TestAggregateResultSkipsUncoveredNodes(t *testing.T) {
	r := NewRegistry(Options{})
	for n := 0; n < 12; n++ {
		r.Node(n)
	}
	ids, err := r.AddQuestionAll(Q("q", T("Busy", Any)))
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 12; n++ {
		s := r.Node(n)
		s.Activate(sent("Busy", "x"), 0)
		if err := s.Deactivate(sent("Busy", "x"), 10); err != nil {
			t.Fatal(err)
		}
	}
	// Drop half the nodes from the map: only the covered half counts.
	for n := 0; n < 12; n += 2 {
		delete(ids, n)
	}
	agg, err := r.AggregateResult(ids, 100)
	if err != nil {
		t.Fatal(err)
	}
	if agg.SatisfiedTime != 6*10 {
		t.Fatalf("SatisfiedTime = %v, want 60", agg.SatisfiedTime)
	}
}

// TestAggregateResultReportsFirstErrorInNodeOrder: when several nodes
// fail, the reported error is the lowest node's.
func TestAggregateResultReportsFirstErrorInNodeOrder(t *testing.T) {
	r := NewRegistry(Options{})
	for n := 0; n < 12; n++ {
		r.Node(n)
	}
	ids, err := r.AddQuestionAll(Q("q", T("Busy", Any)))
	if err != nil {
		t.Fatal(err)
	}
	ids[3] = 97 // bogus: distinct values so the error identifies the node
	ids[7] = 98
	_, err = r.AggregateResult(ids, 100)
	if err == nil {
		t.Fatal("bogus question ids aggregated without error")
	}
	if !strings.Contains(err.Error(), "97") {
		t.Fatalf("error %q is not node 3's (want unknown question 97)", err)
	}
}

// TestApplyRemoteAllBroadcasts: the broadcast form reaches every SAS
// except the exporter's own.
func TestApplyRemoteAllBroadcasts(t *testing.T) {
	r := NewRegistry(Options{})
	for n := 0; n < 12; n++ {
		r.Node(n)
	}
	sn := sent("QueryActive", "q7")
	r.ApplyRemoteAll(Event{Sentence: sn, Active: true, At: 5, FromNode: 2})
	for n := 0; n < 12; n++ {
		active := r.Node(n).Active(sn)
		if n == 2 && active {
			t.Fatal("event echoed back to the exporting node")
		}
		if n != 2 && !active {
			t.Fatalf("node %d missed the broadcast", n)
		}
	}
	r.ApplyRemoteAll(Event{Sentence: sn, Active: false, At: 9, FromNode: 2})
	for n := 0; n < 12; n++ {
		if r.Node(n).Active(sn) {
			t.Fatalf("node %d missed the deactivation", n)
		}
	}
}

// TestCrossNodeExportUnderConcurrentAppliers: many client SASes export
// into one server SAS from separate goroutines — the transport layer of
// a parallel machine does exactly this. The server must end consistent:
// every sentence deactivated, question results accounting every client.
func TestCrossNodeExportUnderConcurrentAppliers(t *testing.T) {
	server := New(Options{Node: 99})
	qid, err := server.AddQuestion(Q("any query", T("QueryActive", Any)))
	if err != nil {
		t.Fatal(err)
	}
	const clients, rounds = 8, 50
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		client := New(Options{Node: c})
		if err := client.Export(T("QueryActive", Any), server, nil); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(client *SAS, c int) {
			defer wg.Done()
			sn := sent("QueryActive", "q"+string(rune('a'+c)))
			for i := 0; i < rounds; i++ {
				at := vtime.Time(i * 10)
				client.Activate(sn, at)
				_ = client.Deactivate(sn, at+5)
			}
		}(client, c)
	}
	wg.Wait()
	if server.Size() != 0 {
		t.Fatalf("server active set not drained: %d sentences", server.Size())
	}
	res, err := server.Result(qid, vtime.Time(rounds*10))
	if err != nil {
		t.Fatal(err)
	}
	if res.SatisfiedTime == 0 {
		t.Fatal("server accounted no query activity")
	}
}

// TestRegistryKeepAndSetFilter: SetFilter and Keep reach the SASes
// already materialised and the ones created later, and a kept verb's
// sentences are stored under filtering even when no question names
// them.
func TestRegistryKeepAndSetFilter(t *testing.T) {
	r := NewRegistry(Options{})
	r.Node(0)
	r.SetFilter(true)
	r.Keep("Busy")
	r.Node(1)
	if _, err := r.AddQuestionAll(Q("onlyA", T("Sum", "A"))); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 2; n++ {
		s := r.Node(n)
		s.Activate(sent("Busy", "blk"), 10) // kept: no question, still stored
		s.Activate(sent("Max", "B"), 20)    // neither kept nor asked: filtered
		s.Activate(sent("Sum", "A"), 30)    // asked
		if !s.Active(sent("Busy", "blk")) || s.Active(sent("Max", "B")) || s.Size() != 2 {
			t.Fatalf("node %d: active set %v, want {blk Busy} and {A Sum}", n, s.Snapshot())
		}
	}
	r.SetFilter(false)
	r.Node(2)
	for n := 0; n < 3; n++ {
		s := r.Node(n)
		s.Activate(sent("Max", "C"), 40)
		if !s.Active(sent("Max", "C")) {
			t.Fatalf("node %d dropped a sentence with filtering off", n)
		}
	}
}
