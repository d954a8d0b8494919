package sas

import (
	"strings"
	"sync"
	"testing"

	"nvmap/internal/vtime"
)

// TestAggregateResultEmptyRegistry: aggregating before any SAS exists,
// or over a registry of no nodes, is a zero result, not an error.
func TestAggregateResultEmptyRegistry(t *testing.T) {
	for _, nodes := range []int{4, 0} {
		r := NewRegistry(nodes, Options{})
		if nodes == 0 {
			if _, err := r.AddQuestionAll(Q("q", T("Busy", Any))); err != nil {
				t.Fatal(err)
			}
		}
		agg, err := r.AggregateResult(1, 100)
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
	if n := len(NewRegistry(4, Options{}).Nodes()); n != 0 {
		t.Fatalf("a fresh registry holds %d SASes, want 0", n)
	}
}

// TestQuestionBeforeAnySASAnsweredOnEveryNode: a question registered
// through the registry before any node's SAS exists creates the node
// table and is held, under its one id, by every node — each node
// answers its share and the aggregate sums them all.
func TestQuestionBeforeAnySASAnsweredOnEveryNode(t *testing.T) {
	const nodes = 12
	r := NewRegistry(nodes, Options{})
	first, err := r.AddQuestionAll(Q("first", T("Busy", Any)))
	if err != nil {
		t.Fatal(err)
	}
	id, err := r.AddQuestionAll(Q("q", T("Busy", Any)))
	if err != nil {
		t.Fatal(err)
	}
	if first != 0 || id != 1 {
		t.Fatalf("ids = %d, %d; want 0, 1 (the registry's question indexes)", first, id)
	}
	if got := len(r.Nodes()); got != nodes {
		t.Fatalf("%d SASes after AddQuestionAll, want %d", got, nodes)
	}
	for n := 0; n < nodes; n++ {
		s := r.Node(n)
		s.Activate(sent("Busy", "x"), 0)
		if err := s.Deactivate(sent("Busy", "x"), 10); err != nil {
			t.Fatal(err)
		}
		res, err := s.Result(id, 100)
		if err != nil {
			t.Fatalf("node %d does not hold question %d: %v", n, id, err)
		}
		if res.SatisfiedTime != 10 {
			t.Fatalf("node %d SatisfiedTime = %v, want 10", n, res.SatisfiedTime)
		}
	}
	agg, err := r.AggregateResult(id, 100)
	if err != nil {
		t.Fatal(err)
	}
	if agg.SatisfiedTime != nodes*10 || agg.Question.Label != "q" {
		t.Fatalf("aggregate = %+v, want SatisfiedTime %d", agg, nodes*10)
	}
}

// TestAggregateResultReportsFirstErrorInNodeOrder: a question asked of
// one node only is unknown to the others, and aggregating it reports
// the lowest failing node. A node's own AddQuestion draws its id from
// the registry, so it never collides with a question asked of all.
func TestAggregateResultReportsFirstErrorInNodeOrder(t *testing.T) {
	r := NewRegistry(12, Options{})
	all, err := r.AddQuestionAll(Q("q", T("Busy", Any)))
	if err != nil {
		t.Fatal(err)
	}
	local, err := r.Node(0).AddQuestion(Q("local", T("Busy", Any)))
	if err != nil {
		t.Fatal(err)
	}
	if local == all {
		t.Fatalf("node question took the registry question's id %d", all)
	}
	_, err = r.AggregateResult(local, 100)
	if err == nil {
		t.Fatal("a one-node question aggregated over every node without error")
	}
	if !strings.Contains(err.Error(), "node 1:") {
		t.Fatalf("error %q is not node 1's (the lowest node without the question)", err)
	}
}

// TestApplyRemoteAllBroadcasts: the broadcast form reaches every SAS
// except the exporter's own.
func TestApplyRemoteAllBroadcasts(t *testing.T) {
	r := NewRegistry(12, Options{})
	r.Node(0)
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

// TestRegistryKeepAndSetFilter: SetFilter and Keep reach the node
// table whether they come before it exists or after, and a kept verb's
// sentences are stored under filtering even when no question names
// them.
func TestRegistryKeepAndSetFilter(t *testing.T) {
	r := NewRegistry(3, Options{})
	r.SetFilter(true)
	r.Keep("Busy")
	if _, err := r.AddQuestionAll(Q("onlyA", T("Sum", "A"))); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 3; n++ {
		s := r.Node(n)
		s.Activate(sent("Busy", "blk"), 10) // kept: no question, still stored
		s.Activate(sent("Max", "B"), 20)    // neither kept nor asked: filtered
		s.Activate(sent("Sum", "A"), 30)    // asked
		if !s.Active(sent("Busy", "blk")) || s.Active(sent("Max", "B")) || s.Size() != 2 {
			t.Fatalf("node %d: active set %v, want {blk Busy} and {A Sum}", n, s.Snapshot())
		}
	}
	r.Keep("Idle")
	for n := 0; n < 3; n++ {
		s := r.Node(n)
		s.Activate(sent("Idle", "i"), 35)
		if !s.Active(sent("Idle", "i")) {
			t.Fatalf("node %d filtered a verb kept after the table existed", n)
		}
	}
	r.SetFilter(false)
	for n := 0; n < 3; n++ {
		s := r.Node(n)
		s.Activate(sent("Max", "C"), 40)
		if !s.Active(sent("Max", "C")) {
			t.Fatalf("node %d dropped a sentence with filtering off", n)
		}
	}
}
