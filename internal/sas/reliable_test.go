package sas

import (
	"testing"

	"nvmap/internal/fault"
	"nvmap/internal/vtime"
)

// playQueries drives the Section 4.2.3 client/server scenario: the
// client runs a series of queries, the server performs disk reads while
// each is active, and two server-side questions count reads for query7
// and for any query. flush, when non-nil, is called after every client
// activation change — it models the sender's retransmit timer firing
// before the server's next dependent measurement.
func playQueries(t *testing.T, client, server *SAS, flush func(vtime.Time)) (q7, anyQ float64) {
	t.Helper()
	if flush == nil {
		flush = func(vtime.Time) {}
	}
	id7, err := server.AddQuestion(Q("reads for query7", T("QueryActive", "query7"), T("DiskRead", Any)))
	if err != nil {
		t.Fatal(err)
	}
	idAny, err := server.AddQuestion(Q("reads for any query", T("QueryActive", Any), T("DiskRead", Any)))
	if err != nil {
		t.Fatal(err)
	}
	now := vtime.Time(0)
	tick := func() vtime.Time { now += 10; return now }
	for _, qr := range []struct {
		name  string
		reads int
	}{
		{"query7", 5},
		{"query3", 3},
		{"query9", 2},
		{"query7", 4},
	} {
		client.Activate(sent("QueryActive", qr.name), tick())
		flush(now)
		for i := 0; i < qr.reads; i++ {
			server.RecordEvent(sent("DiskRead", "disk0"), tick(), 1)
		}
		if err := client.Deactivate(sent("QueryActive", qr.name), tick()); err != nil {
			t.Fatal(err)
		}
		flush(now)
		// A read between queries must not be charged.
		server.RecordEvent(sent("DiskRead", "disk0"), tick(), 1)
	}
	r7, err := server.Result(id7, now)
	if err != nil {
		t.Fatal(err)
	}
	rAny, err := server.Result(idAny, now)
	if err != nil {
		t.Fatal(err)
	}
	return r7.Count, rAny.Count
}

// The lossless answers the scenario must always converge to.
const (
	wantQ7  = 5 + 4
	wantAny = 5 + 3 + 2 + 4
)

// A ReliableLink over a perfect transport behaves exactly like a plain
// export, and every event ends up acknowledged.
func TestReliableLinkLossless(t *testing.T) {
	r := NewRegistry(2, Options{})
	client, server := r.Node(0), r.Node(1)
	link, err := client.ExportReliable(T("QueryActive", Any), server, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	q7, anyQ := playQueries(t, client, server, nil)
	if q7 != wantQ7 || anyQ != wantAny {
		t.Fatalf("counts = %g, %g; want %d, %d", q7, anyQ, wantQ7, wantAny)
	}
	st := link.Stats()
	if st.Sent != 8 || st.Acked != 8 || link.Unacked() != 0 {
		t.Fatalf("link stats %+v, unacked %d", st, link.Unacked())
	}
	if st.Retransmits != 0 || st.Resyncs != 0 || st.Gaps != 0 || st.DuplicatesDropped != 0 {
		t.Fatalf("recovery machinery engaged on a perfect link: %+v", st)
	}
}

// The acceptance property of the whole protocol: under heavy loss,
// duplication and reordering, a reliable link whose retransmit timer
// fires between operations converges to exactly the lossless answers.
func TestLossyConvergesToLossless(t *testing.T) {
	// Lossless baseline over a plain export.
	r := NewRegistry(2, Options{})
	client, server := r.Node(0), r.Node(1)
	if err := client.Export(T("QueryActive", Any), server, nil); err != nil {
		t.Fatal(err)
	}
	baseQ7, baseAny := playQueries(t, client, server, nil)
	if baseQ7 != wantQ7 || baseAny != wantAny {
		t.Fatalf("baseline counts = %g, %g", baseQ7, baseAny)
	}

	inj := fault.NewInjector(&fault.Plan{Seed: 1234, SAS: fault.SASFaults{
		DropProb: 0.4, DupProb: 0.2, ReorderProb: 0.2, Resync: true,
	}})
	r2 := NewRegistry(2, Options{})
	client2, server2 := r2.Node(0), r2.Node(1)
	lossy := &LossyTransport{Inj: inj}
	link, err := client2.ExportReliable(T("QueryActive", Any), server2, lossy, true)
	if err != nil {
		t.Fatal(err)
	}
	q7, anyQ := playQueries(t, client2, server2, link.Flush)
	if q7 != baseQ7 || anyQ != baseAny {
		t.Fatalf("lossy counts = %g, %g; lossless baseline %g, %g (link %+v, report %+v)",
			q7, anyQ, baseQ7, baseAny, link.Stats(), inj.Report())
	}
	rep := inj.Report()
	if rep.SASDropped == 0 {
		t.Fatalf("loss never happened — test proves nothing: %+v", rep)
	}
	if link.Stats().Retransmits == 0 {
		t.Fatalf("no retransmissions under 40%% loss: %+v", link.Stats())
	}
}

// Duplicated events are detected by sequence number and discarded.
func TestDuplicateSuppression(t *testing.T) {
	inj := fault.NewInjector(&fault.Plan{Seed: 5, SAS: fault.SASFaults{DupProb: 1}})
	r := NewRegistry(2, Options{})
	client, server := r.Node(0), r.Node(1)
	link, err := client.ExportReliable(T("QueryActive", Any), server, &LossyTransport{Inj: inj}, false)
	if err != nil {
		t.Fatal(err)
	}
	q7, anyQ := playQueries(t, client, server, nil)
	if q7 != wantQ7 || anyQ != wantAny {
		t.Fatalf("counts = %g, %g under duplication", q7, anyQ)
	}
	if st := link.Stats(); st.DuplicatesDropped != st.Sent {
		t.Fatalf("every event was duplicated once, want %d dups dropped: %+v", st.Sent, st)
	}
}

// An adjacent swap (deactivate overtakes the next activate, or
// vice versa) is buffered by sequence number and applied in order, so
// the server never acts on a stale view.
func TestReorderBuffered(t *testing.T) {
	inj := fault.NewInjector(&fault.Plan{Seed: 3, SAS: fault.SASFaults{ReorderProb: 1}})
	r := NewRegistry(2, Options{})
	client, server := r.Node(0), r.Node(1)
	lossy := &LossyTransport{Inj: inj}
	link, err := client.ExportReliable(T("QueryActive", Any), server, lossy, false)
	if err != nil {
		t.Fatal(err)
	}
	// With ReorderProb=1 the first event is held; the second is
	// delivered first, then the held one — an adjacent swap on the wire.
	client.Activate(sent("QueryActive", "query7"), 10)
	if err := client.Deactivate(sent("QueryActive", "query7"), 20); err != nil {
		t.Fatal(err)
	}
	lossy.Flush()
	if server.Active(sent("QueryActive", "query7")) {
		t.Fatal("server left with a stale activation after reorder")
	}
	if st := link.Stats(); st.Gaps == 0 {
		t.Fatalf("reorder produced no gap detection: %+v", st)
	}
	if link.Unacked() != 0 {
		t.Fatalf("unacked %d after in-order apply", link.Unacked())
	}
}

// dropGate is a test transport with a switchable black hole.
type dropGate struct {
	drop bool
}

func (g *dropGate) Send(ev Event, to *SAS) {
	if !g.drop {
		to.ApplyRemote(ev)
	}
}

// When a gap grows past the threshold the receiver gives up on
// retransmission and pulls a snapshot of the sender's matching active
// set; the views converge and stale retransmits are ignored.
func TestGapTriggersResync(t *testing.T) {
	r := NewRegistry(2, Options{})
	client, server := r.Node(0), r.Node(1)
	gate := &dropGate{}
	link, err := client.ExportReliable(T("QueryActive", Any), server, gate, true)
	if err != nil {
		t.Fatal(err)
	}
	// Lose an activate/deactivate pair plus two more activates: four
	// events the server never sees.
	gate.drop = true
	client.Activate(sent("QueryActive", "query1"), 10)
	_ = client.Deactivate(sent("QueryActive", "query1"), 20)
	client.Activate(sent("QueryActive", "query2"), 30)
	client.Activate(sent("QueryActive", "query3"), 40)
	gate.drop = false
	// Four more arrive out of order (seq 5..8 with 1..4 missing): the
	// pending buffer hits the threshold and triggers a snapshot resync.
	client.Activate(sent("QueryActive", "query4"), 50)
	client.Activate(sent("QueryActive", "query5"), 60)
	_ = client.Deactivate(sent("QueryActive", "query5"), 70)
	client.Activate(sent("QueryActive", "query6"), 80)

	st := link.Stats()
	if st.Resyncs == 0 {
		t.Fatalf("gap never triggered a resync: %+v", st)
	}
	for _, want := range []struct {
		q      string
		active bool
	}{
		{"query1", false}, {"query2", true}, {"query3", true},
		{"query4", true}, {"query5", false}, {"query6", true},
	} {
		if got := server.Active(sent("QueryActive", want.q)); got != want.active {
			t.Fatalf("after resync %s active=%v, want %v (link %+v)", want.q, got, want.active, st)
		}
	}
	// Traffic after the resync flows normally again.
	_ = client.Deactivate(sent("QueryActive", "query6"), 90)
	if server.Active(sent("QueryActive", "query6")) {
		t.Fatal("post-resync deactivation lost")
	}
}

// If retransmission cannot drain the unacked buffer (a dead wire),
// Flush falls back to a snapshot resync so the receiver still
// converges.
func TestFlushFallsBackToResync(t *testing.T) {
	r := NewRegistry(2, Options{})
	client, server := r.Node(0), r.Node(1)
	gate := &dropGate{drop: true}
	link, err := client.ExportReliable(T("QueryActive", Any), server, gate, true)
	if err != nil {
		t.Fatal(err)
	}
	client.Activate(sent("QueryActive", "query7"), 10)
	if link.Unacked() != 1 {
		t.Fatalf("unacked = %d", link.Unacked())
	}
	link.Flush(20)
	if st := link.Stats(); st.Resyncs != 1 {
		t.Fatalf("flush on a dead wire did not resync: %+v", st)
	}
	if !server.Active(sent("QueryActive", "query7")) {
		t.Fatal("snapshot resync did not deliver the activation")
	}
	if link.Unacked() != 0 {
		t.Fatalf("unacked = %d after resync", link.Unacked())
	}
}

// A resync must only touch entries owned by its own link: local
// sentences and entries from other links survive.
func TestResyncScopedToLink(t *testing.T) {
	r := NewRegistry(3, Options{})
	a, b, server := r.Node(0), r.Node(1), r.Node(2)
	gateA := &dropGate{}
	linkA, err := a.ExportReliable(T("QueryActive", Any), server, gateA, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.ExportReliable(T("QueryActive", Any), server, nil, true); err != nil {
		t.Fatal(err)
	}
	// Server's own local sentence and one from link B.
	server.Activate(sent("ServerBusy", "s"), 5)
	b.Activate(sent("QueryActive", "fromB"), 6)
	// Link A loses an activation, then resyncs.
	gateA.drop = true
	a.Activate(sent("QueryActive", "fromA"), 10)
	gateA.drop = false
	linkA.Resync(20)
	for _, q := range []string{"fromA", "fromB"} {
		if !server.Active(sent("QueryActive", q)) {
			t.Fatalf("%s lost", q)
		}
	}
	if !server.Active(sent("ServerBusy", "s")) {
		t.Fatal("local sentence lost to a link resync")
	}
	// A deactivates; the next resync must remove only fromA.
	gateA.drop = true
	_ = a.Deactivate(sent("QueryActive", "fromA"), 30)
	gateA.drop = false
	linkA.Resync(40)
	if server.Active(sent("QueryActive", "fromA")) {
		t.Fatal("stale fromA survived resync")
	}
	if !server.Active(sent("QueryActive", "fromB")) || !server.Active(sent("ServerBusy", "s")) {
		t.Fatal("resync of link A touched foreign entries")
	}
}
