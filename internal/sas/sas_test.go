package sas

import (
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"nvmap/internal/nv"
	"nvmap/internal/vtime"
)

func sent(verb string, nouns ...string) nv.Sentence {
	ids := make([]nv.NounID, len(nouns))
	for i, n := range nouns {
		ids[i] = nv.NounID(n)
	}
	return nv.NewSentence(nv.VerbID(verb), ids...)
}

func TestActivateDeactivateBasics(t *testing.T) {
	s := New(Options{})
	a := sent("Sum", "A")
	if s.Active(a) {
		t.Fatal("fresh SAS reports active sentence")
	}
	s.Activate(a, 10)
	if !s.Active(a) || s.Size() != 1 {
		t.Fatal("activation not recorded")
	}
	if err := s.Deactivate(a, 20); err != nil {
		t.Fatal(err)
	}
	if s.Active(a) || s.Size() != 0 {
		t.Fatal("deactivation not applied")
	}
	if err := s.Deactivate(a, 30); err == nil {
		t.Fatal("unbalanced deactivate accepted")
	}
}

func TestNestedActivation(t *testing.T) {
	s := New(Options{})
	a := sent("Execute", "RECURSE")
	s.Activate(a, 1)
	s.Activate(a, 2)
	snap := s.Snapshot()
	if len(snap) != 1 || snap[0].Depth != 2 || snap[0].Since != 1 {
		t.Fatalf("nested snapshot = %+v", snap)
	}
	if err := s.Deactivate(a, 3); err != nil {
		t.Fatal(err)
	}
	if !s.Active(a) {
		t.Fatal("inner deactivate removed outer activation")
	}
	if err := s.Deactivate(a, 4); err != nil {
		t.Fatal(err)
	}
	if s.Active(a) {
		t.Fatal("sentence still active after balanced deactivates")
	}
}

// Figure 5: the SAS when a message is sent during SUM(A) — three active
// sentences, two at the HPF level and one at the base level.
func TestFigure5Snapshot(t *testing.T) {
	s := New(Options{})
	s.Activate(sent("Executes", "line1"), 100)
	s.Activate(sent("Sums", "A"), 110)
	s.Activate(sent("SendsMessage", "Processor0"), 120)

	snap := s.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot size = %d, want 3", len(snap))
	}
	// Snapshot is ordered by activation time.
	if !snap[0].Sentence.Equal(sent("Executes", "line1")) ||
		!snap[1].Sentence.Equal(sent("Sums", "A")) ||
		!snap[2].Sentence.Equal(sent("SendsMessage", "Processor0")) {
		t.Fatalf("snapshot order wrong: %v", snap)
	}

	reg := nv.NewRegistry()
	for _, l := range []nv.Level{{ID: "HPF", Rank: 1}, {ID: "Base", Rank: 0}} {
		if err := reg.AddLevel(l); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range []nv.Verb{
		{ID: "Executes", Level: "HPF"}, {ID: "Sums", Level: "HPF"},
		{ID: "SendsMessage", Level: "Base"},
	} {
		if err := reg.AddVerb(v); err != nil {
			t.Fatal(err)
		}
	}
	text := FormatSnapshot(snap, reg)
	want := []string{"HPF:", "{line1 Executes}", "{A Sums}", "Base:", "{Processor0 SendsMessage}"}
	for _, w := range want {
		if !strings.Contains(text, w) {
			t.Errorf("FormatSnapshot missing %q:\n%s", w, text)
		}
	}
}

// Figure 6, row 1: {A Sum} — cost of summations of A.
func TestQuestionSingleTerm(t *testing.T) {
	s := New(Options{})
	id, err := s.AddQuestion(Q("sumA", T("Sum", "A")))
	if err != nil {
		t.Fatal(err)
	}
	if s.Satisfied(id) {
		t.Fatal("satisfied before any activation")
	}
	s.Activate(sent("Sum", "A"), 100)
	if !s.Satisfied(id) {
		t.Fatal("not satisfied while {A Sum} active")
	}
	if err := s.Deactivate(sent("Sum", "A"), 250); err != nil {
		t.Fatal(err)
	}
	res, err := s.Result(id, 300)
	if err != nil {
		t.Fatal(err)
	}
	if res.SatisfiedTime != 150 {
		t.Fatalf("SatisfiedTime = %v, want 150", res.SatisfiedTime)
	}
	if res.Satisfied {
		t.Fatal("still satisfied after deactivation")
	}
}

// Figure 6, row 3: {A Sum}, {Processor_P Send} — cost of sends by P while
// A is being summed.
func TestQuestionConjunction(t *testing.T) {
	s := New(Options{})
	id, err := s.AddQuestion(Q("sendsDuringSumA", T("Sum", "A"), T("Send", "P")))
	if err != nil {
		t.Fatal(err)
	}

	// Send while not summing: not charged.
	if hits := s.RecordEvent(sent("Send", "P"), 10, 1); hits != 0 {
		t.Fatalf("send outside summation charged %d questions", hits)
	}

	s.Activate(sent("Sum", "A"), 100)
	if hits := s.RecordEvent(sent("Send", "P"), 110, 1); hits != 1 {
		t.Fatalf("send during summation charged %d questions, want 1", hits)
	}
	if hits := s.RecordEvent(sent("Send", "P"), 120, 1); hits != 1 {
		t.Fatal("second send not charged")
	}
	// A send by another processor does not match.
	if hits := s.RecordEvent(sent("Send", "Q"), 130, 1); hits != 0 {
		t.Fatalf("send by wrong processor charged %d", hits)
	}
	if err := s.Deactivate(sent("Sum", "A"), 200); err != nil {
		t.Fatal(err)
	}
	if hits := s.RecordEvent(sent("Send", "P"), 210, 1); hits != 0 {
		t.Fatal("send after summation charged")
	}

	res, _ := s.Result(id, 300)
	if res.Count != 2 {
		t.Fatalf("Count = %g, want 2", res.Count)
	}
}

// Figure 6, row 4: {? Sum}, {Processor_P Send} — cost of sends by P while
// anything is being summed.
func TestQuestionWildcardNoun(t *testing.T) {
	s := New(Options{})
	id, err := s.AddQuestion(Q("sendsDuringAnySum", T("Sum", Any), T("Send", "P")))
	if err != nil {
		t.Fatal(err)
	}
	s.Activate(sent("Sum", "B"), 100) // not A — wildcard still matches
	if hits := s.RecordEvent(sent("Send", "P"), 110, 1); hits != 1 {
		t.Fatalf("wildcard sum question charged %d, want 1", hits)
	}
	res, _ := s.Result(id, 200)
	if res.Count != 1 {
		t.Fatalf("Count = %g", res.Count)
	}
}

func TestQuestionWildcardVerb(t *testing.T) {
	s := New(Options{})
	id, err := s.AddQuestion(Q("anythingOnA", T(Any, "A")))
	if err != nil {
		t.Fatal(err)
	}
	s.Activate(sent("Shift", "A"), 10)
	if !s.Satisfied(id) {
		t.Fatal("wildcard verb did not match")
	}
}

func TestRecordSpan(t *testing.T) {
	s := New(Options{})
	id, _ := s.AddQuestion(Q("sendTimeDuringSumA", T("Sum", "A"), T("Send", Any)))
	s.Activate(sent("Sum", "A"), 0)
	if hits := s.RecordSpan(sent("Send", "P"), 10, 35, 25); hits != 1 {
		t.Fatalf("span hits = %d", hits)
	}
	res, _ := s.Result(id, 100)
	if res.EventTime != 25 {
		t.Fatalf("EventTime = %v, want 25", res.EventTime)
	}
}

func TestQuestionAddedMidRunSeesActiveSet(t *testing.T) {
	s := New(Options{})
	s.Activate(sent("Sum", "A"), 50)
	id, err := s.AddQuestion(Q("late", T("Sum", "A")))
	if err != nil {
		t.Fatal(err)
	}
	if !s.Satisfied(id) {
		t.Fatal("late question did not see active sentence")
	}
}

func TestQuestionValidation(t *testing.T) {
	s := New(Options{})
	if _, err := s.AddQuestion(Q("empty")); err == nil {
		t.Fatal("empty question accepted")
	}
	if _, err := s.AddQuestion(Question{Label: "both", Terms: []Term{T("V")}, Expr: Leaf(T("V"))}); err == nil {
		t.Fatal("question with Terms and Expr accepted")
	}
	if _, err := s.AddQuestion(Question{Label: "ordExpr", Expr: Leaf(T("V")), Ordered: true}); err == nil {
		t.Fatal("ordered expression question accepted")
	}
	if _, err := s.AddQuestion(Question{Label: "badNot", Expr: &Expr{Op: OpNot}}); err == nil {
		t.Fatal("malformed NOT accepted")
	}
	if _, err := s.AddQuestion(Question{Label: "badAnd", Expr: &Expr{Op: OpAnd}}); err == nil {
		t.Fatal("childless AND accepted")
	}
	if _, err := s.AddQuestion(Question{Label: "badOp", Expr: &Expr{Op: ExprOp(42)}}); err == nil {
		t.Fatal("unknown op accepted")
	}
}

// Section 4.2.2 extension: disjunction and negation.
func TestExpressionQuestions(t *testing.T) {
	s := New(Options{})
	// Sends while (A or B) is being summed, but NOT during cleanup.
	q := Question{
		Label: "expr",
		Expr: And(
			Or(Leaf(T("Sum", "A")), Leaf(T("Sum", "B"))),
			Not(Leaf(T("Cleanup"))),
			Leaf(T("Send", Any)),
		),
	}
	id, err := s.AddQuestion(q)
	if err != nil {
		t.Fatal(err)
	}

	s.Activate(sent("Sum", "B"), 10)
	if hits := s.RecordEvent(sent("Send", "P"), 15, 1); hits != 1 {
		t.Fatalf("OR branch failed: %d hits", hits)
	}
	s.Activate(sent("Cleanup"), 20)
	if hits := s.RecordEvent(sent("Send", "P"), 25, 1); hits != 0 {
		t.Fatalf("NOT branch failed: %d hits", hits)
	}
	if err := s.Deactivate(sent("Cleanup"), 30); err != nil {
		t.Fatal(err)
	}
	if hits := s.RecordEvent(sent("Send", "P"), 35, 1); hits != 1 {
		t.Fatal("cleanup deactivation did not restore")
	}
	res, _ := s.Result(id, 100)
	if res.Count != 2 {
		t.Fatalf("Count = %g, want 2", res.Count)
	}
}

// Section 4.2.4, limitation 3: ordered questions distinguish "messages
// sent during summation of A" from "summations of A during message sends".
func TestOrderedQuestions(t *testing.T) {
	s := New(Options{})
	// Ordered: {A Sum} then {Send ?} — the send is the measured event.
	sendsDuringSum, err := s.AddQuestion(Question{
		Label:   "sends during sum",
		Terms:   []Term{T("Sum", "A"), T("Send", Any)},
		Ordered: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Ordered the other way: {Send ?} then {A Sum} — the sum activation
	// would have to begin while a send is active.
	sumsDuringSend, err := s.AddQuestion(Question{
		Label:   "sums during send",
		Terms:   []Term{T("Send", Any), T("Sum", "A")},
		Ordered: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Scenario: sum starts, then a send event fires inside it.
	s.Activate(sent("Sum", "A"), 100)
	if hits := s.RecordEvent(sent("Send", "P"), 110, 1); hits != 1 {
		t.Fatalf("send inside sum charged %d questions, want only the first", hits)
	}
	r1, _ := s.Result(sendsDuringSum, 200)
	r2, _ := s.Result(sumsDuringSend, 200)
	if r1.Count != 1 || r2.Count != 0 {
		t.Fatalf("ordered counts = %g, %g; want 1, 0", r1.Count, r2.Count)
	}

	// Scenario: send is a long operation active when a sum event occurs.
	s2 := New(Options{})
	id2, _ := s2.AddQuestion(Question{
		Label:   "sums during send",
		Terms:   []Term{T("Send", Any), T("Sum", "A")},
		Ordered: true,
	})
	s2.Activate(sent("Send", "P"), 100)
	if hits := s2.RecordEvent(sent("Sum", "A"), 110, 1); hits != 1 {
		t.Fatalf("sum inside send charged %d", hits)
	}
	r, _ := s2.Result(id2, 200)
	if r.Count != 1 {
		t.Fatalf("Count = %g", r.Count)
	}
}

func TestOrderedGateUsesActivationTimes(t *testing.T) {
	s := New(Options{})
	id, _ := s.AddQuestion(Question{
		Label:   "nested",
		Terms:   []Term{T("Outer"), T("Inner")},
		Ordered: true,
	})
	// Inner became active before Outer: the ordered question is not
	// satisfied even though both are active.
	s.Activate(sent("Inner"), 10)
	s.Activate(sent("Outer"), 20)
	if s.Satisfied(id) {
		t.Fatal("ordered question satisfied despite inverted activation order")
	}
	// Re-activate Inner inside Outer.
	if err := s.Deactivate(sent("Inner"), 30); err != nil {
		t.Fatal(err)
	}
	s.Activate(sent("Inner"), 40)
	if !s.Satisfied(id) {
		t.Fatal("ordered question not satisfied with correct nesting")
	}
}

// Section 4.2.4, limitation 2: notifications ignored by the SAS still
// cost; relevance filtering reduces stored entries.
func TestRelevanceFiltering(t *testing.T) {
	s := New(Options{Filter: true})
	if _, err := s.AddQuestion(Q("onlyA", T("Sum", "A"))); err != nil {
		t.Fatal(err)
	}
	s.Activate(sent("Sum", "A"), 10)
	s.Activate(sent("Max", "B"), 20) // irrelevant: filtered
	s.Activate(sent("Sum", "B"), 30) // verb matches but noun doesn't: filtered

	if s.Size() != 1 {
		t.Fatalf("Size = %d, want 1 (only {A Sum} stored)", s.Size())
	}
	if err := s.Deactivate(sent("Max", "B"), 40); err != nil {
		t.Fatalf("deactivate of filtered sentence errored: %v", err)
	}
	st := s.Stats()
	if st.Notifications != 4 {
		t.Fatalf("Notifications = %d, want 4", st.Notifications)
	}
	if st.Ignored != 3 {
		t.Fatalf("Ignored = %d, want 3", st.Ignored)
	}
	if st.Stored != 1 {
		t.Fatalf("Stored = %d, want 1", st.Stored)
	}
}

func TestUnfilteredKeepsEverything(t *testing.T) {
	s := New(Options{})
	if _, err := s.AddQuestion(Q("onlyA", T("Sum", "A"))); err != nil {
		t.Fatal(err)
	}
	s.Activate(sent("Max", "B"), 10)
	if s.Size() != 1 {
		t.Fatal("unfiltered SAS dropped a sentence")
	}
	if st := s.Stats(); st.Ignored != 0 {
		t.Fatalf("Ignored = %d", st.Ignored)
	}
}

// Section 6.1's boolean-flag protocol.
func TestWatch(t *testing.T) {
	s := New(Options{})
	id, _ := s.AddQuestion(Q("arrayActive", T(Any, "TOT")))
	var flag bool
	var flips int
	if err := s.Watch(id, func(sat bool, at vtime.Time) {
		flag = sat
		flips++
	}); err != nil {
		t.Fatal(err)
	}
	s.Activate(sent("Compute", "TOT"), 10)
	if !flag {
		t.Fatal("flag not raised on activation")
	}
	if err := s.Deactivate(sent("Compute", "TOT"), 20); err != nil {
		t.Fatal(err)
	}
	if flag {
		t.Fatal("flag not lowered on deactivation")
	}
	if flips != 2 {
		t.Fatalf("flips = %d, want 2", flips)
	}
	if err := s.Watch(QuestionID(99), nil); err == nil {
		t.Fatal("watch on unknown question accepted")
	}
}

// Watch callbacks and the SetRecorder hook run inside the notifying
// operation, under the SAS lock — which is why both are documented as
// must-not-call-back: a re-entrant call would self-deadlock.
func TestHooksRunUnderTheLock(t *testing.T) {
	s := New(Options{})
	id, _ := s.AddQuestion(Q("q", T("Sum", "A")))
	held := func() bool {
		if s.structMu.TryLock() {
			s.structMu.Unlock()
			return false
		}
		return true
	}
	var flips, records int
	if err := s.Watch(id, func(bool, vtime.Time) {
		flips++
		if !held() {
			t.Error("Watch callback ran without the SAS lock")
		}
	}); err != nil {
		t.Fatal(err)
	}
	s.SetRecorder(func(Record) {
		records++
		if !held() {
			t.Error("SetRecorder hook ran without the SAS lock")
		}
	})
	s.Activate(sent("Sum", "A"), 1)
	s.RecordEvent(sent("Send", "P"), 2, 1)
	s.RecordSpan(sent("Send", "P"), 2, 3, 1)
	if err := s.Deactivate(sent("Sum", "A"), 4); err != nil {
		t.Fatal(err)
	}
	if flips != 2 || records != 4 {
		t.Fatalf("flips = %d, records = %d; want 2 and 4", flips, records)
	}
	if held() {
		t.Fatal("SAS lock still held after the operations returned")
	}
}

// Property: balanced activate/deactivate always leaves the SAS empty and
// never errors, regardless of interleaving.
func TestBalancedNotificationProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		s := New(Options{})
		depth := map[string]int{}
		var at vtime.Time
		for _, op := range ops {
			at++
			verb := string(rune('A' + op%4))
			sn := sent(verb, "x")
			if op%2 == 0 {
				s.Activate(sn, at)
				depth[sn.Key()]++
			} else if depth[sn.Key()] > 0 {
				if err := s.Deactivate(sn, at); err != nil {
					return false
				}
				depth[sn.Key()]--
			}
		}
		// Drain whatever is still active via the snapshot.
		for _, a := range s.Snapshot() {
			for i := 0; i < a.Depth; i++ {
				at++
				if err := s.Deactivate(a.Sentence, at); err != nil {
					return false
				}
			}
		}
		return s.Size() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: satisfied-time of a single-term question equals the summed
// active intervals of the matching sentence.
func TestSatisfiedTimeProperty(t *testing.T) {
	f := func(gaps []uint8) bool {
		s := New(Options{})
		id, err := s.AddQuestion(Q("q", T("Sum", "A")))
		if err != nil {
			return false
		}
		var at vtime.Time
		var want vtime.Duration
		active := false
		var since vtime.Time
		for _, g := range gaps {
			at = at.Add(vtime.Duration(g) + 1)
			if !active {
				s.Activate(sent("Sum", "A"), at)
				since = at
				active = true
			} else {
				if err := s.Deactivate(sent("Sum", "A"), at); err != nil {
					return false
				}
				want += at.Sub(since)
				active = false
			}
		}
		if active {
			at = at.Add(5)
			if err := s.Deactivate(sent("Sum", "A"), at); err != nil {
				return false
			}
			want += at.Sub(since)
		}
		res, err := s.Result(id, at)
		if err != nil {
			return false
		}
		return res.SatisfiedTime == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentSharedSAS(t *testing.T) {
	// Section 4.2.3 notes shared-memory systems may share one SAS at a
	// synchronisation cost; correctness under contention matters.
	s := New(Options{})
	id, _ := s.AddQuestion(Q("q", T("Work", Any), T("Tick", Any)))
	const workers = 8
	const iters = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			me := sent("Work", string(rune('a'+w)))
			for i := 0; i < iters; i++ {
				at := vtime.Time(w*1_000_000 + i*10)
				s.Activate(me, at)
				s.RecordEvent(sent("Tick", "t"), at+1, 1)
				if err := s.Deactivate(me, at+2); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Size() != 0 {
		t.Fatalf("Size = %d after balanced concurrent use", s.Size())
	}
	res, _ := s.Result(id, 0)
	if res.Count != workers*iters {
		t.Fatalf("Count = %g, want %d", res.Count, workers*iters)
	}
}

func TestTermAndQuestionStrings(t *testing.T) {
	if got := T("Sum", "A").String(); got != "{A Sum}" {
		t.Errorf("Term.String = %q", got)
	}
	if got := T("Send").String(); got != "{? Send}" {
		t.Errorf("bare Term.String = %q", got)
	}
	q := Q("x", T("Sum", "A"), T("Send", "P"))
	if got := q.String(); got != "{A Sum}, {P Send}" {
		t.Errorf("Question.String = %q", got)
	}
	oq := Question{Terms: []Term{T("Sum", "A")}, Ordered: true}
	if !strings.Contains(oq.String(), "[ordered]") {
		t.Errorf("ordered marker missing: %q", oq.String())
	}
	e := And(Or(Leaf(T("Sum", "A")), Leaf(T("Sum", "B"))), Not(Leaf(T("Cleanup"))))
	want := "(({A Sum} | {B Sum}) & !{? Cleanup})"
	if got := e.String(); got != want {
		t.Errorf("Expr.String = %q, want %q", got, want)
	}
}

// hotSAS returns a SAS carrying four questions of the shapes the
// instrumented benchmark workload asks, warmed by one notification cycle
// so columns, posting lists and the interner are at their steady state.
func hotSAS(tb testing.TB) *SAS {
	s := New(Options{})
	for _, q := range []Question{
		Q("q1", T("Sum", "A")),
		Q("q2", T("Send", Any)),
		Q("q3", T("Sum", "A"), T("Send", Any)),
		Q("q4", T("Max", Any), T("Send", Any)),
	} {
		if _, err := s.AddQuestion(q); err != nil {
			tb.Fatal(err)
		}
	}
	notifyCycle(s, 0)
	return s
}

// notifyCycle is one activation, one measured event and one
// deactivation, each building its sentence the way monitoring code that
// is handed raw arguments does.
func notifyCycle(s *SAS, at vtime.Time) {
	s.Activate(nv.NewSentence("Sum", "A"), at)
	s.RecordEvent(nv.NewSentence("Send", "P"), at+1, 1)
	_ = s.Deactivate(nv.NewSentence("Sum", "A"), at+2)
}

// The steady-state notification path allocates nothing: not for the
// sentences, not in the SAS.
func TestNotificationCycleAllocatesNothing(t *testing.T) {
	s := hotSAS(t)
	at := vtime.Time(10)
	if n := testing.AllocsPerRun(200, func() {
		notifyCycle(s, at)
		at += 10
	}); n != 0 {
		t.Fatalf("a warmed Activate/RecordEvent/Deactivate cycle allocates %v times, want 0", n)
	}
	if st := s.Stats(); st.Notifications != st.Stored || st.Events == 0 {
		t.Fatalf("cycle did not reach the SAS: %+v", st)
	}
}

func BenchmarkActivateDeactivate(b *testing.B) {
	s := hotSAS(b)
	sn := sent("Sum", "A")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		at := vtime.Time(i * 2)
		s.Activate(sn, at)
		_ = s.Deactivate(sn, at+1)
	}
}

func BenchmarkRecordEvent(b *testing.B) {
	s := hotSAS(b)
	s.Activate(sent("Sum", "A"), 0)
	ev := sent("Send", "P")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.RecordEvent(ev, vtime.Time(i), 1)
	}
}

func BenchmarkActivateIgnoredNotification(b *testing.B) {
	// The limitation-2 cost: notifications about B when only A matters.
	for _, filter := range []bool{false, true} {
		name := "unfiltered"
		if filter {
			name = "filtered"
		}
		b.Run(name, func(b *testing.B) {
			s := New(Options{Filter: filter})
			_, _ = s.AddQuestion(Q("onlyA", T("Sum", "A")))
			sn := sent("Max", "B")
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				at := vtime.Time(i * 2)
				s.Activate(sn, at)
				_ = s.Deactivate(sn, at+1)
			}
		})
	}
}
