package sas

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"nvmap/internal/nv"
	"nvmap/internal/obs"
	"nvmap/internal/vtime"
)

// This file proves the hot-path machinery — the question index, the
// per-term incremental match counts and the columnar active set — against
// a brute-force reference model: a plain list of active sentences scanned
// in full for every evaluation, with gates computed straight from the
// Question definition. Random operation streams (fixed seeds) must make
// the two agree on every satisfied flag, every event charge, the
// accumulated timers, and every Stats counter.

// refActive is one reference-model active entry.
type refActive struct {
	sn    nv.Sentence
	since vtime.Time
	depth int
}

// refModel is the brute-force SAS: no interning, no index, no counts.
// stats tallies what Stats documents — the tests the semantic model
// performs — so the real counters can be compared field for field.
type refModel struct {
	active []refActive
	qs     []Question
	filter bool
	sat    []bool
	since  []vtime.Time
	satT   []vtime.Duration
	count  []float64
	evT    []vtime.Duration
	stats  Stats
}

func newRefModel(qs []Question) *refModel {
	m := &refModel{
		qs:    qs,
		sat:   make([]bool, len(qs)),
		since: make([]vtime.Time, len(qs)),
		satT:  make([]vtime.Duration, len(qs)),
		count: make([]float64, len(qs)),
		evT:   make([]vtime.Duration, len(qs)),
	}
	// Mirror AddQuestion's initial gate evaluation at time zero (one
	// evaluation per question; the active set is empty, so no matches).
	for i := range qs {
		m.stats.Evaluations++
		if m.gate(qs[i], nil) {
			m.sat[i] = true
			m.since[i] = 0
		}
	}
	return m
}

func (m *refModel) find(sn nv.Sentence) int {
	for i := range m.active {
		if m.active[i].sn.Equal(sn) {
			return i
		}
	}
	return -1
}

// relevant is the relevance filter by full scan: some term of some
// question matches sn.
func (m *refModel) relevant(sn nv.Sentence) bool {
	for _, q := range m.qs {
		for _, t := range q.allTerms() {
			if t.Matches(sn) {
				return true
			}
		}
	}
	return false
}

func (m *refModel) activate(sn nv.Sentence, at vtime.Time) {
	m.stats.Notifications++
	if m.filter && !m.relevant(sn) {
		m.stats.Ignored++
		return
	}
	m.stats.Stored++
	if i := m.find(sn); i >= 0 {
		m.active[i].depth++
		return
	}
	m.active = append(m.active, refActive{sn: sn, since: at, depth: 1})
	m.regate(sn, at)
}

func (m *refModel) deactivate(sn nv.Sentence, at vtime.Time) {
	m.stats.Notifications++
	i := m.find(sn)
	if i < 0 {
		if m.filter && !m.relevant(sn) {
			m.stats.Ignored++
		}
		return
	}
	m.stats.Stored++
	m.active[i].depth--
	if m.active[i].depth > 0 {
		return
	}
	m.active = append(m.active[:i], m.active[i+1:]...)
	m.regate(sn, at)
}

// regate recomputes every gate after sn entered or left the active set,
// accumulating the satisfied timers exactly as updateGate does. Each
// question the index consults for sn is one evaluation testing all of
// its terms.
func (m *refModel) regate(sn nv.Sentence, at vtime.Time) {
	for _, q := range m.qs {
		if refCandidate(q, sn) {
			m.stats.Evaluations++
			m.stats.MatchesEvaluated += len(q.allTerms())
		}
	}
	for i := range m.qs {
		now := m.gate(m.qs[i], nil)
		if now == m.sat[i] {
			continue
		}
		m.sat[i] = now
		if now {
			m.since[i] = at
		} else {
			m.satT[i] += at.Sub(m.since[i])
		}
	}
}

// matchExtra tests t against a measured event's sentence — one
// model-level match test.
func (m *refModel) matchExtra(t Term, extra nv.Sentence) bool {
	m.stats.MatchesEvaluated++
	return t.Matches(extra)
}

// termHolds reports whether t matches an active sentence or, failing
// that, the extra (event) sentence.
func (m *refModel) termHolds(t Term, extra *nv.Sentence) bool {
	for i := range m.active {
		if t.Matches(m.active[i].sn) {
			return true
		}
	}
	return extra != nil && m.matchExtra(t, *extra)
}

func (m *refModel) gate(q Question, extra *nv.Sentence) bool {
	if q.Expr != nil {
		return m.gateExpr(q.Expr, extra)
	}
	if q.Ordered {
		return m.gateOrdered(q, extra)
	}
	for _, t := range q.Terms {
		if !m.termHolds(t, extra) {
			return false
		}
	}
	return true
}

func (m *refModel) gateExpr(e *Expr, extra *nv.Sentence) bool {
	switch e.Op {
	case OpTerm:
		return m.termHolds(e.Term, extra)
	case OpAnd:
		for _, k := range e.Kids {
			if !m.gateExpr(k, extra) {
				return false
			}
		}
		return true
	case OpOr:
		for _, k := range e.Kids {
			if m.gateExpr(k, extra) {
				return true
			}
		}
		return false
	default: // OpNot
		return !m.gateExpr(e.Kids[0], extra)
	}
}

// gateOrdered is the reference ordered evaluation: each term must match
// an activation no earlier than the previous term's earliest eligible
// activation, with the extra (trigger) sentence eligible only for the
// final term and ordered after everything stored. A measured event
// tests every active sentence against every term it reaches.
func (m *refModel) gateOrdered(q Question, extra *nv.Sentence) bool {
	prev := vtime.Time(-1 << 62)
	for i, t := range q.Terms {
		last := i == len(q.Terms)-1
		best, found := vtime.Time(-1), false
		if extra != nil {
			m.stats.MatchesEvaluated += len(m.active)
		}
		for _, a := range m.active {
			if !t.Matches(a.sn) || a.since.Before(prev) {
				continue
			}
			if !found || a.since.Before(best) {
				best, found = a.since, true
			}
		}
		if !found {
			return last && extra != nil && m.matchExtra(t, *extra)
		}
		prev = best
	}
	return true
}

// refCandidate mirrors the index's posting rule: a question is consulted
// for a measured event only if one of its terms posts it under the
// event's verb, under one of the event's nouns (term-vector questions
// only), or on the wildcard list. Only consulted questions can be
// charged — the behaviour of the original verb-only index, preserved
// here. For term-vector questions this is implied by the "event matches
// some term" precondition in fires; for expression questions it is a
// real restriction (a satisfied expression is charged only by events
// naming one of its verbs, or by any event if it has a wildcard-verb
// term).
func refCandidate(q Question, sn nv.Sentence) bool {
	for _, t := range q.allTerms() {
		if t.Verb != Any {
			if t.Verb == sn.Verb {
				return true
			}
			continue
		}
		var first nv.NounID
		for _, n := range t.Nouns {
			if n != Any {
				first = n
				break
			}
		}
		if q.Expr != nil || first == "" {
			// Wildcard-list posting: consulted for every event.
			return true
		}
		if sn.Contains(first) {
			return true
		}
	}
	return false
}

func (m *refModel) fires(q Question, extra nv.Sentence) bool {
	if !refCandidate(q, extra) {
		return false
	}
	m.stats.CandidatesScanned++
	if q.Ordered && len(q.Terms) > 0 {
		if !m.matchExtra(q.Terms[len(q.Terms)-1], extra) {
			return false
		}
		return m.gate(q, &extra)
	}
	if q.Expr == nil {
		some := false
		for _, t := range q.Terms {
			if m.matchExtra(t, extra) {
				some = true
				break
			}
		}
		if !some {
			return false
		}
	}
	return m.gate(q, &extra)
}

func (m *refModel) event(sn nv.Sentence, value float64) int {
	m.stats.Events++
	hits := 0
	for i := range m.qs {
		if m.fires(m.qs[i], sn) {
			m.count[i] += value
			hits++
		}
	}
	return hits
}

func (m *refModel) span(sn nv.Sentence, value vtime.Duration) int {
	m.stats.Events++
	hits := 0
	for i := range m.qs {
		if m.fires(m.qs[i], sn) {
			m.evT[i] += value
			hits++
		}
	}
	return hits
}

// randTerm draws a pattern over the test vocabulary, with wildcards.
func randTerm(rng *rand.Rand, verbs []string, nouns []string) Term {
	v := Any
	if rng.Intn(4) != 0 {
		v = verbs[rng.Intn(len(verbs))]
	}
	var ns []nv.NounID
	for i, picks := 0, rng.Intn(3); i < picks; i++ {
		if rng.Intn(5) == 0 {
			ns = append(ns, Any)
		} else {
			ns = append(ns, nv.NounID(nouns[rng.Intn(len(nouns))]))
		}
	}
	return Term{Verb: nv.VerbID(v), Nouns: ns}
}

func randQuestion(rng *rand.Rand, i int, verbs, nouns []string) Question {
	label := fmt.Sprintf("q%d", i)
	switch rng.Intn(6) {
	case 0: // ordered vector
		n := 2 + rng.Intn(2)
		ts := make([]Term, n)
		for j := range ts {
			ts[j] = randTerm(rng, verbs, nouns)
		}
		return Question{Label: label, Terms: ts, Ordered: true}
	case 1: // boolean expression with OR and NOT
		e := Or(
			Leaf(randTerm(rng, verbs, nouns)),
			And(Leaf(randTerm(rng, verbs, nouns)), Not(Leaf(randTerm(rng, verbs, nouns)))),
		)
		return Question{Label: label, Expr: e}
	default: // plain conjunction
		n := 1 + rng.Intn(3)
		ts := make([]Term, n)
		for j := range ts {
			ts[j] = randTerm(rng, verbs, nouns)
		}
		return Question{Label: label, Terms: ts}
	}
}

func randSentence(rng *rand.Rand, verbs, nouns []string) nv.Sentence {
	picks := rng.Intn(3)
	ns := make([]nv.NounID, picks)
	for i := range ns {
		ns[i] = nv.NounID(nouns[rng.Intn(len(nouns))])
	}
	return nv.NewSentence(nv.VerbID(verbs[rng.Intn(len(verbs))]), ns...)
}

// TestIndexedEquivalentToBruteForce drives random operation streams
// through a real SAS and the reference model and demands identical
// satisfied flags and identical Stats — every field — after every
// operation, identical hit counts for every measured event, identical
// counters and timers at the end, and a checkpointed Stats that survives
// its JSON form byte for byte.
func TestIndexedEquivalentToBruteForce(t *testing.T) {
	verbs := []string{"Sum", "Send", "Exec", "Idle"}
	nouns := []string{"A", "B", "C", "D", "E"}
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			s := New(Options{Filter: seed%2 == 0})

			nq := 6 + rng.Intn(6)
			qs := make([]Question, nq)
			ids := make([]QuestionID, nq)
			for i := range qs {
				qs[i] = randQuestion(rng, i, verbs, nouns)
				id, err := s.AddQuestion(qs[i])
				if err != nil {
					t.Fatalf("AddQuestion(%v): %v", qs[i], err)
				}
				ids[i] = id
			}
			ref := newRefModel(qs)
			ref.filter = seed%2 == 0

			at := vtime.Time(0)
			for op := 0; op < 400; op++ {
				at += vtime.Time(1 + rng.Intn(5))
				sn := randSentence(rng, verbs, nouns)
				switch rng.Intn(4) {
				case 0, 1:
					s.Activate(sn, at)
					ref.activate(sn, at)
				case 2:
					// May legitimately fail on an inactive sentence; the
					// reference ignores those the same way.
					_ = s.Deactivate(sn, at)
					ref.deactivate(sn, at)
				case 3:
					if rng.Intn(2) == 0 {
						got := s.RecordEvent(sn, at, 1)
						want := ref.event(sn, 1)
						if got != want {
							t.Fatalf("op %d: RecordEvent(%v) charged %d questions, reference charged %d", op, sn, got, want)
						}
					} else {
						got := s.RecordSpan(sn, at-1, at, 3)
						want := ref.span(sn, 3)
						if got != want {
							t.Fatalf("op %d: RecordSpan(%v) charged %d questions, reference charged %d", op, sn, got, want)
						}
					}
				}
				for i, id := range ids {
					if got, want := s.Satisfied(id), ref.sat[i]; got != want {
						t.Fatalf("op %d at %d: question %q satisfied = %v, reference = %v\nactive: %v",
							op, at, qs[i].Label, got, want, ref.active)
					}
				}
				if got := s.Stats(); got != ref.stats {
					t.Fatalf("op %d at %d (%v): Stats = %+v, reference %+v", op, at, sn, got, ref.stats)
				}
			}

			// A checkpoint carries Stats as JSON; decoding it into a fresh
			// SAS and exporting again must reproduce the bytes.
			saved, err := json.Marshal(s.ExportState().Stats)
			if err != nil {
				t.Fatal(err)
			}
			var back Stats
			if err := json.Unmarshal(saved, &back); err != nil {
				t.Fatal(err)
			}
			restored := New(Options{})
			restored.RestoreState(State{Stats: back})
			again, err := json.Marshal(restored.ExportState().Stats)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(saved, again) {
				t.Fatalf("checkpointed Stats did not round-trip:\n saved %s\n again %s", saved, again)
			}

			end := at + 10
			for i, id := range ids {
				res, err := s.Result(id, end)
				if err != nil {
					t.Fatal(err)
				}
				wantSat := ref.satT[i]
				if ref.sat[i] {
					wantSat += end.Sub(ref.since[i])
				}
				if res.Count != ref.count[i] {
					t.Errorf("question %q: Count = %g, reference %g", qs[i].Label, res.Count, ref.count[i])
				}
				if res.EventTime != ref.evT[i] {
					t.Errorf("question %q: EventTime = %v, reference %v", qs[i].Label, res.EventTime, ref.evT[i])
				}
				if res.SatisfiedTime != wantSat {
					t.Errorf("question %q: SatisfiedTime = %v, reference %v", qs[i].Label, res.SatisfiedTime, wantSat)
				}
			}
		})
	}
}

// sortedSnapshot renders the reference active set in Snapshot()'s
// contract order: ascending Since, sentence key as tiebreak.
func (m *refModel) sortedSnapshot() []ActiveSentence {
	out := make([]ActiveSentence, len(m.active))
	for i, a := range m.active {
		out[i] = ActiveSentence{Sentence: a.sn, Since: a.since, Depth: a.depth}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Since != out[j].Since {
			return out[i].Since < out[j].Since
		}
		return out[i].Sentence.Key() < out[j].Sentence.Key()
	})
	return out
}

// mustMatchSnapshot demands element-for-element equality between a SAS
// snapshot and the reference order — membership alone is not enough.
func mustMatchSnapshot(t *testing.T, tag string, got, want []ActiveSentence) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: snapshot has %d entries, reference %d", tag, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if !g.Sentence.Equal(w.Sentence) || g.Since != w.Since || g.Depth != w.Depth {
			t.Fatalf("%s: entry %d = {%v since %v depth %d}, reference {%v since %v depth %d}",
				tag, i, g.Sentence, g.Since, g.Depth, w.Sentence, w.Since, w.Depth)
		}
	}
}

// TestSnapshotOrderingEquivalentToBruteForce pins the answer-ordering
// contract: Snapshot() returns entries sorted by (Since, sentence key)
// regardless of row layout, swap-remove compaction history or column
// growth. The reference model sorts its flat list by the same rule and
// the two sequences must agree element for element, not merely as sets.
func TestSnapshotOrderingEquivalentToBruteForce(t *testing.T) {
	verbs := []string{"Sum", "Send", "Exec", "Idle"}
	nouns := []string{"A", "B", "C", "D", "E", "F"}
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed * 97))
			s := New(Options{})
			ref := newRefModel(nil)
			at := vtime.Time(0)
			for op := 0; op < 500; op++ {
				at += vtime.Time(1 + rng.Intn(3))
				sn := randSentence(rng, verbs, nouns)
				if rng.Intn(3) == 0 {
					_ = s.Deactivate(sn, at)
					ref.deactivate(sn, at)
				} else {
					s.Activate(sn, at)
					ref.activate(sn, at)
				}
				if op%25 == 0 || op == 499 {
					mustMatchSnapshot(t, fmt.Sprintf("op %d", op), s.Snapshot(), ref.sortedSnapshot())
				}
			}
		})
	}
}

// mustHoldOnlyLiveRows checks the columnar invariants behind
// Columns(): rows equal the reference active count, capacity covers the
// rows, and no pointer column retains a sentence or link past the live
// rows (a vacated slot the collector could still see through the
// columns' spare capacity).
func mustHoldOnlyLiveRows(t *testing.T, tag string, s *SAS, want int) {
	t.Helper()
	cs := s.Columns()
	if cs.Rows != want {
		t.Fatalf("%s: Columns().Rows = %d, reference %d", tag, cs.Rows, want)
	}
	if cs.Capacity < cs.Rows {
		t.Fatalf("%s: Columns().Capacity = %d < Rows %d", tag, cs.Capacity, cs.Rows)
	}
	s.structMu.Lock()
	defer s.structMu.Unlock()
	for i, sn := range s.act.sents[len(s.act.sents):cap(s.act.sents)] {
		if sn != nil {
			t.Fatalf("%s: sentence column retains %v %d slots past the live rows", tag, sn, i)
		}
	}
	for i, l := range s.act.origin[len(s.act.origin):cap(s.act.origin)] {
		if l != nil {
			t.Fatalf("%s: origin column retains a link %d slots past the live rows", tag, i)
		}
	}
}

// TestColumnsEquivalentToBruteForce pins the columnar bookkeeping
// against the reference under random churn — with some rows held on
// behalf of a reliable link, so the origin column carries pointers too:
// rows always equal the brute-force active count, capacity never drops
// below them, nothing is retained past the live rows after churn or
// after RestoreState re-carves the columns, and the compaction counter
// never exceeds the removals that could have caused a swap-remove.
func TestColumnsEquivalentToBruteForce(t *testing.T) {
	verbs := []string{"Sum", "Send", "Exec"}
	nouns := []string{"A", "B", "C", "D", "E"}
	rng := rand.New(rand.NewSource(11))
	s := New(Options{})
	remote := New(Options{Node: 1})
	if _, err := remote.ExportReliable(T("Remote", Any), s, nil, false); err != nil {
		t.Fatal(err)
	}
	ref := newRefModel(nil)
	at := vtime.Time(0)
	removals := int64(0)
	for op := 0; op < 800; op++ {
		at += vtime.Time(1 + rng.Intn(3))
		sn := randSentence(rng, verbs, nouns)
		before := len(ref.active)
		switch rng.Intn(6) {
		case 0, 1:
			_ = s.Deactivate(sn, at)
			ref.deactivate(sn, at)
		case 2:
			// A link-held row: the remote SAS's activation arrives in s.
			sn = nv.NewSentence("Remote", sn.Nouns...)
			if remote.Active(sn) {
				_ = remote.Deactivate(sn, at)
				ref.deactivate(sn, at)
			} else {
				remote.Activate(sn, at)
				ref.activate(sn, at)
			}
		default:
			s.Activate(sn, at)
			ref.activate(sn, at)
		}
		if len(ref.active) < before {
			removals++
		}
		mustHoldOnlyLiveRows(t, fmt.Sprintf("op %d", op), s, len(ref.active))
		if cs := s.Columns(); cs.Compactions > removals {
			t.Fatalf("op %d: %d compactions recorded for only %d removals", op, cs.Compactions, removals)
		}
	}

	// Restoring drops the link-held rows (their links resync them) and
	// re-carves the columns: only the checkpoint's rows may remain.
	saved := s.ExportState()
	s.RestoreState(saved)
	mustHoldOnlyLiveRows(t, "after restore", s, len(saved.Active))
	s.RestoreState(State{})
	mustHoldOnlyLiveRows(t, "after empty restore", s, 0)
	if got := s.Columns().Capacity; got != initRows {
		t.Fatalf("after empty restore: capacity = %d, want the carved %d", got, initRows)
	}
}

// TestRestoreEquivalentToBruteForce drives churn, checkpoints the SAS,
// diverges it with further churn, then restores — exercising the
// carveColumns path that re-carves the embedded column slab. The
// restored snapshot must equal the reference model frozen at the
// checkpoint, and every question's Result at the checkpoint instant
// must round-trip exactly.
func TestRestoreEquivalentToBruteForce(t *testing.T) {
	verbs := []string{"Sum", "Send", "Exec", "Idle"}
	nouns := []string{"A", "B", "C", "D"}
	rng := rand.New(rand.NewSource(7))
	s := New(Options{})

	nq := 5
	qs := make([]Question, nq)
	ids := make([]QuestionID, nq)
	for i := range qs {
		qs[i] = randQuestion(rng, i, verbs, nouns)
		id, err := s.AddQuestion(qs[i])
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	ref := newRefModel(qs)

	churn := func(ops int, mirror bool, at vtime.Time) vtime.Time {
		for op := 0; op < ops; op++ {
			at += vtime.Time(1 + rng.Intn(3))
			sn := randSentence(rng, verbs, nouns)
			switch rng.Intn(4) {
			case 0, 1:
				s.Activate(sn, at)
				if mirror {
					ref.activate(sn, at)
				}
			case 2:
				_ = s.Deactivate(sn, at)
				if mirror {
					ref.deactivate(sn, at)
				}
			default:
				_ = s.RecordEvent(sn, at, 1)
				if mirror {
					ref.event(sn, 1)
				}
			}
		}
		return at
	}

	saveAt := churn(300, true, 0)
	saved := s.ExportState()
	frozen := ref.sortedSnapshot()
	before := make([]Result, nq)
	for i, id := range ids {
		res, err := s.Result(id, saveAt)
		if err != nil {
			t.Fatal(err)
		}
		before[i] = res
	}

	// Diverge the live SAS well past the checkpoint, then restore.
	churn(300, false, saveAt)
	s.RestoreState(saved)

	mustMatchSnapshot(t, "after restore", s.Snapshot(), frozen)
	if got, want := s.Columns().Rows, len(frozen); got != want {
		t.Fatalf("after restore: Columns().Rows = %d, reference %d", got, want)
	}
	for i, id := range ids {
		if got, want := s.Satisfied(id), ref.sat[i]; got != want {
			t.Fatalf("after restore: question %q satisfied = %v, reference %v", qs[i].Label, got, want)
		}
		res, err := s.Result(id, saveAt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != before[i].Count || res.EventTime != before[i].EventTime ||
			res.SatisfiedTime != before[i].SatisfiedTime || res.Satisfied != before[i].Satisfied {
			t.Fatalf("after restore: question %q Result = %+v, before checkpoint %+v", qs[i].Label, res, before[i])
		}
	}
}

// TestSnapshotEquivalentToBruteForce checks that the columnar set reports
// the same membership and nesting as the reference under random churn.
func TestSnapshotEquivalentToBruteForce(t *testing.T) {
	verbs := []string{"Sum", "Send", "Exec"}
	nouns := []string{"A", "B", "C", "D"}
	rng := rand.New(rand.NewSource(42))
	s := New(Options{})
	ref := newRefModel(nil)

	at := vtime.Time(0)
	for op := 0; op < 600; op++ {
		at += vtime.Time(1 + rng.Intn(3))
		sn := randSentence(rng, verbs, nouns)
		if rng.Intn(3) == 0 {
			_ = s.Deactivate(sn, at)
			ref.deactivate(sn, at)
		} else {
			s.Activate(sn, at)
			ref.activate(sn, at)
		}
		if s.Size() != len(ref.active) {
			t.Fatalf("op %d: Size = %d, reference %d", op, s.Size(), len(ref.active))
		}
	}
	snap := s.Snapshot()
	if len(snap) != len(ref.active) {
		t.Fatalf("Snapshot has %d entries, reference %d", len(snap), len(ref.active))
	}
	for _, a := range snap {
		i := ref.find(a.Sentence)
		if i < 0 {
			t.Fatalf("snapshot entry %v not in reference", a.Sentence)
		}
		if a.Since != ref.active[i].since || a.Depth != ref.active[i].depth {
			t.Fatalf("entry %v: since/depth = %v/%d, reference %v/%d",
				a.Sentence, a.Since, a.Depth, ref.active[i].since, ref.active[i].depth)
		}
	}
}

// batchExports are the mutual export rules of the batch-equivalence
// test: node 0 exports its Send sentences to node 1, node 1 its Exec
// sentences to node 0. The patterns are disjoint, so no export leads back
// into its exporter and the two pairs see the same notification order.
var batchExports = [2]Term{T("Send"), T("Exec")}

// recTransport delivers exports synchronously and logs them.
type recTransport struct{ log *[]Event }

func (r recTransport) Send(ev Event, to *SAS) {
	*r.log = append(*r.log, ev)
	to.ApplyRemote(ev)
}

// batchPair is two mutually exporting SASes with every observable side
// effect logged: journal records, Watch flips and exported events.
type batchPair struct {
	sas     [2]*SAS
	ids     [2][]QuestionID
	journal [2][]string
	flips   [2][]string
	sent    []string
	events  []Event
}

func newBatchPair(t *testing.T, filter bool, qs []Question) *batchPair {
	t.Helper()
	p := &batchPair{}
	for k := range p.sas {
		p.sas[k] = New(Options{Node: k, Filter: filter})
	}
	for k, s := range p.sas {
		k := k
		if err := s.Export(batchExports[k], p.sas[1-k], recTransport{&p.events}); err != nil {
			t.Fatal(err)
		}
		s.SetRecorder(func(r Record) {
			p.journal[k] = append(p.journal[k],
				fmt.Sprintf("%d %v at=%d from=%d v=%g d=%d", r.Kind, r.Sentence, r.At, r.From, r.Value, r.Dur))
		})
		for i, q := range qs {
			id, err := s.AddQuestion(q)
			if err != nil {
				t.Fatal(err)
			}
			p.ids[k] = append(p.ids[k], id)
			i := i
			if err := s.Watch(id, func(sat bool, at vtime.Time) {
				p.flips[k] = append(p.flips[k], fmt.Sprintf("q%d %v at=%d", i, sat, at))
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return p
}

// exported renders the events the export targets received so far.
func (p *batchPair) exported() []string {
	for _, ev := range p.events[len(p.sent):] {
		p.sent = append(p.sent, fmt.Sprintf("%v active=%v at=%d from=%d", ev.Sentence, ev.Active, ev.At, ev.FromNode))
	}
	return p.sent
}

// refNotify applies one notification to reference k and forwards a
// membership transition its export pattern matches to the other
// reference, as the export rules do.
func refNotify(refs [2]*refModel, k int, sn nv.Sentence, at vtime.Time, activate bool) {
	m := refs[k]
	was := m.find(sn) >= 0
	if activate {
		m.activate(sn, at)
	} else {
		m.deactivate(sn, at)
	}
	if is := m.find(sn) >= 0; is != was && batchExports[k].Matches(sn) {
		refNotify(refs, 1-k, sn, at, is)
	}
}

func mustEqualLogs(t *testing.T, tag string, batch, seq []string) {
	t.Helper()
	if fmt.Sprint(batch) != fmt.Sprint(seq) {
		t.Fatalf("%s differ:\n batch    %v\n sequence %v", tag, batch, seq)
	}
}

// TestBatchEquivalentToSequence drives random streams in which runs of
// same-instant notifications go through ActivateAll/DeactivateAll on one
// pair of mutually exporting SASes and through single Activate/Deactivate
// calls on a twin pair — runs that repeat sentences, deactivate inactive
// ones, and cross the export rules, with relevance filtering on for odd
// seeds. After every step both pairs must agree with each other and with
// the reference model on every Stats field, every Result and satisfied
// flag and the snapshot, and with each other on the journal records, the
// Watch flips and the events the export targets received, in order.
func TestBatchEquivalentToSequence(t *testing.T) {
	verbs := []string{"Sum", "Send", "Exec", "Idle"}
	nouns := []string{"A", "B", "C", "D"}
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed * 131))
			filter := seed%2 == 1
			qs := make([]Question, 5+rng.Intn(4))
			for i := range qs {
				qs[i] = randQuestion(rng, i, verbs, nouns)
			}
			batch, seq := newBatchPair(t, filter, qs), newBatchPair(t, filter, qs)
			var refs [2]*refModel
			for k := range refs {
				refs[k] = newRefModel(qs)
				refs[k].filter = filter
			}

			at := vtime.Time(0)
			for step := 0; step < 300; step++ {
				at += vtime.Time(1 + rng.Intn(4))
				k := rng.Intn(2)
				sns := make([]nv.Sentence, 1+rng.Intn(4))
				for i := range sns {
					sns[i] = randSentence(rng, verbs, nouns)
					if act := refs[k].active; len(act) > 0 && rng.Intn(2) == 0 {
						sns[i] = act[rng.Intn(len(act))].sn
					}
				}
				switch op := rng.Intn(5); {
				case op < 2:
					batch.sas[k].ActivateAll(sns, at)
					for _, sn := range sns {
						seq.sas[k].Activate(sn, at)
						refNotify(refs, k, sn, at, true)
					}
				case op < 4:
					gotErr := batch.sas[k].DeactivateAll(sns, at)
					var wantErr error
					for _, sn := range sns {
						if err := seq.sas[k].Deactivate(sn, at); err != nil && wantErr == nil {
							wantErr = err
						}
						refNotify(refs, k, sn, at, false)
					}
					if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
						t.Fatalf("step %d: DeactivateAll = %v, first single-call error %v", step, gotErr, wantErr)
					}
				default:
					sn := sns[0]
					got, want := batch.sas[k].RecordEvent(sn, at, 1), seq.sas[k].RecordEvent(sn, at, 1)
					if ref := refs[k].event(sn, 1); got != want || got != ref {
						t.Fatalf("step %d: RecordEvent(%v) charged %d (batch) %d (sequence) %d (reference)", step, sn, got, want, ref)
					}
				}

				for k, ref := range refs {
					tag := fmt.Sprintf("step %d node %d", step, k)
					b, s := batch.sas[k], seq.sas[k]
					if got, want := b.Stats(), s.Stats(); got != want || got != ref.stats {
						t.Fatalf("%s: Stats batch %+v, sequence %+v, reference %+v", tag, got, want, ref.stats)
					}
					for i := range qs {
						rb, _ := b.Result(batch.ids[k][i], at)
						rs, _ := s.Result(seq.ids[k][i], at)
						wantSat := ref.satT[i]
						if ref.sat[i] {
							wantSat += at.Sub(ref.since[i])
						}
						want := Result{Count: ref.count[i], EventTime: ref.evT[i], SatisfiedTime: wantSat, Satisfied: ref.sat[i]}
						rb.Question, rs.Question = Question{}, Question{}
						if !reflect.DeepEqual(rb, want) || !reflect.DeepEqual(rs, want) {
							t.Fatalf("%s: question %d Result batch %+v, sequence %+v, reference %+v", tag, i, rb, rs, want)
						}
						if b.Satisfied(batch.ids[k][i]) != s.Satisfied(seq.ids[k][i]) {
							t.Fatalf("%s: question %d Satisfied differs", tag, i)
						}
					}
					mustMatchSnapshot(t, tag+" batch", b.Snapshot(), ref.sortedSnapshot())
					mustMatchSnapshot(t, tag+" sequence", s.Snapshot(), ref.sortedSnapshot())
					mustEqualLogs(t, tag+" journals", batch.journal[k], seq.journal[k])
					mustEqualLogs(t, tag+" Watch flips", batch.flips[k], seq.flips[k])
				}
				mustEqualLogs(t, fmt.Sprintf("step %d exported events", step), batch.exported(), seq.exported())
			}
			if len(batch.events) == 0 {
				t.Fatal("no export crossed between the pair; the stream pins nothing about exports")
			}
		})
	}
}

// TestBatchSpansMatchSequence is the observability case: with a tracer
// attached, a batch records the spans the single calls record, in the
// same order and with the same stages, names, nodes and instants.
func TestBatchSpansMatchSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	verbs := []string{"Sum", "Send"}
	nouns := []string{"A", "B", "C"}
	var sides [2]*SAS
	var planes [2]*obs.Plane
	for k := range sides {
		planes[k] = obs.New(obs.Options{TraceCapacity: -1})
		sides[k] = New(Options{Node: 3, Obs: planes[k]})
		if _, err := sides[k].AddQuestion(Q("q", T("Sum", Any))); err != nil {
			t.Fatal(err)
		}
	}
	batch, seq := sides[0], sides[1]
	for step := 0; step < 60; step++ {
		at := vtime.Time(step)
		sns := make([]nv.Sentence, 1+rng.Intn(3))
		for i := range sns {
			sns[i] = randSentence(rng, verbs, nouns)
		}
		if rng.Intn(2) == 0 {
			batch.ActivateAll(sns, at)
			for _, sn := range sns {
				seq.Activate(sn, at)
			}
		} else {
			_ = batch.DeactivateAll(sns, at)
			for _, sn := range sns {
				_ = seq.Deactivate(sn, at)
			}
		}
	}
	render := func(p *obs.Plane) []string {
		var out []string
		for _, sp := range p.Tracer.Spans() {
			out = append(out, fmt.Sprintf("%d %v %s node=%d [%d,%d]", sp.ID, sp.Stage, sp.Name, sp.Node, sp.Start, sp.End))
		}
		return out
	}
	got, want := render(planes[0]), render(planes[1])
	if len(want) == 0 {
		t.Fatal("the single calls recorded no spans")
	}
	mustEqualLogs(t, "spans", got, want)
}
