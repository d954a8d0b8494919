// Package sas implements the Set of Active Sentences from Section 4.2 of
// the paper: a run-time data structure that records the current execution
// state of every level of abstraction, the way a procedure call stack
// keeps track of active functions — except that the SAS may record *any*
// active sentence, regardless of whether it could be discovered by
// examining the call stack.
//
// Whenever a sentence at any level of abstraction becomes active, the
// monitoring code notifies the SAS; when it becomes inactive it is
// removed. Any two sentences contained in the SAS concurrently are
// considered to dynamically map to one another. Performance questions
// (vectors of sentence patterns, Figure 6) are registered with the SAS and
// measurements are made only while all patterns of a question are
// satisfied by concurrently active sentences.
//
// The package also implements the discussion items around the core
// structure: relevance filtering (ignore notifications no question could
// ever use), per-node replication with cross-node sentence forwarding for
// distributed memory (Section 4.2.3), and shadow contexts, our remedy for
// the asynchronous-activation limitation of Section 4.2.4 / Figure 7.
//
// # Hot-path structure
//
// The SAS sits on the paper's critical path — it is consulted on every
// activation notification and every measured event — so its internals are
// organised around interned identities (package nv hands every noun, verb
// and sentence a small-int handle) and columnar storage:
//
//   - The active set is one struct-of-arrays column group: parallel dense
//     columns (sentence handle, verb handle, canonical sentence pointer,
//     activation instant, depth, origin link) indexed by row. Insert
//     appends a row to every column; remove swap-moves the last row into
//     the hole — no per-entry heap objects, no freelist, and the columns
//     keep their capacity across activate/deactivate cycles, so the
//     steady state allocates nothing. A node has a block, its arrays and
//     a send active at once, so finding a row is a scan of a handful of
//     handles.
//   - Whole-set work (seeding a new question's match counts, recounting
//     after a restore, ordered-question evaluation) is a batch sweep per
//     question term: a tight pass over the verb-handle column rejects
//     non-matching rows on one integer compare each, and only verb hits
//     pay the noun subset test. The sweep touches memory linearly in
//     column order instead of pointer-chasing entries.
//   - Questions live in a slice indexed by QuestionID, and the posting
//     lists are slices indexed by verb/noun handle — candidate discovery
//     is array indexing, never map hashing. A concrete-verb term posts
//     the question under its verb handle, a wildcard-verb term with a
//     concrete noun posts it under that noun handle, and only fully
//     wildcarded terms land in the scan-always list.
//   - Pattern terms are compiled once into handle form (shared across all
//     nodes of a Registry — the interner is process-wide, so compiled
//     terms are node-independent), and each question keeps a per-term
//     count of matching active rows, maintained incrementally at every
//     insert/remove. Gate evaluation is then a handful of integer reads.
//
// Locking is one mutex, structMu, held by every method for the whole
// operation: one goroutine drives a session, so the lock is uncontended
// on the notification path, and what it buys is that readers on other
// goroutines (a /metrics scrape, TotalStats) and the paper's shared-memory
// case (several threads notifying one SAS, Section 4.2.3) stay safe at
// the synchronisation cost the paper names. A notification batch
// (ActivateAll, DeactivateAll — one node code block's sentences) pays
// that cost once for all its sentences. Exports decided under the lock
// are dispatched after it is released, so two SASes may export to each
// other. Watch callbacks and the SetRecorder hook run under the lock and
// must not call back into the same SAS.
package sas

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"nvmap/internal/nv"
	"nvmap/internal/obs"
	"nvmap/internal/vtime"
)

// QuestionID identifies a registered question: within one SAS, or,
// for the SASes of one Registry, across every node.
type QuestionID int

// ActiveSentence is one entry of a SAS snapshot.
type ActiveSentence struct {
	Sentence nv.Sentence
	// Since is the activation instant of the current (outermost) nesting.
	Since vtime.Time
	// Depth counts nested activations (a recursive construct may activate
	// the same sentence again before deactivating it).
	Depth int
}

// Stats counts notification traffic, for the Section 4.2.4 limitation-2
// analysis: activity notifications that are ignored by the SAS still cost
// their delivery, and relevance filtering determines how many are stored.
// CandidatesScanned and MatchesEvaluated expose the work the question
// index saves: candidates are the question states a measured event
// consulted (the brute-force design scanned every question), and matches
// are individual pattern-versus-sentence tests.
type Stats struct {
	Notifications int // activation+deactivation notifications received
	Ignored       int // dropped by the relevance filter
	Stored        int // applied to the active set
	Evaluations   int // question re-evaluations triggered
	Events        int // RecordEvent/RecordSpan calls
	// CandidatesScanned counts question states consulted for measured
	// events; MatchesEvaluated counts term-pattern match tests. Both are
	// observability counters, omitted from checkpoints when zero. They
	// count the tests the *semantic model* performs, not the physically
	// executed compares — the columnar sweep's verb-column fast reject
	// must not change checkpointed statistics.
	CandidatesScanned int `json:",omitempty"`
	MatchesEvaluated  int `json:",omitempty"`
}

// Result is the measurement state of one question.
type Result struct {
	Question Question
	// Count accumulates RecordEvent values charged to the question.
	Count float64
	// EventTime accumulates RecordSpan durations charged to the question.
	EventTime vtime.Duration
	// SatisfiedTime accumulates virtual time during which the question
	// was satisfied (the gate-timer reading).
	SatisfiedTime vtime.Duration
	// Satisfied is the current gate state.
	Satisfied bool
}

// cterm is a question term compiled to interned handles. Matching a
// sentence is then a handful of integer compares.
type cterm struct {
	anyVerb bool
	vh      nv.VerbHandle
	// nouns holds the handles of the term's non-wildcard nouns; every one
	// must participate in a matching sentence.
	nouns []nv.NounHandle
}

func compileTerm(t Term) cterm {
	ct := cterm{}
	if t.Verb == Any {
		ct.anyVerb = true
	} else {
		ct.vh = nv.DefaultInterner.Verb(t.Verb)
	}
	for _, n := range t.Nouns {
		if n == Any {
			continue
		}
		ct.nouns = append(ct.nouns, nv.DefaultInterner.Noun(n))
	}
	return ct
}

func (ct *cterm) matches(sn *nv.Sentence) bool {
	if !ct.anyVerb && ct.vh != nv.VerbHandleOf(sn) {
		return false
	}
	return ct.nounsMatch(sn)
}

// nounsMatch is the noun-subset half of matches: every compiled noun
// handle must appear among the sentence's noun handles. Batch sweeps call
// it only on verb-column hits.
func (ct *cterm) nounsMatch(sn *nv.Sentence) bool {
	for _, want := range ct.nouns {
		if !nv.HasNoun(sn, want) {
			return false
		}
	}
	return true
}

// cexpr mirrors Expr; leaf indexes the question's compiled pattern list
// (and its per-term match count).
type cexpr struct {
	op   ExprOp
	leaf int
	kids []*cexpr
}

// compileExpr assigns leaf indexes in the same depth-first order
// Expr.terms uses, so leaves line up with questionState.all.
func compileExpr(e *Expr, next *int) *cexpr {
	ce := &cexpr{op: e.Op}
	if e.Op == OpTerm {
		ce.leaf = *next
		*next++
		return ce
	}
	for _, k := range e.Kids {
		ce.kids = append(ce.kids, compileExpr(k, next))
	}
	return ce
}

// compiledQuestion is a question's matching state compiled to handle
// form. It is immutable after compilation and node-independent (handles
// come from the process-wide interner), so a Registry compiles each
// question once and shares the result across every node's SAS instead of
// recompiling per node.
type compiledQuestion struct {
	all  []cterm // every pattern leaf, in allTerms order
	expr *cexpr
	trig bool // the final term is an ordered question's measured trigger
}

func compileQuestion(q Question) *compiledQuestion {
	cq := &compiledQuestion{}
	for _, t := range q.allTerms() {
		cq.all = append(cq.all, compileTerm(t))
	}
	if q.Expr != nil {
		next := 0
		cq.expr = compileExpr(q.Expr, &next)
	} else if q.trigger() != nil {
		cq.trig = true
	}
	return cq
}

type questionState struct {
	id QuestionID
	q  Question

	// Compiled matching state; immutable after registration and possibly
	// shared with the same question registered on other nodes.
	all  []cterm // every pattern leaf, in allTerms order
	expr *cexpr
	trig *cterm // compiled measured term of an ordered question

	// Everything below is mutable measurement state, guarded by the SAS
	// lock. counts[i] is the number of active rows matching all[i],
	// maintained incrementally on every insert/remove transition. The
	// gate of an unordered question (or expression) is computed from
	// these counts alone.
	counts []int32
	// countsBuf backs counts for questions of up to four terms (nearly
	// all of them), folding the counts allocation into the state's own.
	countsBuf [4]int32
	satisfied bool
	since     vtime.Time // when satisfied last became true
	satTime   vtime.Duration
	count     float64
	evTime    vtime.Duration
	watch     func(bool, vtime.Time)
}

// init readies a zero state for question q under id, sharing the
// compiled matching state cq.
func (st *questionState) init(id QuestionID, q Question, cq *compiledQuestion) {
	*st = questionState{id: id, q: q, all: cq.all, expr: cq.expr}
	if n := len(st.all); n <= len(st.countsBuf) {
		st.counts = st.countsBuf[:n:n]
	} else {
		st.counts = make([]int32, n)
	}
	if cq.trig {
		st.trig = &st.all[len(st.all)-1]
	}
}

// columns is the struct-of-arrays active set. The columns are parallel —
// row i of every column describes the same active sentence — and dense:
// insert appends to each column, remove swap-moves the last row into the
// hole (a "compaction", counted for the observability plane). The columns
// never shrink their capacity, so a warmed activate/deactivate cycle
// allocates nothing. Every method is called with the SAS lock held.
type columns struct {
	// handles and verbs are the sweep columns — pure uint32 lanes a batch
	// pass reads linearly; sents resolves a row to its canonical sentence
	// (for noun tests and snapshots); since/depth/origin carry the row's
	// activation state.
	handles []nv.SentenceHandle
	verbs   []nv.VerbHandle
	sents   []*nv.Sentence
	since   []vtime.Time
	depth   []int32
	origin  []*ReliableLink

	// compact counts swap-remove backfills.
	compact int64
}

// rows returns the active row count.
func (sh *columns) rows() int { return len(sh.handles) }

// find returns the row index of an interned sentence handle, or -1, by
// scanning the dense handle column.
func (sh *columns) find(h nv.SentenceHandle) int {
	for i, x := range sh.handles {
		if x == h {
			return i
		}
	}
	return -1
}

// insert appends a row for sn to every column.
func (sh *columns) insert(sn *nv.Sentence, since vtime.Time, depth int32, origin *ReliableLink) {
	sh.handles = append(sh.handles, nv.HandleOf(sn))
	sh.verbs = append(sh.verbs, nv.VerbHandleOf(sn))
	sh.sents = append(sh.sents, sn)
	sh.since = append(sh.since, since)
	sh.depth = append(sh.depth, depth)
	sh.origin = append(sh.origin, origin)
}

// removeAt deletes row i by swap-moving the last row into the hole.
// Pointer column slots of the vacated row are nilled so the collector
// does not see dead sentences through retained capacity.
func (sh *columns) removeAt(i int) {
	last := len(sh.handles) - 1
	if i != last {
		sh.handles[i] = sh.handles[last]
		sh.verbs[i] = sh.verbs[last]
		sh.sents[i] = sh.sents[last]
		sh.since[i] = sh.since[last]
		sh.depth[i] = sh.depth[last]
		sh.origin[i] = sh.origin[last]
		sh.compact++
	}
	sh.handles = sh.handles[:last]
	sh.verbs = sh.verbs[:last]
	sh.sents[last] = nil
	sh.sents = sh.sents[:last]
	sh.since = sh.since[:last]
	sh.depth = sh.depth[:last]
	sh.origin[last] = nil
	sh.origin = sh.origin[:last]
}

// countMatches batch-sweeps the columns for rows matching ct and returns
// how many match. A concrete-verb term scans the dense verb column —
// one integer compare per row — and only verb hits pay the noun subset
// test; a wildcard-verb term tests nouns on every row.
func (sh *columns) countMatches(ct *cterm) int32 {
	var n int32
	if !ct.anyVerb {
		for i, vh := range sh.verbs {
			if vh == ct.vh && ct.nounsMatch(sh.sents[i]) {
				n++
			}
		}
		return n
	}
	for _, sn := range sh.sents {
		if ct.nounsMatch(sn) {
			n++
		}
	}
	return n
}

// appendRows appends the rows keep accepts (nil keeps every row) to dst
// as snapshot entries, in row order.
func (sh *columns) appendRows(dst []ActiveSentence, keep func(row int) bool) []ActiveSentence {
	for i, sn := range sh.sents {
		if keep == nil || keep(i) {
			dst = append(dst, ActiveSentence{Sentence: *sn, Since: sh.since[i], Depth: int(sh.depth[i])})
		}
	}
	return dst
}

// SAS is one Set of Active Sentences. On a distributed-memory system each
// node holds its own SAS (see Registry); on shared memory a single SAS may
// be shared by several goroutines — all methods are safe for concurrent
// use, under one lock, at the synchronisation cost the paper warns about.
type SAS struct {
	node int
	// reg is the Registry the SAS belongs to, or nil for a standalone
	// SAS; a registry numbers the questions of all its SASes.
	reg *Registry

	// structMu is the one lock: it guards every field below; see the
	// package comment.
	structMu sync.Mutex

	// filter switches relevance filtering on (Options.Filter,
	// Registry.SetFilter); keep holds the verbs it never drops
	// (Registry.Keep).
	filter bool
	keep   []nv.VerbHandle

	act columns
	// colBuf backs the initial column windows; see carveColumns.
	colBuf columnBuf

	// byVerb and byNoun are the question posting lists, indexed directly
	// by verb/noun handle (handles are small dense ints, so a slice
	// replaces the map — candidate discovery is a bounds check and a
	// load). wildcardQ is the scan-always list. Every posting list is
	// kept in ascending QuestionID order.
	byVerb    [][]QuestionID
	byNoun    [][]QuestionID
	wildcardQ []QuestionID
	// qstates is indexed by QuestionID. A standalone SAS numbers its
	// questions 0, 1, 2, ...; a registry node leaves nil holes at the
	// ids of questions asked only of other nodes. nq counts the
	// questions held.
	qstates []*questionState
	nq      int

	stats Stats

	// remotes receive activation events this SAS exports (Section 4.2.3).
	exports []exportRule
	// links holds receiver-side state (expected sequence number, gap
	// buffer) for each ReliableLink delivering into this SAS.
	links map[*ReliableLink]*linkState

	// record, when set, journals replayable operations (state.go).
	// replaying suppresses journaling and export fan-out during Replay.
	record    func(Record)
	replaying int

	// obsT, when non-nil, records spans for the notification and
	// measurement hot paths (see Options.Obs).
	obsT *obs.Tracer
}

// Options configures a SAS.
type Options struct {
	// Node is a diagnostic label: which node of the parallel machine this
	// SAS serves.
	Node int
	// Filter enables relevance filtering: activation notifications whose
	// sentence cannot match any registered question pattern are ignored
	// (not stored). The notification cost is still counted in Stats, as
	// in the paper's limitation discussion.
	Filter bool
	// Obs attaches the observability plane: Activate, Deactivate,
	// RecordEvent and RecordSpan record spans on its tracer. Span
	// recording assumes the notifying operations run on one goroutine
	// (the session's driving goroutine, where all monitoring code
	// lives); SASes notified from several goroutines should leave it
	// nil. Nil disables recording.
	Obs *obs.Plane
}

// New returns an empty SAS.
func New(opts Options) *SAS {
	s := &SAS{}
	s.init(opts)
	return s
}

// init readies a zero SAS, in place (a Registry carves its SASes from
// one slab).
func (s *SAS) init(opts Options) {
	s.node = opts.Node
	s.filter = opts.Filter
	s.obsT = opts.Obs.Trace()
	s.carveColumns()
}

// initRows is the starting column capacity carved at construction. Kept
// small: a node holds a handful of active sentences, and the slab is
// zeroed on every SAS construction, so over-carving is a real startup
// cost; an active set that outgrows the window just reallocates with
// ordinary append growth.
const initRows = 16

// columnBuf is the embedded backing store for the initial column
// windows: one array per column type, part of the SAS allocation itself,
// so constructing or resetting a SAS carves its columns without touching
// the allocator.
type columnBuf struct {
	handles [initRows]nv.SentenceHandle
	verbs   [initRows]nv.VerbHandle
	sents   [initRows]*nv.Sentence
	since   [initRows]vtime.Time
	depth   [initRows]int32
	origin  [initRows]*ReliableLink
}

// carveColumns empties the active set onto capacity-initRows windows of
// the SAS's embedded column buffer. The buffer is zeroed first, which
// both drops any old rows' sentence and link pointers and restores the
// windows after a reset.
func (s *SAS) carveColumns() {
	b := &s.colBuf
	*b = columnBuf{}
	s.act = columns{
		handles: b.handles[:0],
		verbs:   b.verbs[:0],
		sents:   b.sents[:0],
		since:   b.since[:0],
		depth:   b.depth[:0],
		origin:  b.origin[:0],
	}
}

// Node returns the node label.
func (s *SAS) Node() int { return s.node }

// qstate returns the state of a registered question, or nil.
// Callers hold structMu.
func (s *SAS) qstate(id QuestionID) *questionState {
	if id >= 0 && int(id) < len(s.qstates) {
		return s.qstates[id]
	}
	return nil
}

// AddQuestion registers a performance question and returns its handle.
// In the paper's usage the asking of performance questions is deferred
// until run time; adding questions while sentences are active is fully
// supported — a newly added question starts unsatisfied and is
// immediately evaluated against the current active set. On a registry
// node the id comes from the registry, so it names this question on no
// other node.
func (s *SAS) AddQuestion(q Question) (QuestionID, error) {
	if err := q.validate(); err != nil {
		return 0, err
	}
	if r := s.reg; r != nil {
		r.mu.Lock()
		defer r.mu.Unlock()
		return r.addLocked(q, []*SAS{s}), nil
	}
	st := &questionState{}
	s.structMu.Lock()
	defer s.structMu.Unlock()
	st.init(QuestionID(s.nq), q, compileQuestion(q))
	s.install(st)
	return st.id, nil
}

// install files a new question state under its id, indexes it and seeds
// its per-term match counts from the current active set — one batch
// column sweep per term — so a question asked mid-execution picks up
// already-active sentences. MatchesEvaluated counts the model-level
// rows×terms tests regardless of how many compares the verb-column reject
// skipped. Called with structMu held.
func (s *SAS) install(st *questionState) {
	if int(st.id) >= len(s.qstates) {
		// Grow with slack in one shot; trailing slots are nil holes,
		// which every reader skips.
		n := max(2*(int(st.id)+1), 8)
		ns := make([]*questionState, n)
		copy(ns, s.qstates)
		s.qstates = ns
	}
	s.qstates[st.id] = st
	s.nq++
	s.indexQuestion(st)
	for j := range st.all {
		st.counts[j] = s.act.countMatches(&st.all[j])
	}
	s.stats.MatchesEvaluated += s.act.rows() * len(st.all)
	s.recomputeGate(st, s.lastKnownTime())
}

// postVerb appends id to the posting list of verb handle vh, growing the
// handle-indexed table on demand.
func (s *SAS) postVerb(vh nv.VerbHandle, id QuestionID) {
	s.byVerb = growIndex(s.byVerb, int(vh))
	s.byVerb[vh] = append(s.byVerb[vh], id)
}

// postNoun appends id to the posting list of noun handle nh.
func (s *SAS) postNoun(nh nv.NounHandle, id QuestionID) {
	s.byNoun = growIndex(s.byNoun, int(nh))
	s.byNoun[nh] = append(s.byNoun[nh], id)
}

// growIndex extends a handle-indexed posting table so index i is
// addressable, doubling to amortise: one allocation instead of the
// append-one-nil-at-a-time ladder it replaces.
func growIndex(t [][]QuestionID, i int) [][]QuestionID {
	if i < len(t) {
		return t
	}
	n := i + 1
	if n < 2*len(t) {
		n = 2 * len(t)
	}
	// Handles are small dense interner indices; starting at 16 covers a
	// typical vocabulary in one shot instead of a 1-2-4-8 regrow ladder.
	if n < 16 {
		n = 16
	}
	nt := make([][]QuestionID, n)
	copy(nt, t)
	return nt
}

// indexQuestion posts a question under every handle its patterns name:
// concrete verbs under byVerb, wildcard-verb patterns under their first
// concrete noun, and fully wildcarded patterns in the scan-always list.
// Each posting list receives the question at most once, in ascending
// registration order.
func (s *SAS) indexQuestion(st *questionState) {
	// Stack-backed dedup scratch: term counts are tiny, so the common
	// case costs no heap allocation (append spills only past 8 handles).
	var seenVBuf [8]nv.VerbHandle
	var seenNBuf [8]nv.NounHandle
	seenV := seenVBuf[:0]
	seenN := seenNBuf[:0]
	wild := false
	for i := range st.all {
		ct := &st.all[i]
		switch {
		case !ct.anyVerb:
			if !slices.Contains(seenV, ct.vh) {
				seenV = append(seenV, ct.vh)
				s.postVerb(ct.vh, st.id)
			}
		case st.expr == nil && len(ct.nouns) > 0:
			// Noun narrowing is sound only because term-vector delivery
			// is guarded by an "event matches some term" (or trigger)
			// precondition: an event that matches an Any-verb term
			// necessarily carries the term's nouns, so the byNoun posting
			// covers every event that can be charged. Expression gates
			// have no such precondition — a satisfied expression is
			// charged by any event it is consulted for — so an Any-verb
			// term must keep the question globally visible, exactly as
			// the original single verb index did.
			if !slices.Contains(seenN, ct.nouns[0]) {
				seenN = append(seenN, ct.nouns[0])
				s.postNoun(ct.nouns[0], st.id)
			}
		default:
			if !wild {
				wild = true
				s.wildcardQ = append(s.wildcardQ, st.id)
			}
		}
	}
}

// Watch attaches a callback fired whenever the question's satisfied state
// flips. This implements the boolean-variable protocol of Section 6.1:
// the SAS module sets a flag to true whenever the requested array is
// active, and dynamically inserted instrumentation checks the flag before
// measuring. The callback runs under the SAS lock, on the goroutine whose
// notification flipped the gate; it must not call back into the same SAS.
func (s *SAS) Watch(id QuestionID, fn func(satisfied bool, at vtime.Time)) error {
	s.structMu.Lock()
	defer s.structMu.Unlock()
	st := s.qstate(id)
	if st == nil {
		return fmt.Errorf("sas: unknown question %d", id)
	}
	st.watch = fn
	return nil
}

// eachCandidate visits, in ascending QuestionID order without duplicates,
// every question whose patterns could match sn: the merge of the byVerb
// list for sn's verb, the byNoun lists for each of sn's nouns, and the
// wildcard list. The index is complete — a pattern matching sn is posted
// under sn's verb, one of sn's nouns, or the wildcard list — so skipping
// non-candidates never skips a potential match. Callers hold structMu.
func (s *SAS) eachCandidate(sn *nv.Sentence, fn func(*questionState)) {
	if s.nq == 0 {
		return
	}
	var lb [10][]QuestionID
	lists := lb[:0]
	if vh := nv.VerbHandleOf(sn); int(vh) < len(s.byVerb) {
		if l := s.byVerb[vh]; len(l) > 0 {
			lists = append(lists, l)
		}
	}
	if len(s.byNoun) > 0 {
		for _, nh := range nv.NounHandlesOf(sn) {
			if int(nh) >= len(s.byNoun) {
				continue
			}
			if l := s.byNoun[nh]; len(l) > 0 {
				lists = append(lists, l)
			}
		}
	}
	if len(s.wildcardQ) > 0 {
		lists = append(lists, s.wildcardQ)
	}
	if len(lists) == 0 {
		return
	}
	if len(lists) == 1 {
		for _, id := range lists[0] {
			if st := s.qstate(id); st != nil {
				fn(st)
			}
		}
		return
	}
	var idx [10]int
	last := QuestionID(-1)
	for {
		best := -1
		var bestID QuestionID
		for i := range lists {
			for idx[i] < len(lists[i]) && lists[i][idx[i]] == last {
				idx[i]++
			}
			if idx[i] < len(lists[i]) {
				if id := lists[i][idx[i]]; best < 0 || id < bestID {
					best, bestID = i, id
				}
			}
		}
		if best < 0 {
			return
		}
		idx[best]++
		last = bestID
		if st := s.qstate(bestID); st != nil {
			fn(st)
		}
	}
}

// relevant reports whether sn has a kept verb or any registered question
// pattern could match it. Only indexed candidates are consulted;
// completeness of the index makes the answer equal to a scan of every
// question.
func (s *SAS) relevant(sn *nv.Sentence) bool {
	if slices.Contains(s.keep, nv.VerbHandleOf(sn)) {
		return true
	}
	rel := false
	s.eachCandidate(sn, func(st *questionState) {
		if rel {
			return
		}
		for i := range st.all {
			if st.all[i].matches(sn) {
				rel = true
				return
			}
		}
	})
	return rel
}

// Activate notifies the SAS that sentence sn became active at instant at.
// Nested activation of an already-active sentence increases its depth.
func (s *SAS) Activate(sn nv.Sentence, at vtime.Time) {
	p := nv.InternedPtr(&sn)
	if s.obsT != nil {
		ref := s.obsT.Begin(obs.StageSASActivate, p.Key(), s.node, at)
		defer s.obsT.End(ref, at)
	}
	s.structMu.Lock()
	pending := s.activateLocked(p, at, nil)
	s.structMu.Unlock()
	dispatch(pending)
}

// ActivateAll notifies the SAS that every sentence of sns became active at
// instant at. It is exactly the sequence of Activate calls, in order,
// taken under one acquisition of the lock — the paper's dispatcher hands
// the SAS a node code block's arguments in one notification (Section
// 6.1). Statistics, journal records and Watch flips are those of the
// sequence; the exports the sequence would dispatch are dispatched, in
// the same order, once the whole batch is applied (so a synchronous
// export that leads back into this SAS lands after the batch rather than
// between its sentences). With an observability tracer attached the
// batch is the plain sequence of Activate calls, so it records the same
// per-sentence spans.
func (s *SAS) ActivateAll(sns []nv.Sentence, at vtime.Time) {
	if s.obsT != nil {
		for i := range sns {
			s.Activate(sns[i], at)
		}
		return
	}
	var pending []pendingSend
	s.structMu.Lock()
	for i := range sns {
		pending = s.activateLocked(nv.InternedPtr(&sns[i]), at, pending)
	}
	s.structMu.Unlock()
	dispatch(pending)
}

// activateLocked applies one activation notification and appends the
// exports it decides to pending. Called with structMu held.
func (s *SAS) activateLocked(p *nv.Sentence, at vtime.Time, pending []pendingSend) []pendingSend {
	if s.journaling() {
		s.record(Record{Kind: RecActivate, Sentence: *p, At: at})
	}
	s.stats.Notifications++
	if s.filter && !s.relevant(p) {
		s.stats.Ignored++
		return pending
	}
	s.stats.Stored++
	if i := s.act.find(nv.HandleOf(p)); i >= 0 {
		s.act.depth[i]++
		return pending
	}
	s.act.insert(p, at, 1, nil)
	s.notifyQuestions(p, at, +1)
	return s.collectExports(pending, p, at, true)
}

// Deactivate notifies the SAS that sentence sn became inactive at instant
// at. Deactivating a sentence that is not active is an error — balanced
// notification is an invariant the monitoring code must maintain.
func (s *SAS) Deactivate(sn nv.Sentence, at vtime.Time) error {
	p := nv.InternedPtr(&sn)
	if s.obsT != nil {
		ref := s.obsT.Begin(obs.StageSASDeactivate, p.Key(), s.node, at)
		defer s.obsT.End(ref, at)
	}
	s.structMu.Lock()
	pending, err := s.deactivateLocked(p, at, nil)
	s.structMu.Unlock()
	dispatch(pending)
	return err
}

// DeactivateAll is the batch form of Deactivate, as ActivateAll is of
// Activate: the sequence of Deactivate calls over sns, in order, under one
// acquisition of the lock. Every sentence is notified even when an
// earlier one fails; the first error is returned.
func (s *SAS) DeactivateAll(sns []nv.Sentence, at vtime.Time) error {
	var first error
	if s.obsT != nil {
		for i := range sns {
			if err := s.Deactivate(sns[i], at); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	var pending []pendingSend
	s.structMu.Lock()
	for i := range sns {
		var err error
		pending, err = s.deactivateLocked(nv.InternedPtr(&sns[i]), at, pending)
		if err != nil && first == nil {
			first = err
		}
	}
	s.structMu.Unlock()
	dispatch(pending)
	return first
}

// deactivateLocked applies one deactivation notification and appends the
// exports it decides to pending. Called with structMu held.
func (s *SAS) deactivateLocked(p *nv.Sentence, at vtime.Time, pending []pendingSend) ([]pendingSend, error) {
	if s.journaling() {
		s.record(Record{Kind: RecDeactivate, Sentence: *p, At: at})
	}
	s.stats.Notifications++
	i := s.act.find(nv.HandleOf(p))
	if i < 0 {
		if s.filter && !s.relevant(p) {
			// A filtered sentence was never stored; its deactivation is
			// likewise ignored.
			s.stats.Ignored++
			return pending, nil
		}
		return pending, fmt.Errorf("sas: deactivate of inactive sentence %v", *p)
	}
	s.stats.Stored++
	s.act.depth[i]--
	if s.act.depth[i] == 0 {
		s.act.removeAt(i)
		s.notifyQuestions(p, at, -1)
		pending = s.collectExports(pending, p, at, false)
	}
	return pending, nil
}

// notifyQuestions folds one insert (delta +1) or remove (delta -1)
// transition into every candidate question: the per-term match counts
// are adjusted and the gate recomputed, all without touching the active
// set. Called with structMu held.
func (s *SAS) notifyQuestions(sn *nv.Sentence, at vtime.Time, delta int32) {
	s.eachCandidate(sn, func(st *questionState) {
		s.applyTransition(st, sn, delta, at)
	})
}

// applyTransition updates one candidate's match counts for a transition
// of sn and recomputes its gate.
func (s *SAS) applyTransition(st *questionState, sn *nv.Sentence, delta int32, at vtime.Time) {
	s.stats.Evaluations++
	s.stats.MatchesEvaluated += len(st.all)
	for i := range st.all {
		if st.all[i].matches(sn) {
			st.counts[i] += delta
		}
	}
	s.updateGate(st, at)
}

// recomputeGate re-derives a question's gate from its current counts
// (after registration or a restore).
func (s *SAS) recomputeGate(st *questionState, at vtime.Time) {
	s.stats.Evaluations++
	s.updateGate(st, at)
}

func (s *SAS) updateGate(st *questionState, at vtime.Time) {
	now := s.gate(st, nil)
	if now == st.satisfied {
		return
	}
	st.satisfied = now
	if now {
		st.since = at
	} else {
		st.satTime += at.Sub(st.since)
	}
	if st.watch != nil {
		st.watch(now, at)
	}
}

// evalCtx carries a measured event through gate evaluation: the event
// sentence is treated as active, and match tests are tallied (added to
// Stats once per operation, not per test).
type evalCtx struct {
	extra   *nv.Sentence
	matches int
}

func (c *evalCtx) matchExtra(ct *cterm) bool {
	c.matches++
	return ct.matches(c.extra)
}

// gate computes a question's satisfied state from its match counts; a
// non-nil ctx additionally treats the event sentence as active. Ordered
// questions scan the active set (they need activation instants),
// everything else is count reads.
func (s *SAS) gate(st *questionState, c *evalCtx) bool {
	if st.expr != nil {
		return s.gateExpr(st, st.expr, c)
	}
	if st.q.Ordered {
		return s.evalOrdered(st, c)
	}
	for i := range st.all {
		if st.counts[i] > 0 {
			continue
		}
		if c != nil && c.matchExtra(&st.all[i]) {
			continue
		}
		return false
	}
	return true
}

func (s *SAS) gateExpr(st *questionState, e *cexpr, c *evalCtx) bool {
	switch e.op {
	case OpTerm:
		if st.counts[e.leaf] > 0 {
			return true
		}
		return c != nil && c.matchExtra(&st.all[e.leaf])
	case OpAnd:
		for _, k := range e.kids {
			if !s.gateExpr(st, k, c) {
				return false
			}
		}
		return true
	case OpOr:
		for _, k := range e.kids {
			if s.gateExpr(st, k, c) {
				return true
			}
		}
		return false
	case OpNot:
		return !s.gateExpr(st, e.kids[0], c)
	default:
		return false
	}
}

// evalOrdered checks the ordered reading: each term must be matched by an
// active sentence whose activation time is no earlier than the match of
// the preceding term — the nesting discipline of a call stack. The extra
// (trigger) sentence, when present, is only eligible for the final term
// and is considered activated "now" (no earlier than everything else).
//
// Each term is one batch column sweep: the verb column rejects rows on an
// integer compare, and only verb hits pay the noun test and the since
// comparison. c.matches still counts every row visited — the model-level
// test count — so statistics do not depend on the sweep's
// short-circuiting.
func (s *SAS) evalOrdered(st *questionState, c *evalCtx) bool {
	prev := vtime.Time(-1 << 62)
	for i := range st.all {
		ct := &st.all[i]
		last := i == len(st.all)-1
		best := vtime.Time(-1)
		found := false
		sh := &s.act
		if c != nil {
			c.matches += sh.rows()
		}
		for k, sn := range sh.sents {
			if (!ct.anyVerb && sh.verbs[k] != ct.vh) || !ct.nounsMatch(sn) || sh.since[k].Before(prev) {
				continue
			}
			if !found || sh.since[k].Before(best) {
				best = sh.since[k]
				found = true
			}
		}
		if !found && last && c != nil && c.matchExtra(ct) {
			// The trigger fires after every stored activation.
			return true
		}
		if !found {
			return false
		}
		prev = best
	}
	return true
}

// fires decides whether a measured event for the context's sentence
// satisfies question st. For unordered questions the event sentence must
// match some term and the whole question must hold with the event treated
// as active. For ordered questions the event must match the final
// (measured) term and the earlier terms must be satisfied in activation
// order.
func (s *SAS) fires(st *questionState, c *evalCtx) bool {
	if st.trig != nil {
		if !c.matchExtra(st.trig) {
			return false
		}
		return s.gate(st, c)
	}
	if st.expr == nil {
		matchesSome := false
		for i := range st.all {
			if c.matchExtra(&st.all[i]) {
				matchesSome = true
				break
			}
		}
		if !matchesSome {
			return false
		}
	}
	return s.gate(st, c)
}

// RecordEvent charges an instantaneous measured event — the execution of
// low-level sentence sn at instant at — to every question the event
// satisfies, adding value to each question's counter. It returns the
// number of questions charged.
//
// This is the paper's central measurement act: "when a low-level sentence
// is to be measured, monitoring code queries the SAS to determine what
// sentences are currently active and thereby relates low-level sentences
// to active sentences at higher levels."
func (s *SAS) RecordEvent(sn nv.Sentence, at vtime.Time, value float64) int {
	p := nv.InternedPtr(&sn)
	if s.obsT != nil {
		ref := s.obsT.Begin(obs.StageSASMatch, p.Key(), s.node, at)
		defer s.obsT.End(ref, at)
	}
	s.structMu.Lock()
	defer s.structMu.Unlock()
	if s.journaling() {
		s.record(Record{Kind: RecEvent, Sentence: *p, At: at, Value: value})
	}
	return s.measure(p, value, 0)
}

// RecordSpan charges a measured duration — low-level sentence sn active
// over [from, to) — to every question the event satisfies, adding the
// span to each question's event-time accumulator.
func (s *SAS) RecordSpan(sn nv.Sentence, from, to vtime.Time, value vtime.Duration) int {
	p := nv.InternedPtr(&sn)
	if s.obsT != nil {
		ref := s.obsT.Begin(obs.StageSASMatch, p.Key(), s.node, from)
		defer s.obsT.End(ref, to)
	}
	s.structMu.Lock()
	defer s.structMu.Unlock()
	if s.journaling() {
		s.record(Record{Kind: RecSpan, Sentence: *p, At: to, From: from, Dur: value})
	}
	return s.measure(p, 0, value)
}

// measure charges one measured event for sentence p to every question it
// satisfies — count onto the question's counter, span onto its event-time
// accumulator (an event carries one of the two) — and returns the number
// of questions charged. Called with structMu held.
func (s *SAS) measure(p *nv.Sentence, count float64, span vtime.Duration) int {
	s.stats.Events++
	c := evalCtx{extra: p}
	hits, scanned := 0, 0
	s.eachCandidate(p, func(st *questionState) {
		scanned++
		if s.fires(st, &c) {
			st.count += count
			st.evTime += span
			hits++
		}
	})
	s.stats.CandidatesScanned += scanned
	s.stats.MatchesEvaluated += c.matches
	return hits
}

// Satisfied reports the current gate state of a question.
func (s *SAS) Satisfied(id QuestionID) bool {
	s.structMu.Lock()
	defer s.structMu.Unlock()
	st := s.qstate(id)
	return st != nil && st.satisfied
}

// Result returns the measurement state of a question as of instant now
// (a currently-satisfied gate timer includes the open interval up to now).
func (s *SAS) Result(id QuestionID, now vtime.Time) (Result, error) {
	s.structMu.Lock()
	defer s.structMu.Unlock()
	st := s.qstate(id)
	if st == nil {
		return Result{}, fmt.Errorf("sas: unknown question %d", id)
	}
	r := Result{
		Question:      st.q,
		Count:         st.count,
		EventTime:     st.evTime,
		SatisfiedTime: st.satTime,
		Satisfied:     st.satisfied,
	}
	if st.satisfied && now.After(st.since) {
		r.SatisfiedTime += now.Sub(st.since)
	}
	return r, nil
}

// Snapshot returns the active sentences sorted by activation time then
// key — the Figure 5 view of the SAS.
func (s *SAS) Snapshot() []ActiveSentence {
	s.structMu.Lock()
	out := s.act.appendRows(make([]ActiveSentence, 0, s.act.rows()), nil)
	s.structMu.Unlock()
	sortSnapshot(out)
	return out
}

func sortSnapshot(out []ActiveSentence) {
	sorted := true
	for i := 1; i < len(out); i++ {
		if out[i].Since < out[i-1].Since ||
			(out[i].Since == out[i-1].Since && out[i].Sentence.Key() < out[i-1].Sentence.Key()) {
			sorted = false
			break
		}
	}
	if sorted {
		return
	}
	slices.SortFunc(out, func(a, b ActiveSentence) int {
		if a.Since != b.Since {
			if a.Since < b.Since {
				return -1
			}
			return 1
		}
		return strings.Compare(a.Sentence.Key(), b.Sentence.Key())
	})
}

// Active reports whether sn is currently active.
func (s *SAS) Active(sn nv.Sentence) bool {
	p, known := nv.LookupInternedPtr(&sn)
	if !known {
		// Entries are always interned; a sentence the intern table has
		// never seen cannot be active.
		return false
	}
	s.structMu.Lock()
	defer s.structMu.Unlock()
	return s.act.find(nv.HandleOf(p)) >= 0
}

// Size returns the number of distinct active sentences.
func (s *SAS) Size() int {
	s.structMu.Lock()
	defer s.structMu.Unlock()
	return s.act.rows()
}

// Stats returns a copy of the notification statistics; the counters are
// plain ints under the SAS lock, so the copy cannot tear.
func (s *SAS) Stats() Stats {
	s.structMu.Lock()
	defer s.structMu.Unlock()
	return s.stats
}

// IndexStats describes the question index: how many questions are
// registered and how the posting lists distribute them. Exposed for the
// observability plane's metrics.
type IndexStats struct {
	Questions        int
	VerbPostings     int
	NounPostings     int
	WildcardPostings int
}

// Index returns the current question-index statistics.
func (s *SAS) Index() IndexStats {
	s.structMu.Lock()
	defer s.structMu.Unlock()
	st := IndexStats{Questions: s.nq, WildcardPostings: len(s.wildcardQ)}
	for _, ids := range s.byVerb {
		st.VerbPostings += len(ids)
	}
	for _, ids := range s.byNoun {
		st.NounPostings += len(ids)
	}
	return st
}

// ColumnStats describes the columnar active set of one SAS: live rows,
// column capacity (rows the columns can hold without growing), and the
// cumulative count of swap-remove compactions. Exposed for the
// observability plane's nvmap_sas_column_* metrics.
type ColumnStats struct {
	Rows        int
	Capacity    int
	Compactions int64
}

// Columns returns the current columnar-storage statistics.
func (s *SAS) Columns() ColumnStats {
	s.structMu.Lock()
	defer s.structMu.Unlock()
	return ColumnStats{Rows: s.act.rows(), Capacity: cap(s.act.handles), Compactions: s.act.compact}
}

// lastKnownTime returns a best-effort "now" for evaluating a question
// added mid-run: the latest activation time seen. Called with structMu
// held.
func (s *SAS) lastKnownTime() vtime.Time {
	var t vtime.Time
	for _, since := range s.act.since {
		if since.After(t) {
			t = since
		}
	}
	return t
}

// FormatSnapshot renders the snapshot the way Figure 5 prints it, one
// active sentence per line prefixed with its level of abstraction, e.g.
//
//	HPF:  line #1 executes
//	Base: Processor sends a message
//
// Levels and display names come from the registry; sentences whose verb
// is unknown to the registry are printed with a "?" level.
func FormatSnapshot(snap []ActiveSentence, reg *nv.Registry) string {
	var b []byte
	for _, a := range snap {
		level := "?"
		if v, ok := reg.Verb(a.Sentence.Verb); ok {
			level = string(v.Level)
		}
		b = append(b, fmt.Sprintf("%-6s %v\n", level+":", a.Sentence)...)
	}
	return string(b)
}
