package sas

import (
	"sort"

	"nvmap/internal/nv"
	"nvmap/internal/vtime"
)

// This file adds fail-stop recovery support to the SAS: a snapshotable
// state (the per-node partition a checkpoint captures), an operation
// journal (the post-checkpoint records a supervisor replays after a
// reboot), and an in-place Reset (the wipe a crash inflicts). Entries
// held on behalf of ReliableLinks are deliberately outside this state:
// the links' own retransmit/resync machinery (reliable.go) reconstructs
// them, exactly as it does after message loss.

// RecordKind classifies one journaled SAS operation.
type RecordKind uint8

// The journaled operation kinds.
const (
	RecActivate RecordKind = iota
	RecDeactivate
	RecEvent
	RecSpan
)

// Record is one journaled SAS operation, sufficient to replay it. From
// is the span start for RecSpan records; Value and Dur carry the
// RecordEvent value and RecordSpan duration respectively.
type Record struct {
	Kind     RecordKind
	Sentence nv.Sentence
	At       vtime.Time
	From     vtime.Time
	Value    float64
	Dur      vtime.Duration
}

// SetRecorder installs a journal hook invoked for every local (and
// plain-remote) Activate, Deactivate, RecordEvent and RecordSpan — the
// operations Replay can reproduce. The hook runs under the SAS lock, on
// the notifying goroutine, and must not call back into the same SAS.
// Events arriving over a
// ReliableLink are not journaled: the link retransmits them itself. A
// nil fn removes the hook.
func (s *SAS) SetRecorder(fn func(Record)) {
	s.structMu.Lock()
	defer s.structMu.Unlock()
	s.record = fn
}

// journaling reports whether hot-path operations should build and emit
// journal records; callers gate Record construction on it so the nil-hook
// case costs one comparison. Callers hold structMu.
func (s *SAS) journaling() bool {
	return s.record != nil && s.replaying == 0
}

// Replay re-applies one journaled operation. During replay the journal
// hook is suppressed (no re-journaling) and export rules do not fire —
// the other nodes already saw the original operation; replay only
// rebuilds this SAS's state.
func (s *SAS) Replay(r Record) {
	s.structMu.Lock()
	s.replaying++
	s.structMu.Unlock()
	switch r.Kind {
	case RecActivate:
		s.Activate(r.Sentence, r.At)
	case RecDeactivate:
		_ = s.Deactivate(r.Sentence, r.At)
	case RecEvent:
		s.RecordEvent(r.Sentence, r.At, r.Value)
	case RecSpan:
		s.RecordSpan(r.Sentence, r.From, r.At, r.Dur)
	}
	s.structMu.Lock()
	s.replaying--
	s.structMu.Unlock()
}

// QuestionSnap is the measurement state of one question inside a State.
type QuestionSnap struct {
	ID            QuestionID
	Count         float64
	EventTime     vtime.Duration
	SatisfiedTime vtime.Duration
	Satisfied     bool
	Since         vtime.Time
}

// State is a snapshot of a SAS partition: the locally held active set
// and every question's accumulated results. It is plain data (no maps,
// no pointers) so a checkpoint store can serialise it.
type State struct {
	Node      int
	Active    []ActiveSentence
	Questions []QuestionSnap
	Stats     Stats
}

// ExportState captures the SAS's recoverable state: locally activated
// sentences (link-held entries are excluded — their links resync them)
// and per-question results, both in deterministic order.
func (s *SAS) ExportState() State {
	s.structMu.Lock()
	defer s.structMu.Unlock()
	st := State{Node: s.node, Stats: s.stats}
	st.Active = s.act.appendRows(nil, func(row int) bool { return s.act.origin[row] == nil })
	sort.Slice(st.Active, func(i, j int) bool {
		return st.Active[i].Sentence.Key() < st.Active[j].Sentence.Key()
	})
	// qstates is indexed by QuestionID, so slice order is id order.
	for _, q := range s.qstates {
		if q == nil {
			continue
		}
		st.Questions = append(st.Questions, QuestionSnap{
			ID:            q.id,
			Count:         q.count,
			EventTime:     q.evTime,
			SatisfiedTime: q.satTime,
			Satisfied:     q.satisfied,
			Since:         q.since,
		})
	}
	return st
}

// recountQuestions re-derives every question's per-term match counts from
// the current active set, after a wholesale replacement of the entries.
// Called with structMu held; gate flags are not touched (the caller
// restores them from its snapshot).
func (s *SAS) recountQuestions() {
	for _, st := range s.qstates {
		if st == nil {
			continue
		}
		// One batch column sweep per term.
		for j := range st.all {
			st.counts[j] = s.act.countMatches(&st.all[j])
		}
	}
}

// RestoreState overwrites the SAS's active set and question results from
// a snapshot. Questions must already be registered (Reset keeps
// them); snapshots of questions the SAS does not know are dropped.
// Watch callbacks fire with each question's restored gate state so
// externally mirrored flags resynchronise.
func (s *SAS) RestoreState(st State) {
	s.structMu.Lock()
	defer s.structMu.Unlock()
	s.carveColumns()
	for i := range st.Active {
		a := &st.Active[i]
		s.act.insert(nv.InternedPtr(&a.Sentence), a.Since, int32(a.Depth), nil)
	}
	s.recountQuestions()
	for _, qs := range st.Questions {
		q := s.qstate(qs.ID)
		if q == nil {
			continue
		}
		q.count = qs.Count
		q.evTime = qs.EventTime
		q.satTime = qs.SatisfiedTime
		q.satisfied = qs.Satisfied
		q.since = qs.Since
		if q.watch != nil {
			q.watch(q.satisfied, qs.Since)
		}
	}
	s.stats = st.Stats
}

// Reset wipes the SAS in place — the fail-stop rebirth. The active set,
// every question's results, statistics and receiver-side link
// sequencing state vanish. What the supervisor re-establishes on reboot
// survives: question registrations (ids, posting index, Watch
// callbacks), export rules and the journal hook — so every *SAS and
// QuestionID held by links, instrumentation and the tool stays valid.
// Each question's gate is re-evaluated against the empty set in id
// order, as if asked anew, so a watcher hears a gate the wipe closes.
// Incoming ReliableLink traffic sees a fresh receiver and
// converges via its gap/resync protocol.
func (s *SAS) Reset() {
	s.structMu.Lock()
	defer s.structMu.Unlock()
	s.carveColumns()
	s.stats = Stats{}
	s.links = nil
	for _, st := range s.qstates {
		if st == nil {
			continue
		}
		clear(st.counts)
		s.recomputeGate(st, 0)
		st.since, st.satTime, st.count, st.evTime = 0, 0, 0, 0
	}
}

// ResetNode wipes a node's SAS in place (see Reset) and returns it.
// Questions and their ids survive the crash, and so do Watch callbacks.
func (r *Registry) ResetNode(node int) *SAS {
	s := r.Node(node)
	s.Reset()
	return s
}

// FromNode returns the exporting node of the link.
func (l *ReliableLink) FromNode() int { return l.from.node }
