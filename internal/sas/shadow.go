package sas

import (
	"nvmap/internal/nv"
	"nvmap/internal/vtime"
)

// This file implements shadow contexts, our remedy for the first
// limitation of Section 4.2.4: "the SAS approach does not handle
// asynchronous activation of sentences." In the paper's Figure 7 a user
// process calls write() and the kernel performs the disk write later, when
// the function-execution sentence has already left the SAS, so kernel disk
// writes on behalf of func() "could not be measured with the help of the
// SAS alone."
//
// A shadow context closes the gap: at the handoff point (the write()
// system call) the requester captures the currently active sentences; the
// asynchronous worker later measures its low-level sentences *in* that
// captured context, so questions spanning both sides fire as if the
// high-level sentences were still active. This is precisely the mechanism
// the paper's client/server forwarding (Section 4.2.3) uses across space,
// applied across time.

// Shadow is a captured activation context.
type Shadow struct {
	// Entries are the sentences (with their activation instants) that
	// were active at capture time.
	Entries []ActiveSentence
	// CapturedAt records the handoff instant.
	CapturedAt vtime.Time
}

// Capture snapshots the sentences active now. If patterns are given, only
// sentences matching at least one pattern are captured — the same
// size-reduction idea as relevance filtering, since asynchronous work may
// outlive many irrelevant activations.
func (s *SAS) Capture(at vtime.Time, patterns ...Term) Shadow {
	s.structMu.Lock()
	defer s.structMu.Unlock()
	var keep func(row int) bool
	if len(patterns) > 0 {
		keep = func(row int) bool {
			for _, p := range patterns {
				if p.Matches(*s.act.sents[row]) {
					return true
				}
			}
			return false
		}
	}
	return Shadow{CapturedAt: at, Entries: s.act.appendRows(nil, keep)}
}

// adjustCounts folds a shadow insert/remove of sn into the candidate
// questions' match counts without recomputing gates: shadows affect only
// the measurement being recorded, never satisfied-time accounting.
// Called with structMu held.
func (s *SAS) adjustCounts(sn *nv.Sentence, delta int32) {
	s.eachCandidate(sn, func(st *questionState) {
		for i := range st.all {
			if st.all[i].matches(sn) {
				st.counts[i] += delta
			}
		}
	})
}

// installShadow temporarily adds the shadow's sentences to the active set
// (those not already present) and returns a restore function. Question
// gate state is deliberately not re-evaluated: the match counts are
// adjusted so event evaluation sees the shadow sentences, but satisfied
// flags and timers are untouched. Called with structMu held.
func (s *SAS) installShadow(sh Shadow) func() {
	var added []*nv.Sentence
	for i := range sh.Entries {
		a := &sh.Entries[i]
		sn := nv.InternedPtr(&a.Sentence)
		if s.act.find(nv.HandleOf(sn)) >= 0 {
			continue
		}
		s.act.insert(sn, a.Since, 1, nil)
		s.adjustCounts(sn, +1)
		added = append(added, sn)
	}
	return func() {
		// Row indexes are unstable across swap-removes, so each shadow
		// row is re-found by handle at restore time.
		for _, sn := range added {
			s.act.removeAt(s.act.find(nv.HandleOf(sn)))
			s.adjustCounts(sn, -1)
		}
	}
}

// RecordEventInContext is RecordEvent evaluated as if the shadow's
// sentences were still active. It returns the number of questions
// charged.
func (s *SAS) RecordEventInContext(sh Shadow, sn nv.Sentence, at vtime.Time, value float64) int {
	p := nv.InternedPtr(&sn)
	s.structMu.Lock()
	defer s.structMu.Unlock()
	defer s.installShadow(sh)()
	return s.measure(p, value, 0)
}

// RecordSpanInContext is RecordSpan evaluated as if the shadow's
// sentences were still active.
func (s *SAS) RecordSpanInContext(sh Shadow, sn nv.Sentence, from, to vtime.Time, value vtime.Duration) int {
	p := nv.InternedPtr(&sn)
	s.structMu.Lock()
	defer s.structMu.Unlock()
	defer s.installShadow(sh)()
	return s.measure(p, 0, value)
}
