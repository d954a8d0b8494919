package sas

import (
	"fmt"
	"sort"
	"sync"

	"nvmap/internal/fault"
	"nvmap/internal/nv"
	"nvmap/internal/vtime"
)

// This file adds loss tolerance to the cross-node export path of
// Section 4.2.3. The paper assumes the forwarding of sentences between
// SASes is reliable; on a real machine the channel may drop, duplicate
// or reorder events, and a lost deactivation would leave a remote
// sentence active forever — every later question evaluation on the
// receiving node would then be wrong (the Figure 7 flavour of error:
// the SAS's view of "what is happening now" diverges from reality).
//
// A ReliableLink restores convergence with three mechanisms:
//
//   - per-sender sequence numbers stamped on every exported event, so
//     the receiver can detect duplicates and gaps;
//   - an unacked buffer on the sender with retransmission (Flush models
//     the retransmit timer in virtual time);
//   - snapshot resync: when retransmission is not enough (or a gap grows
//     past a threshold), the receiver discards its view of the link and
//     reconstructs it from the sender's current matching active set.
//
// Acknowledgements travel over the in-process control plane and are
// assumed reliable; only the exported data events traverse the lossy
// transport. This mirrors the paper's single-channel architecture in
// which control traffic is far sparser than data traffic.

// gapResyncThreshold is how many out-of-order events a receiver buffers
// on one link before concluding retransmission has failed and pulling a
// snapshot instead.
const gapResyncThreshold = 4

// maxFlushAttempts bounds the retransmit rounds of Flush before it
// falls back to a snapshot resync.
const maxFlushAttempts = 8

// LinkStats counts reliability-protocol traffic on one link.
type LinkStats struct {
	// Sent counts first transmissions of exported events.
	Sent int
	// Acked is the highest cumulatively acknowledged sequence number.
	Acked uint64
	// Retransmits counts events re-sent by Flush/Retransmit.
	Retransmits int
	// Resyncs counts snapshot reconciliations.
	Resyncs int
	// DuplicatesDropped counts events the receiver discarded as already
	// applied.
	DuplicatesDropped int
	// Gaps counts events that arrived ahead of a missing predecessor.
	Gaps int
}

// ReliableLink is a sequencing Transport wrapper for one export rule.
// It stamps events with per-sender sequence numbers, keeps them until
// acknowledged, and can retransmit or snapshot-resync. Create one with
// ExportReliable.
type ReliableLink struct {
	from    *SAS
	to      *SAS
	pattern Term
	inner   Transport
	// autoResync lets the receiver trigger a snapshot resync when a gap
	// grows past gapResyncThreshold.
	autoResync bool

	mu      sync.Mutex
	nextSeq uint64
	unacked []Event
	stats   LinkStats
}

// ExportReliable arranges for activation changes matching pattern to be
// forwarded to the SAS `to` over a ReliableLink wrapping the inner
// transport (SyncTransport if nil — useful for tests that interpose a
// LossyTransport). With resync enabled the receiver may pull a snapshot
// from this SAS when it detects a persistent gap.
func (s *SAS) ExportReliable(pattern Term, to *SAS, inner Transport, resync bool) (*ReliableLink, error) {
	if to == nil {
		return nil, fmt.Errorf("sas: export needs a destination SAS")
	}
	if to == s {
		return nil, fmt.Errorf("sas: cannot export to self")
	}
	if inner == nil {
		inner = SyncTransport{}
	}
	l := &ReliableLink{from: s, to: to, pattern: pattern, inner: inner, autoResync: resync}
	s.structMu.Lock()
	s.exports = append(s.exports, exportRule{pattern: pattern, to: to, transport: l})
	s.structMu.Unlock()
	return l, nil
}

// Send implements Transport: stamp, buffer, forward. The sequence
// number is assigned under the link lock, which is released before the
// inner transport runs — the inner transport may call into the
// destination SAS, which may ack back into this link.
func (l *ReliableLink) Send(ev Event, to *SAS) {
	l.mu.Lock()
	l.nextSeq++
	ev.Seq = l.nextSeq
	ev.via = l
	l.unacked = append(l.unacked, ev)
	l.stats.Sent++
	l.mu.Unlock()
	l.inner.Send(ev, to)
}

// ack records a cumulative acknowledgement: every event with sequence
// number <= seq has been applied by the receiver.
func (l *ReliableLink) ack(seq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq > l.stats.Acked {
		l.stats.Acked = seq
	}
	i := 0
	for i < len(l.unacked) && l.unacked[i].Seq <= seq {
		i++
	}
	l.unacked = l.unacked[i:]
}

func (l *ReliableLink) noteDuplicate() {
	l.mu.Lock()
	l.stats.DuplicatesDropped++
	l.mu.Unlock()
}

func (l *ReliableLink) noteGap() {
	l.mu.Lock()
	l.stats.Gaps++
	l.mu.Unlock()
}

// Unacked returns how many exported events await acknowledgement.
func (l *ReliableLink) Unacked() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.unacked)
}

// Stats returns a copy of the link's protocol counters.
func (l *ReliableLink) Stats() LinkStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Retransmit re-sends every unacknowledged event, in order, through the
// inner transport. One round; the transport may lose them again.
func (l *ReliableLink) Retransmit() {
	l.mu.Lock()
	batch := append([]Event(nil), l.unacked...)
	l.stats.Retransmits += len(batch)
	l.mu.Unlock()
	for _, ev := range batch {
		l.inner.Send(ev, l.to)
	}
	if f, ok := l.inner.(flusher); ok {
		f.Flush()
	}
}

// Flush models the sender's retransmit timer firing in virtual time: it
// retransmits until the unacked buffer drains, and if maxFlushAttempts
// rounds are not enough (pathological loss) it falls back to a snapshot
// resync so the receiver converges regardless.
func (l *ReliableLink) Flush(at vtime.Time) {
	for attempt := 0; attempt < maxFlushAttempts; attempt++ {
		l.mu.Lock()
		n := len(l.unacked)
		l.mu.Unlock()
		if n == 0 {
			return
		}
		l.Retransmit()
	}
	l.mu.Lock()
	n := len(l.unacked)
	l.mu.Unlock()
	if n != 0 {
		l.Resync(at)
	}
}

// Resync reconstructs the receiver's view of this link from the
// sender's current active set: the receiver drops every entry it holds
// on behalf of this link that the sender no longer has active, adopts
// the ones it is missing, and fast-forwards its expected sequence
// number past everything sent so far. Stale retransmissions arriving
// afterwards are discarded as duplicates.
func (l *ReliableLink) Resync(at vtime.Time) {
	snap := l.from.SnapshotMatching(l.pattern)
	l.mu.Lock()
	l.stats.Resyncs++
	l.unacked = nil
	seq := l.nextSeq
	l.mu.Unlock()
	l.to.resyncFromLink(l, seq, snap, at)
}

// flusher is implemented by transports that buffer events (the
// reordering LossyTransport); Flush releases anything held.
type flusher interface{ Flush() }

// LossyTransport perturbs exported events per an injected fault plan:
// drop, duplicate, or one-slot adjacent reorder. A nil injector makes
// it a transparent passthrough. Inner defaults to SyncTransport.
type LossyTransport struct {
	Inner Transport
	Inj   *fault.Injector

	mu   sync.Mutex
	held *heldEvent
}

type heldEvent struct {
	ev Event
	to *SAS
}

func (t *LossyTransport) inner() Transport {
	if t.Inner == nil {
		return SyncTransport{}
	}
	return t.Inner
}

// Send applies the injector's verdict for this event. Reordered events
// are held in a one-slot buffer and delivered just after the next event
// (an adjacent swap); Flush releases a held event at a quiet point.
func (t *LossyTransport) Send(ev Event, to *SAS) {
	out := t.Inj.SAS()
	if out.Drop {
		return
	}
	t.mu.Lock()
	if h := t.held; h != nil {
		t.held = nil
		t.mu.Unlock()
		t.deliver(ev, to, out.Duplicate)
		t.deliver(h.ev, h.to, false)
		return
	}
	if out.Reorder {
		t.held = &heldEvent{ev: ev, to: to}
		t.mu.Unlock()
		return
	}
	t.mu.Unlock()
	t.deliver(ev, to, out.Duplicate)
}

func (t *LossyTransport) deliver(ev Event, to *SAS, dup bool) {
	t.inner().Send(ev, to)
	if dup {
		t.inner().Send(ev, to)
	}
}

// Flush delivers a held (reordered) event, if any.
func (t *LossyTransport) Flush() {
	t.mu.Lock()
	h := t.held
	t.held = nil
	t.mu.Unlock()
	if h != nil {
		t.inner().Send(h.ev, h.to)
	}
}

// linkState is the receiver side of one ReliableLink: the next expected
// sequence number and a buffer of events that arrived ahead of a gap.
type linkState struct {
	expect  uint64
	pending map[uint64]Event
}

// linkStateLocked returns (creating on first use) the receiver-side state
// for a link. Called with structMu held.
func (s *SAS) linkStateLocked(l *ReliableLink) *linkState {
	if s.links == nil {
		s.links = make(map[*ReliableLink]*linkState)
	}
	ls, ok := s.links[l]
	if !ok {
		ls = &linkState{expect: 1, pending: make(map[uint64]Event)}
		s.links[l] = ls
	}
	return ls
}

// applyReliable is the receiver's half of the protocol: discard
// duplicates, apply in-order events (plus any buffered successors they
// unblock), buffer out-of-order events, and acknowledge cumulatively.
// A gap past gapResyncThreshold triggers a snapshot resync when the
// link allows it.
func (s *SAS) applyReliable(ev Event) {
	l := ev.via
	s.structMu.Lock()
	ls := s.linkStateLocked(l)
	switch {
	case ev.Seq < ls.expect:
		s.structMu.Unlock()
		l.noteDuplicate()
		return
	case ev.Seq > ls.expect:
		_, have := ls.pending[ev.Seq]
		ls.pending[ev.Seq] = ev
		overflow := s.links != nil && l.autoResync && len(ls.pending) >= gapResyncThreshold
		s.structMu.Unlock()
		if have {
			l.noteDuplicate()
		} else {
			l.noteGap()
		}
		if overflow {
			l.Resync(ev.At)
		}
		return
	}
	var apply []Event
	apply = append(apply, ev)
	ls.expect++
	for {
		nxt, ok := ls.pending[ls.expect]
		if !ok {
			break
		}
		delete(ls.pending, ls.expect)
		apply = append(apply, nxt)
		ls.expect++
	}
	ackTo := ls.expect - 1
	s.structMu.Unlock()
	for _, e := range apply {
		s.applyReliableEvent(l, e)
	}
	l.ack(ackTo)
}

// applyReliableEvent applies one in-order exported event idempotently.
// Unlike local Activate, a repeated remote activation does not deepen
// the entry (remote sentences have no nesting: the sender's SAS already
// collapsed nesting to a single exported activation), and a remote
// deactivation only removes an entry this link created — replays after
// a resync are therefore harmless.
func (s *SAS) applyReliableEvent(l *ReliableLink, ev Event) {
	sn := nv.InternedPtr(&ev.Sentence)
	s.structMu.Lock()
	var pending []pendingSend
	sh := &s.act
	i := sh.find(nv.HandleOf(sn))
	s.stats.Notifications++
	switch {
	case ev.Active && i < 0:
		s.stats.Stored++
		sh.insert(sn, ev.At, 1, l)
		s.notifyQuestions(sn, ev.At, +1)
		pending = s.collectExports(nil, sn, ev.At, true)
	case !ev.Active && i >= 0 && sh.origin[i] == l:
		s.stats.Stored++
		sh.removeAt(i)
		s.notifyQuestions(sn, ev.At, -1)
		pending = s.collectExports(nil, sn, ev.At, false)
	default:
		// Idempotent no-op: re-activation of a live entry, or
		// deactivation of an entry we do not hold for this link.
		s.stats.Ignored++
	}
	s.structMu.Unlock()
	dispatch(pending)
}

// resyncFromLink reconciles this SAS's entries for link l against the
// sender's snapshot and fast-forwards the expected sequence number to
// lastSeq+1. Entries are applied in sorted key order so a resync is
// deterministic.
func (s *SAS) resyncFromLink(l *ReliableLink, lastSeq uint64, snap []ActiveSentence, at vtime.Time) {
	s.structMu.Lock()
	ls := s.linkStateLocked(l)
	ls.expect = lastSeq + 1
	ls.pending = make(map[uint64]Event)

	want := make(map[string]ActiveSentence, len(snap))
	for _, a := range snap {
		want[a.Sentence.Key()] = a
	}
	var drop []*nv.Sentence
	for j, sn := range s.act.sents {
		if s.act.origin[j] == l {
			if _, ok := want[sn.Key()]; !ok {
				drop = append(drop, sn)
			}
		}
	}
	var adopt []string
	for key, a := range want {
		p := nv.InternedPtr(&a.Sentence)
		if s.act.find(nv.HandleOf(p)) < 0 {
			adopt = append(adopt, key)
		}
	}
	sort.Slice(drop, func(i, j int) bool { return drop[i].Key() < drop[j].Key() })
	sort.Strings(adopt)

	var pending []pendingSend
	for _, sn := range drop {
		s.stats.Stored++
		// Re-find by handle: earlier drops may have swap-moved the row.
		s.act.removeAt(s.act.find(nv.HandleOf(sn)))
		s.notifyQuestions(sn, at, -1)
		pending = s.collectExports(pending, sn, at, false)
	}
	for _, key := range adopt {
		a := want[key]
		sn := nv.InternedPtr(&a.Sentence)
		s.stats.Stored++
		s.act.insert(sn, a.Since, 1, l)
		s.notifyQuestions(sn, at, +1)
		pending = s.collectExports(pending, sn, at, true)
	}
	s.structMu.Unlock()
	dispatch(pending)
}

// SnapshotMatching returns the active sentences matching pattern,
// sorted like Snapshot. This is the sender's contribution to a
// snapshot resync.
func (s *SAS) SnapshotMatching(pattern Term) []ActiveSentence {
	s.structMu.Lock()
	out := s.act.appendRows(nil, func(row int) bool { return pattern.Matches(*s.act.sents[row]) })
	s.structMu.Unlock()
	sortSnapshot(out)
	return out
}
