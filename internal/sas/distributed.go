package sas

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"nvmap/internal/nv"
	"nvmap/internal/vtime"
)

// This file implements Section 4.2.3 of the paper: running the SAS on
// distributed-memory machines. The SAS is duplicated on each node, just as
// application code is duplicated for SPMD programs; each SAS operates
// independently as long as performance questions do not need information
// from several SASes. When a question does span nodes (the paper's
// client/server example: "server reads from disk, client query is
// active"), the node owning a remote sentence exports its activations to
// the node that evaluates the question.

// Event is one activation-state change exported between SASes.
type Event struct {
	Sentence nv.Sentence
	Active   bool
	At       vtime.Time
	// FromNode is the exporting SAS's node label.
	FromNode int
	// Seq is the per-link sequence number stamped by a ReliableLink
	// (zero on plain exports).
	Seq uint64
	// via identifies the ReliableLink that stamped the event; the
	// receiver uses it to find the matching sequencing state.
	via *ReliableLink
}

// Transport carries exported events between SASes. Implementations decide
// delivery semantics: the test transport delivers synchronously, while the
// machine-integrated transport routes events through the simulated
// network, adding latency like any other message.
type Transport interface {
	Send(ev Event, to *SAS)
}

// SyncTransport delivers exported events immediately (shared-memory
// semantics).
type SyncTransport struct{}

// Send applies the event to the destination SAS at once.
func (SyncTransport) Send(ev Event, to *SAS) { to.ApplyRemote(ev) }

type exportRule struct {
	pattern   Term
	to        *SAS
	transport Transport
}

// Export arranges for activation changes of sentences matching pattern to
// be forwarded to the SAS `to` via the transport. In the paper's example
// the client's SAS "would need to send one sentence (i.e., client query
// is active) to the server's SAS whenever that sentence became active or
// inactive" — pattern selects those sentences.
func (s *SAS) Export(pattern Term, to *SAS, transport Transport) error {
	if to == nil {
		return fmt.Errorf("sas: export needs a destination SAS")
	}
	if to == s {
		return fmt.Errorf("sas: cannot export to self")
	}
	if transport == nil {
		transport = SyncTransport{}
	}
	s.structMu.Lock()
	defer s.structMu.Unlock()
	s.exports = append(s.exports, exportRule{pattern: pattern, to: to, transport: transport})
	return nil
}

// pendingSend is an export decided under the lock but dispatched after it
// is released, so a synchronous transport may safely call into the
// destination SAS (including a destination that exports back to us).
type pendingSend struct {
	rule exportRule
	ev   Event
}

// collectExports matches an activation change against the export rules
// and appends the matching sends to out; active is the sentence's
// membership after the change (exports fire only on transitions, so the
// caller knows it). Called with structMu held.
func (s *SAS) collectExports(out []pendingSend, sn *nv.Sentence, at vtime.Time, active bool) []pendingSend {
	if len(s.exports) == 0 || s.replaying > 0 {
		return out
	}
	for _, r := range s.exports {
		if r.pattern.Matches(*sn) {
			out = append(out, pendingSend{rule: r, ev: Event{Sentence: *sn, Active: active, At: at, FromNode: s.node}})
		}
	}
	return out
}

func dispatch(pending []pendingSend) {
	for _, p := range pending {
		p.rule.transport.Send(p.ev, p.rule.to)
	}
}

// ApplyRemote applies an exported event from another SAS. Remote
// sentences participate in question evaluation exactly like local ones;
// the paper's model makes no distinction once the sentence has been
// communicated.
func (s *SAS) ApplyRemote(ev Event) {
	if ev.via != nil {
		// Sequenced event from a ReliableLink: dedup, reorder, ack.
		s.applyReliable(ev)
		return
	}
	if ev.Active {
		s.Activate(ev.Sentence, ev.At)
		return
	}
	// A remote deactivation for a sentence we never stored (e.g. the
	// question was added after the activation) is dropped silently: remote
	// traffic is advisory.
	_ = s.Deactivate(ev.Sentence, ev.At)
}

// Registry holds the per-node SASes of one parallel program, mirroring the
// SPMD duplication of application code.
type Registry struct {
	mu    sync.Mutex
	nodes map[int]*SAS
	// sorted is the SASes in node-id order. It is rebuilt — a fresh
	// slice, never mutated in place — each time a node materialises, so
	// a reader that grabbed it under mu may keep using it lock-free.
	sorted []*SAS
	// dense is a lock-free lookup table indexed by node id, rebuilt
	// alongside sorted while the ids stay small and non-negative (the
	// SPMD common case of nodes 0..N-1). Node() hits it without taking
	// mu — monitoring snippets resolve their SAS once per notification,
	// so the mutex was pure overhead on the hot path.
	dense atomic.Pointer[[]*SAS]
	opts  Options
	// keep is the verbs every SAS keeps under filtering (see Keep). It
	// only grows, so a SAS may share it.
	keep []nv.VerbHandle
	// asked remembers every question registered through AddQuestionAll,
	// in order, so ResetNode can re-register them after a crash with the
	// same sequentially assigned QuestionIDs.
	asked []Question
}

// NewRegistry returns a registry that creates per-node SASes with the
// given base options (the Node field is overridden per node).
func NewRegistry(opts Options) *Registry {
	return &Registry{nodes: make(map[int]*SAS), opts: opts}
}

// denseLimit bounds the dense lookup table: a registry with node ids
// past it (or negative) serves lookups from the map instead.
const denseLimit = 4096

// Node returns (creating on first use) the SAS for a node.
func (r *Registry) Node(node int) *SAS {
	if d := r.dense.Load(); d != nil && node >= 0 && node < len(*d) {
		if s := (*d)[node]; s != nil {
			return s
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.nodes[node]
	if !ok {
		o := r.opts
		o.Node = node
		s = New(o)
		s.keep = r.keep
		r.nodes[node] = s
		// Rebuild the sorted snapshot rather than inserting in place:
		// readers hold the old slice lock-free.
		out := make([]*SAS, 0, len(r.nodes))
		for _, x := range r.nodes {
			out = append(out, x)
		}
		slices.SortFunc(out, func(a, b *SAS) int { return a.node - b.node })
		r.sorted = out
		r.rebuildDenseLocked()
	}
	return s
}

// rebuildDenseLocked refreshes the lock-free node lookup table from the
// sorted snapshot. Registries with negative or very large node ids keep
// a nil table and fall back to the map.
func (r *Registry) rebuildDenseLocked() {
	maxNode := -1
	for _, s := range r.sorted {
		if s.node < 0 || s.node >= denseLimit {
			r.dense.Store(nil)
			return
		}
		if s.node > maxNode {
			maxNode = s.node
		}
	}
	d := make([]*SAS, maxNode+1)
	for _, s := range r.sorted {
		d[s.node] = s
	}
	r.dense.Store(&d)
}

// Nodes returns all materialised SASes sorted by node id. The slice is
// a shared immutable snapshot — callers must not modify it.
func (r *Registry) Nodes() []*SAS {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sorted
}

// AddQuestionAll registers the same question on every materialised SAS
// and returns the per-node IDs keyed by node. This supports the common
// SPMD pattern where all of Figure 6's questions "can be answered without
// sharing any information between nodes": each node accumulates its local
// share and the tool aggregates.
func (r *Registry) AddQuestionAll(q Question) (map[int]QuestionID, error) {
	if err := q.validate(); err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.asked = append(r.asked, q)
	r.mu.Unlock()
	ids := make(map[int]QuestionID)
	// Compile once: handles come from the process-wide interner, so the
	// compiled matching state is node-independent and every SAS shares
	// it instead of recompiling the pattern vector per node.
	cq := compileQuestion(q)
	for _, s := range r.Nodes() {
		id, err := s.addQuestion(q, cq)
		if err != nil {
			return nil, err
		}
		ids[s.node] = id
	}
	return ids, nil
}

// AggregateResult sums the per-node results of a question registered via
// AddQuestionAll. The fold walks nodes in id order, so when several
// nodes fail the lowest node id's error is the one reported.
func (r *Registry) AggregateResult(ids map[int]QuestionID, now vtime.Time) (Result, error) {
	var agg Result
	first := true
	for _, s := range r.Nodes() {
		id, ok := ids[s.node]
		if !ok {
			continue
		}
		res, err := s.Result(id, now)
		if err != nil {
			return Result{}, err
		}
		if first {
			agg.Question = res.Question
			first = false
		}
		agg.Count += res.Count
		agg.EventTime += res.EventTime
		agg.SatisfiedTime += res.SatisfiedTime
		agg.Satisfied = agg.Satisfied || res.Satisfied
	}
	return agg, nil
}

// SetFilter turns relevance filtering (Options.Filter) on or off for
// every materialised SAS and every later one.
func (r *Registry) SetFilter(on bool) {
	r.mu.Lock()
	r.opts.Filter = on
	nodes := r.sorted
	r.mu.Unlock()
	for _, s := range nodes {
		s.structMu.Lock()
		s.filter = on
		s.structMu.Unlock()
	}
}

// Keep marks verbs whose sentences relevance filtering never drops, on
// every materialised SAS and every later one: a consumer that reads the
// active set directly (Active, Snapshot) rather than through a question
// declares its verbs here.
func (r *Registry) Keep(verbs ...nv.VerbID) {
	r.mu.Lock()
	for _, v := range verbs {
		r.keep = append(r.keep, nv.DefaultInterner.Verb(v))
	}
	keep, nodes := r.keep, r.sorted
	r.mu.Unlock()
	for _, s := range nodes {
		s.structMu.Lock()
		s.keep = keep
		s.structMu.Unlock()
	}
}

// TotalStats sums the notification statistics over every node.
func (r *Registry) TotalStats() Stats {
	var t Stats
	for _, s := range r.Nodes() {
		st := s.Stats()
		t.Notifications += st.Notifications
		t.Ignored += st.Ignored
		t.Stored += st.Stored
		t.Evaluations += st.Evaluations
		t.Events += st.Events
		t.CandidatesScanned += st.CandidatesScanned
		t.MatchesEvaluated += st.MatchesEvaluated
	}
	return t
}

// ApplyRemoteAll applies one exported activation event to every
// materialised SAS except the exporter's own, in node-id order — the
// broadcast form of cross-node forwarding, for sentences every node's
// questions may need (the paper's duplicated-SAS model makes
// replication the common case).
func (r *Registry) ApplyRemoteAll(ev Event) {
	for _, s := range r.Nodes() {
		if s.node != ev.FromNode {
			s.ApplyRemote(ev)
		}
	}
}
