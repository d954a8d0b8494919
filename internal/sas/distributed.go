package sas

import (
	"fmt"
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
// SPMD duplication of application code: one SAS per node of a machine
// whose node count is fixed when the registry is built.
type Registry struct {
	nodes int
	// table is the node table: every node's SAS, carved from one slab
	// and published once, the first time anything needs a SAS. Node()
	// is then a lock-free index; until then Nodes() is empty, so a
	// reader (a metrics scrape, TotalStats) never creates one.
	table atomic.Pointer[[]*SAS]
	// mu guards table creation, opts, keep and nextID.
	mu   sync.Mutex
	opts Options
	// keep is the verbs every SAS keeps under filtering (see Keep). It
	// only grows, so a SAS may share it.
	keep []nv.VerbHandle
	// nextID is the id the next question asked of any of the registry's
	// SASes receives: a QuestionID names one question across every node.
	nextID QuestionID
}

// NewRegistry returns a registry of one SAS per node 0..nodes-1, built
// with the given base options (the Node field is set per node). No SAS
// exists until something needs one; then all of them are created
// together.
func NewRegistry(nodes int, opts Options) *Registry {
	return &Registry{nodes: nodes, opts: opts}
}

// Node returns the SAS of a node in [0, nodes); any other id panics.
func (r *Registry) Node(node int) *SAS {
	if t := r.table.Load(); t != nil {
		return (*t)[node]
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tableLocked()[node]
}

// tableLocked returns the node table, creating it on first use: every
// SAS from one slab, published once. Called with mu held.
func (r *Registry) tableLocked() []*SAS {
	if t := r.table.Load(); t != nil {
		return *t
	}
	slab := make([]SAS, r.nodes)
	t := make([]*SAS, r.nodes)
	for i := range slab {
		o := r.opts
		o.Node = i
		s := &slab[i]
		s.init(o)
		s.keep = r.keep
		s.reg = r
		t[i] = s
	}
	r.table.Store(&t)
	return t
}

// Nodes returns every node's SAS in node order, or nil while none has
// been needed. The slice is shared — callers must not modify it.
func (r *Registry) Nodes() []*SAS {
	if t := r.table.Load(); t != nil {
		return *t
	}
	return nil
}

// AddQuestionAll registers the same question on every node's SAS and
// returns its id, the same on every node. This supports the common SPMD
// pattern where all of Figure 6's questions "can be answered without
// sharing any information between nodes": each node accumulates its local
// share and the tool aggregates.
func (r *Registry) AddQuestionAll(q Question) (QuestionID, error) {
	if err := q.validate(); err != nil {
		return 0, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.addLocked(q, r.tableLocked()), nil
}

// addLocked registers q on each of nodes under the registry's next id.
// The pattern is compiled once — handles come from the process-wide
// interner, so the compiled state is node-independent — and the nodes'
// measurement states are carved from one slab. Holding mu across the
// installs keeps every node's ids, and so its posting lists, ascending.
func (r *Registry) addLocked(q Question, nodes []*SAS) QuestionID {
	id := r.nextID
	r.nextID++
	cq := compileQuestion(q)
	states := make([]questionState, len(nodes))
	for i, s := range nodes {
		states[i].init(id, q, cq)
		s.structMu.Lock()
		s.install(&states[i])
		s.structMu.Unlock()
	}
	return id
}

// AggregateResult sums every node's result for a question registered
// with AddQuestionAll. The fold walks nodes in id order, so when several
// nodes fail the lowest node's error is the one reported.
func (r *Registry) AggregateResult(id QuestionID, now vtime.Time) (Result, error) {
	var agg Result
	for i, s := range r.Nodes() {
		res, err := s.Result(id, now)
		if err != nil {
			return Result{}, fmt.Errorf("node %d: %w", s.node, err)
		}
		if i == 0 {
			agg.Question = res.Question
		}
		agg.Count += res.Count
		agg.EventTime += res.EventTime
		agg.SatisfiedTime += res.SatisfiedTime
		agg.Satisfied = agg.Satisfied || res.Satisfied
	}
	return agg, nil
}

// SetFilter turns relevance filtering (Options.Filter) on or off for
// every node's SAS, whether or not it exists yet.
func (r *Registry) SetFilter(on bool) {
	r.mu.Lock()
	r.opts.Filter = on
	r.mu.Unlock()
	for _, s := range r.Nodes() {
		s.structMu.Lock()
		s.filter = on
		s.structMu.Unlock()
	}
}

// Keep marks verbs whose sentences relevance filtering never drops, on
// every node's SAS, whether or not it exists yet: a consumer that reads
// the active set directly (Active, Snapshot) rather than through a
// question declares its verbs here.
func (r *Registry) Keep(verbs ...nv.VerbID) {
	r.mu.Lock()
	for _, v := range verbs {
		r.keep = append(r.keep, nv.DefaultInterner.Verb(v))
	}
	keep := r.keep
	r.mu.Unlock()
	for _, s := range r.Nodes() {
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

// ApplyRemoteAll applies one exported activation event to every node's
// SAS except the exporter's own, in node-id order — the
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
