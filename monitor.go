package nvmap

import (
	"fmt"

	"nvmap/internal/sas"
	"nvmap/internal/vtime"
)

// EnableSASMonitor installs Set-of-Active-Sentences monitoring on the
// session (statement, array-verb and send sentences per node, as in the
// paper's Sections 4.2 and 6). Call it before Run, then register
// questions with Ask; answers aggregate over all nodes' SASes.
//
// filter enables relevance filtering: activation notifications no
// registered question could match are not stored (Section 4.2.4's
// size-reduction discussion).
func (s *Session) EnableSASMonitor(filter bool) *Monitor {
	m := wireSAS(s, filter)
	// Materialise a SAS per node up front so questions asked before the
	// run cover the whole partition.
	for n := 0; n < s.Machine.Nodes(); n++ {
		m.Reg.Node(n)
	}
	return m
}

// AskedQuestion is a performance question registered on every node's SAS.
type AskedQuestion struct {
	Question sas.Question
	monitor  *Monitor
	ids      map[int]sas.QuestionID
}

// Ask registers a performance question written in the paper's notation —
// e.g. "{A Sums}, {Processor_1 Sends}", with "?" wildcards and an
// optional "[ordered]" suffix — on every node's SAS.
func (m *Monitor) Ask(label, text string) (*AskedQuestion, error) {
	q, err := sas.ParseQuestion(label, text)
	if err != nil {
		return nil, err
	}
	return m.AskQuestion(q)
}

// AskQuestion registers an already-built question on every node's SAS.
func (m *Monitor) AskQuestion(q sas.Question) (*AskedQuestion, error) {
	ids, err := m.Reg.AddQuestionAll(q)
	if err != nil {
		return nil, err
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("nvmap: no SASes materialised; use Session.EnableSASMonitor")
	}
	return &AskedQuestion{Question: q, monitor: m, ids: ids}, nil
}

// Answer aggregates the question's result over every node as of now.
func (a *AskedQuestion) Answer(now vtime.Time) (sas.Result, error) {
	return a.monitor.Reg.AggregateResult(a.ids, now)
}

// SnapshotWhen arms the Figure 5 snapshot trigger: the first time a send
// fires on a node whose SAS holds a sentence matching pattern, that
// node's full snapshot is captured into m.Snapshot.
func (m *Monitor) SnapshotWhen(pattern sas.Term) { m.snapshotWant = pattern }

// Stats sums notification statistics over every node's SAS. It is a
// thin shim over the same per-SAS counters the observability plane's
// registry collectors read (exp_sas.go registers them as
// nvmap_sas_*{sas="monitor"}), so the two views can never disagree.
func (m *Monitor) Stats() sas.Stats { return m.Reg.TotalStats() }
