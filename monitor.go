package nvmap

import (
	"strconv"
	"strings"
	"sync"

	"nvmap/internal/cmf"
	"nvmap/internal/cmrts"
	"nvmap/internal/dyninst"
	"nvmap/internal/machine"
	"nvmap/internal/nv"
	"nvmap/internal/paradyn"
	"nvmap/internal/pifgen"
	"nvmap/internal/sas"
	"nvmap/internal/vtime"
)

// HPF-level verbs of the monitor's sentences, mirroring Figure 5's
// sentences ("line #1 executes", "A sums", "Processor sends a message").
const (
	verbExecutes nv.VerbID = "Executes"
	verbSums     nv.VerbID = "Sums"
	verbMaxvals  nv.VerbID = "Maxvals"
	verbMinvals  nv.VerbID = "Minvals"
	verbSends    nv.VerbID = "Sends"
	// verbRoutes is the HW-level verb of link-traffic sentences: one
	// {link_hwA_hwB Routes} event fires per interconnect link a message
	// crosses. Matches pifgen.VerbRoutes so the monitor's vocabulary
	// agrees with the session's PIF.
	verbRoutes nv.VerbID = nv.VerbID(pifgen.VerbRoutes)
)

func verbForIntrinsic(intr string) nv.VerbID {
	switch intr {
	case "SUM":
		return verbSums
	case "MAXVAL":
		return verbMaxvals
	case "MINVAL":
		return verbMinvals
	default:
		// E.g. CSHIFT -> "Cshifts".
		return nv.VerbID(intr[:1] + strings.ToLower(intr[1:]) + "s")
	}
}

// Monitor is the monitoring code of Section 4.2 packaged for library
// users: dyninst snippets that notify the session's per-node SASes when
// high-level sentences (statement executes, array reduces) become
// active, and that measure the low-level send events against registered
// questions. The SASes are the tool's (Session.Tool.SASes): one per node,
// holding the sentences of every level, so the monitor's sentences and
// the tool's gating sentences are active side by side as in the paper's
// Figure 5. Build one with Session.EnableSASMonitor before Run; ask
// questions with Ask.
type Monitor struct {
	session *Session
	// Model describes the levels and verbs for snapshot formatting.
	Model *nv.Registry
	// Snapshot captures the first per-node SAS snapshot taken while a
	// send fires with the trigger pattern active.
	Snapshot     []sas.ActiveSentence
	snapshotWant sas.Term
	sendStart    []vtime.Time
	// sendSents caches {Processor_n Sends} per node: the send snippets
	// fire on every message, and rendering the noun name with Sprintf
	// each time was a measurable slice of the Figure 6 run.
	sendSents []nv.Sentence
	// linkSents holds {link Routes} per interconnect link, under both
	// directions of the link (the noun is undirected), so a routed
	// message looks its hops up instead of rendering a noun name per hop.
	linkSents map[machine.Link]nv.Sentence
	// links holds the reliable cross-node links created with
	// ExportReliable, in creation order, for the degradation report.
	links []*sas.ReliableLink
}

// EnableSASMonitor installs Set-of-Active-Sentences monitoring on the
// session. Call it before Run, then register questions with Ask; answers
// aggregate over all nodes' SASes. The sentences it maintains per node:
//
//	{lineN Executes}            while the statement's block runs
//	{A Sums} / {B Maxvals} ...  while a reduction block for that array runs
//	{Processor_n Sends}         during each point-to-point send (also
//	                            recorded as a measured event with its span)
//	{link Routes}               an event per interconnect link a message
//	                            crosses, when the machine has a topology
//
// filter enables relevance filtering on the session's SASes: activation
// notifications no registered question could match are not stored
// (Section 4.2.4's size-reduction discussion). The tool's gating
// sentences are always kept. The monitor is installed once: a later call
// returns the same Monitor, and the first call's filter stands.
func (s *Session) EnableSASMonitor(filter bool) *Monitor {
	if s.monitor != nil {
		return s.monitor
	}
	reg := s.Tool.SASes
	if filter {
		reg.SetFilter(true)
	}
	m := &Monitor{
		session:   s,
		Model:     nv.NewRegistry(),
		sendStart: make([]vtime.Time, s.Machine.Nodes()),
		sendSents: make([]nv.Sentence, s.Machine.Nodes()),
		linkSents: make(map[machine.Link]nv.Sentence),
	}
	for n := range m.sendSents {
		m.sendSents[n] = sendSentence(n)
	}
	s.monitor = m
	_ = m.Model.AddLevel(nv.Level{ID: "HPF", Name: "HPF", Rank: nv.RankCMF})
	_ = m.Model.AddLevel(nv.Level{ID: nv.LevelIDCMRTS, Name: string(nv.LevelIDCMRTS), Rank: nv.RankCMRTS})
	_ = m.Model.AddLevel(nv.Level{ID: nv.LevelIDBase, Name: string(nv.LevelIDBase), Rank: nv.RankBase})
	for _, v := range []nv.VerbID{verbExecutes, verbSums, verbMaxvals, verbMinvals} {
		_ = m.Model.AddVerb(nv.Verb{ID: v, Level: "HPF"})
	}
	// The tool's gating sentences share the SAS, so a snapshot names
	// their level too.
	for _, v := range []nv.VerbID{paradyn.VerbBlockExec, paradyn.VerbArrayActive} {
		_ = m.Model.AddVerb(nv.Verb{ID: v, Level: nv.LevelIDCMRTS})
	}
	_ = m.Model.AddVerb(nv.Verb{ID: verbSends, Level: nv.LevelIDBase})

	// Statement and array activity from the node code blocks.
	for _, blk := range s.Program.Blocks {
		vocab := m.blockSentences(blk)
		sentences := vocab.sents
		s.Inst.Insert(dyninst.Entry(blk.Name), dyninst.Snippet{
			Name: vocab.nameAct,
			Do: func(ctx dyninst.Context) {
				reg.Node(ctx.Node).ActivateAll(sentences, ctx.Now)
			},
		})
		s.Inst.Insert(dyninst.Exit(blk.Name), dyninst.Snippet{
			Name: vocab.nameDeact,
			Do: func(ctx dyninst.Context) {
				_ = reg.Node(ctx.Node).DeactivateAll(sentences, ctx.Now)
			},
		})
	}

	// Send events from the runtime.
	s.Inst.Insert(dyninst.Entry(cmrts.RoutineSend), dyninst.Snippet{
		Name: "sas: send begins",
		Do: func(ctx dyninst.Context) {
			node := reg.Node(ctx.Node)
			sn := m.sendSents[ctx.Node]
			m.sendStart[ctx.Node] = ctx.Now
			node.Activate(sn, ctx.Now)
			if m.Snapshot == nil && m.snapshotWant.Verb != "" {
				for _, a := range node.Snapshot() {
					if m.snapshotWant.Matches(a.Sentence) {
						m.Snapshot = node.Snapshot()
						break
					}
				}
			}
		},
	})
	s.Inst.Insert(dyninst.Exit(cmrts.RoutineSend), dyninst.Snippet{
		Name: "sas: send ends",
		Do: func(ctx dyninst.Context) {
			node := reg.Node(ctx.Node)
			sn := m.sendSents[ctx.Node]
			_ = node.Deactivate(sn, ctx.Now)
			start := m.sendStart[ctx.Node]
			node.RecordEvent(sn, ctx.Now, 1)
			node.RecordSpan(sn, start, ctx.Now, ctx.Now.Sub(start))
		},
	})

	// Link traffic from the interconnect, when the machine has a
	// topology: every link a message crosses fires a {link Routes} event
	// on the sender's SAS. The route happens inside the runtime's send
	// routine, so {lineN Executes} and {Processor_n Sends} are active and
	// questions like "which statement causes cross-link traffic" pair the
	// hardware sentence with the source statement for free.
	if topo := s.Machine.Topology(); topo != nil {
		_ = m.Model.AddLevel(nv.Level{
			ID: nv.LevelIDHardware, Name: string(nv.LevelIDHardware), Rank: nv.RankHardware})
		_ = m.Model.AddVerb(nv.Verb{ID: verbRoutes, Level: nv.LevelIDHardware})
		// Resolve every link sentence up front, so the route hook only
		// reads linkSents.
		for _, l := range topo.Links() {
			m.linkSentence(l)
		}
		s.Machine.OnRoute(func(from, to, bytes int, links []machine.Link, at vtime.Time) {
			node := reg.Node(from)
			for _, l := range links {
				node.RecordEvent(m.linkSentence(l), at, 1)
			}
		})
	}

	return m
}

// linkSentence returns {link Routes} for an interconnect link, resolving
// it (for both directions) on first sight; EnableSASMonitor resolves
// every link of the topology before the run.
func (m *Monitor) linkSentence(l machine.Link) nv.Sentence {
	sn, ok := m.linkSents[l]
	if !ok {
		sn = nv.NewSentence(verbRoutes, nv.NounID(pifgen.LinkNoun(l)))
		m.linkSents[l] = sn
		m.linkSents[machine.Link{From: l.To, To: l.From}] = sn
	}
	return sn
}

// blockVocab is the cached sentence set and verb vocabulary a block's
// execution activates. Compiled programs (and so their block pointers)
// are shared across sessions by the compile cache, and the sentences
// depend only on the block, so the set is built once per block and its
// verbs re-registered into each session's model.
type blockVocab struct {
	sents []nv.Sentence
	verbs []nv.VerbID
	// Snippet names for the block's entry/exit instrumentation; built
	// here so per-session wiring skips the string concatenation.
	nameAct   string
	nameDeact string
}

var blockVocabCache struct {
	sync.Mutex
	m map[*cmf.Block]*blockVocab
}

// blockSentences returns the block's cached vocabulary (sentences its
// execution activates plus instrumentation labels), registering its
// verbs in the monitor's model — the only part of the model snapshot
// formatting reads.
func (m *Monitor) blockSentences(b *cmf.Block) *blockVocab {
	blockVocabCache.Lock()
	v, ok := blockVocabCache.m[b]
	if !ok {
		v = buildBlockVocab(b)
		if blockVocabCache.m == nil || len(blockVocabCache.m) >= 256 {
			blockVocabCache.m = make(map[*cmf.Block]*blockVocab)
		}
		blockVocabCache.m[b] = v
	}
	blockVocabCache.Unlock()
	for _, verb := range v.verbs {
		if _, ok := m.Model.Verb(verb); !ok {
			_ = m.Model.AddVerb(nv.Verb{ID: verb, Level: "HPF"})
		}
	}
	return v
}

func buildBlockVocab(b *cmf.Block) *blockVocab {
	v := &blockVocab{}
	for _, line := range b.Lines {
		v.sents = append(v.sents, nv.NewSentence(verbExecutes, nv.NounID("line"+strconv.Itoa(line))))
	}
	if b.Kind == cmf.KindReduce || b.Kind == cmf.KindTransform {
		verb := verbForIntrinsic(b.Intrinsic)
		for _, arr := range b.Arrays {
			v.sents = append(v.sents, nv.NewSentence(verb, nv.NounID(arr)))
			v.verbs = append(v.verbs, verb)
		}
	}
	v.nameAct = "sas: activate " + b.Name
	v.nameDeact = "sas: deactivate " + b.Name
	return v
}

// sendSentCache memoizes {Processor_n Sends} sentences by node index:
// the sentence (and its formatted noun) depends only on the node number,
// and every session re-derives one per node.
var sendSentCache struct {
	sync.Mutex
	sents []nv.Sentence
}

func sendSentence(node int) nv.Sentence {
	c := &sendSentCache
	c.Lock()
	defer c.Unlock()
	for len(c.sents) <= node {
		n := len(c.sents)
		c.sents = append(c.sents,
			nv.NewSentence(verbSends, nv.NounID("Processor_"+strconv.Itoa(n))))
	}
	return c.sents[node]
}

// AskedQuestion is a performance question registered on every node's SAS.
type AskedQuestion struct {
	Question sas.Question
	reg      *sas.Registry
	id       sas.QuestionID
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
	reg := m.session.Tool.SASes
	id, err := reg.AddQuestionAll(q)
	if err != nil {
		return nil, err
	}
	return &AskedQuestion{Question: q, reg: reg, id: id}, nil
}

// Answer aggregates the question's result over every node as of now.
func (a *AskedQuestion) Answer(now vtime.Time) (sas.Result, error) {
	return a.reg.AggregateResult(a.id, now)
}

// SnapshotWhen arms the Figure 5 snapshot trigger: the first time a send
// fires on a node whose SAS holds a sentence matching pattern, that
// node's full snapshot is captured into m.Snapshot.
func (m *Monitor) SnapshotWhen(pattern sas.Term) { m.snapshotWant = pattern }
