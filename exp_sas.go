package nvmap

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"nvmap/internal/cmf"
	"nvmap/internal/cmrts"
	"nvmap/internal/dyninst"
	"nvmap/internal/machine"
	"nvmap/internal/nv"
	"nvmap/internal/oskernel"
	"nvmap/internal/pifgen"
	"nvmap/internal/sas"
	"nvmap/internal/vtime"
)

// hpfProgram is the paper's Figure 4 fragment with enough surrounding
// code to allocate and initialise the arrays:
//
//	1  ASUM = SUM(A)
//	2  BMAX = MAXVAL(B)
const hpfProgram = `PROGRAM hpf
REAL A(256)
REAL B(256)
REAL C(256)
REAL ASUM
REAL BMAX
REAL CSUM
FORALL (I = 1:256) A(I) = I
FORALL (I = 1:256) B(I) = 2 * I
FORALL (I = 1:256) C(I) = 3 * I
ASUM = SUM(A)
BMAX = MAXVAL(B)
CSUM = SUM(C)
END
`

// HPF-level verbs used by the SAS experiments, mirroring Figure 5's
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
// users: dyninst snippets that notify per-node SASes when high-level
// sentences (statement executes, array reduces) become active, and that
// measure the low-level send events against registered questions. Build
// one with Session.EnableSASMonitor before Run; ask questions with Ask.
type Monitor struct {
	session *Session
	Reg     *sas.Registry
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

// wireSAS is the internal constructor behind Session.EnableSASMonitor.
// It installs the monitoring instrumentation on a session. The
// sentences it maintains per node:
//
//	{lineN Executes}            while the statement's block runs
//	{A Sums} / {B Maxvals} ...  while a reduction block for that array runs
//	{Processor_n Sends}         during each point-to-point send (also
//	                            recorded as a measured event with its span)
func wireSAS(s *Session, filter bool) *Monitor {
	w := &Monitor{
		session: s,
		// The monitor's notifications all run on the driving goroutine
		// (dyninst snippets), so its SASes may record observability
		// spans when the session has a plane.
		Reg:       sas.NewRegistry(sas.Options{Filter: filter, Obs: s.obsPlane}),
		Model:     nv.NewRegistry(),
		sendStart: make([]vtime.Time, s.Machine.Nodes()),
		sendSents: make([]nv.Sentence, s.Machine.Nodes()),
		linkSents: make(map[machine.Link]nv.Sentence),
	}
	for n := range w.sendSents {
		w.sendSents[n] = sendSentence(n)
	}
	s.monitor = w
	if s.obsPlane != nil {
		registerSASCollectors(s.obsPlane.Metrics, "nvmap_sas", "monitor", w.Reg, s.Machine.Nodes)
	}
	_ = w.Model.AddLevel(nv.Level{ID: "HPF", Name: "HPF", Rank: 2})
	_ = w.Model.AddLevel(nv.Level{ID: "Base", Name: "Base", Rank: 0})
	for _, v := range []nv.VerbID{verbExecutes, verbSums, verbMaxvals, verbMinvals} {
		_ = w.Model.AddVerb(nv.Verb{ID: v, Level: "HPF"})
	}
	_ = w.Model.AddVerb(nv.Verb{ID: verbSends, Level: "Base"})

	// Statement and array activity from the node code blocks.
	for _, blk := range s.Program.Blocks {
		b := blk
		vocab := w.blockSentences(b)
		sentences := vocab.sents
		s.Inst.Insert(dyninst.Entry(b.Name), dyninst.Snippet{
			Name: vocab.nameAct,
			Do: func(ctx dyninst.Context) {
				w.Reg.Node(ctx.Node).ActivateAll(sentences, ctx.Now)
			},
		})
		s.Inst.Insert(dyninst.Exit(b.Name), dyninst.Snippet{
			Name: vocab.nameDeact,
			Do: func(ctx dyninst.Context) {
				_ = w.Reg.Node(ctx.Node).DeactivateAll(sentences, ctx.Now)
			},
		})
	}

	// Send events from the runtime.
	s.Inst.Insert(dyninst.Entry(cmrts.RoutineSend), dyninst.Snippet{
		Name: "sas: send begins",
		Do: func(ctx dyninst.Context) {
			node := w.Reg.Node(ctx.Node)
			sn := w.sendSents[ctx.Node]
			w.sendStart[ctx.Node] = ctx.Now
			node.Activate(sn, ctx.Now)
			if w.Snapshot == nil && w.snapshotWant.Verb != "" {
				for _, a := range node.Snapshot() {
					if w.snapshotWant.Matches(a.Sentence) {
						w.Snapshot = node.Snapshot()
						break
					}
				}
			}
		},
	})
	s.Inst.Insert(dyninst.Exit(cmrts.RoutineSend), dyninst.Snippet{
		Name: "sas: send ends",
		Do: func(ctx dyninst.Context) {
			node := w.Reg.Node(ctx.Node)
			sn := w.sendSents[ctx.Node]
			_ = node.Deactivate(sn, ctx.Now)
			start := w.sendStart[ctx.Node]
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
		_ = w.Model.AddLevel(nv.Level{
			ID: nv.LevelIDHardware, Name: string(nv.LevelIDHardware), Rank: nv.RankHardware})
		_ = w.Model.AddVerb(nv.Verb{ID: verbRoutes, Level: nv.LevelIDHardware})
		for hw := 0; hw < topo.HWNodes(); hw++ {
			// Register every link noun up front (same adjacency as
			// pifgen.FromTopology) so snapshot formatting and questions
			// can name them before traffic flows.
			x, y := topo.Coord(hw)
			var neighbours []int
			if x+1 < topo.GridX {
				neighbours = append(neighbours, topo.HWAt(x+1, y))
			} else if topo.Torus && topo.GridX > 2 {
				neighbours = append(neighbours, topo.HWAt(0, y))
			}
			if y+1 < topo.GridY {
				neighbours = append(neighbours, topo.HWAt(x, y+1))
			} else if topo.Torus && topo.GridY > 2 {
				neighbours = append(neighbours, topo.HWAt(x, 0))
			}
			for _, nb := range neighbours {
				noun := w.linkSentence(machine.Link{From: hw, To: nb}).Nouns[0]
				if _, ok := w.Model.Noun(noun); !ok {
					_ = w.Model.AddNoun(nv.Noun{ID: noun, Level: nv.LevelIDHardware})
				}
			}
		}
		s.Machine.OnRoute(func(from, to, bytes int, links []machine.Link, at vtime.Time) {
			node := w.Reg.Node(from)
			for _, l := range links {
				node.RecordEvent(w.linkSentence(l), at, 1)
			}
		})
	}
	return w
}

// linkSentence returns {link Routes} for an interconnect link, resolving
// it (for both directions) on first sight; wireSAS sees every link of
// the topology while registering the link nouns.
func (w *Monitor) linkSentence(l machine.Link) nv.Sentence {
	sn, ok := w.linkSents[l]
	if !ok {
		sn = nv.NewSentence(verbRoutes, nv.NounID(pifgen.LinkNoun(l)))
		w.linkSents[l] = sn
		w.linkSents[machine.Link{From: l.To, To: l.From}] = sn
	}
	return sn
}

// blockVocab is the cached sentence set and noun/verb vocabulary a
// block's execution activates. Compiled programs (and so their block
// pointers) are shared across sessions by the compile cache, and the
// sentences depend only on the block, so the set is built once per block
// and re-registered into each session's model.
type blockVocab struct {
	sents []nv.Sentence
	nouns []nv.NounID
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
// execution activates plus instrumentation labels), registering the
// nouns and verbs in the monitor's model.
func (w *Monitor) blockSentences(b *cmf.Block) *blockVocab {
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
	for _, noun := range v.nouns {
		if _, ok := w.Model.Noun(noun); !ok {
			_ = w.Model.AddNoun(nv.Noun{ID: noun, Level: "HPF"})
		}
	}
	for _, verb := range v.verbs {
		if _, ok := w.Model.Verb(verb); !ok {
			_ = w.Model.AddVerb(nv.Verb{ID: verb, Level: "HPF"})
		}
	}
	return v
}

func buildBlockVocab(b *cmf.Block) *blockVocab {
	v := &blockVocab{}
	for _, line := range b.Lines {
		noun := nv.NounID("line" + strconv.Itoa(line))
		v.sents = append(v.sents, nv.NewSentence(verbExecutes, noun))
		v.nouns = append(v.nouns, noun)
	}
	if b.Kind == cmf.KindReduce || b.Kind == cmf.KindTransform {
		verb := verbForIntrinsic(b.Intrinsic)
		for _, arr := range b.Arrays {
			v.sents = append(v.sents, nv.NewSentence(verb, nv.NounID(arr)))
			v.nouns = append(v.nouns, nv.NounID(arr))
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

// ExperimentFig5 regenerates Figures 4 and 5: running the HPF fragment
// and snapshotting a node's SAS at the moment a message is sent as part
// of SUM(A).
func ExperimentFig5() (string, error) {
	s, err := NewSession(hpfProgram, WithNodes(4), WithSourceFile("hpf.fcm"))
	if err != nil {
		return "", err
	}
	w := wireSAS(s, false)
	w.snapshotWant = sas.T(verbSums, sas.Any)
	if _, err := s.Run(); err != nil {
		return "", err
	}
	if w.Snapshot == nil {
		return "", fmt.Errorf("fig5: no send occurred while an array was being summed")
	}
	var b strings.Builder
	b.WriteString("HPF fragment (Figure 4):\n")
	b.WriteString("  1   ASUM = SUM(A)\n  2   BMAX = MAXVAL(B)\n\n")
	b.WriteString("The SAS when a message is sent during SUM(A) (Figure 5):\n\n")
	b.WriteString(indent(sas.FormatSnapshot(w.Snapshot, w.Model), "  "))
	b.WriteString("\n(each line represents one active sentence)\n")
	return b.String(), nil
}

// fig6Result carries one question's aggregated answer.
type fig6Result struct {
	Question string
	Meaning  string
	Count    float64
	Time     vtime.Duration
}

// runFig6 runs the HPF fragment with the Figure 6 questions registered on
// every node's SAS and returns the aggregated answers.
func runFig6(filter bool) ([]fig6Result, *Monitor, error) {
	s, err := NewSession(hpfProgram, WithNodes(4), WithSourceFile("hpf.fcm"))
	if err != nil {
		return nil, nil, err
	}
	w := wireSAS(s, filter)
	for n := 0; n < s.Machine.Nodes(); n++ {
		w.Reg.Node(n)
	}
	questions := []struct {
		q       sas.Question
		meaning string
	}{
		{sas.Q("{A Sums}", sas.T(verbSums, "A")),
			"Cost of summations of A?"},
		{sas.Q("{Processor_1 Sends}", sas.T(verbSends, "Processor_1")),
			"Cost of sends by processor 1?"},
		{sas.Q("{A Sums}, {Processor_1 Sends}", sas.T(verbSums, "A"), sas.T(verbSends, "Processor_1")),
			"Cost of sends by 1 while A is being summed?"},
		{sas.Q("{? Sums}, {Processor_1 Sends}", sas.T(verbSums, sas.Any), sas.T(verbSends, "Processor_1")),
			"Cost of sends by 1 while anything is being summed?"},
	}
	ids := make([]map[int]sas.QuestionID, len(questions))
	for i, q := range questions {
		m, err := w.Reg.AddQuestionAll(q.q)
		if err != nil {
			return nil, nil, err
		}
		ids[i] = m
	}
	if _, err := s.Run(); err != nil {
		return nil, nil, err
	}
	now := s.Now()
	out := make([]fig6Result, len(questions))
	for i, q := range questions {
		agg, err := w.Reg.AggregateResult(ids[i], now)
		if err != nil {
			return nil, nil, err
		}
		out[i] = fig6Result{
			Question: q.q.Label,
			Meaning:  q.meaning,
			Count:    agg.Count,
			Time:     agg.EventTime + agg.SatisfiedTime,
		}
	}
	return out, w, nil
}

// ExperimentFig6 regenerates Figure 6: the example performance questions,
// answered with measured values. Questions about sends report message
// counts and send time; the {A Sums} gate reports time A spent being
// summed.
func ExperimentFig6() (string, error) {
	results, _, err := runFig6(false)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-38s %-48s %8s  %s\n", "Performance question", "Meaning", "count", "time")
	for _, r := range results {
		fmt.Fprintf(&b, "%-38s %-48s %8.0f  %v\n", r.Question, r.Meaning, r.Count, r.Time)
	}
	b.WriteString("\n(4 nodes; each global reduction sends 3 tree messages, one of them by\n processor 1; A and C are summed, B takes a MAXVAL)\n")
	return b.String(), nil
}

// ExperimentFig7 regenerates Figure 7: the asynchronous-activation
// limitation, then the shadow-context remedy.
func ExperimentFig7() (string, error) {
	var b strings.Builder
	for _, shadows := range []bool{false, true} {
		s := sas.New(sas.Options{})
		qid, err := s.AddQuestion(sas.Q("kernel disk writes for func()",
			sas.T(oskernel.VerbExecutes, "func"),
			sas.T(oskernel.VerbDiskWrite, sas.Any)))
		if err != nil {
			return "", err
		}
		cfg := oskernel.DefaultConfig()
		cfg.Shadows = shadows
		sys, err := oskernel.New(cfg, s)
		if err != nil {
			return "", err
		}
		sys.CallFunc("func", func() {
			sys.Write(4096)
			sys.Write(4096)
		})
		sys.CallFunc("bystander", func() {
			sys.Write(512)
		})
		sys.RunKernel(sys.Now().Add(vtime.Second))
		res, err := s.Result(qid, sys.Now())
		if err != nil {
			return "", err
		}
		mode := "plain SAS (the paper's limitation)"
		if shadows {
			mode = "shadow contexts (our remedy)"
		}
		fmt.Fprintf(&b, "%s:\n", mode)
		fmt.Fprintf(&b, "  disk writes flushed: %d, attributed to func(): %.0f (want 2)\n",
			sys.Flushed, res.Count)
		fmt.Fprintf(&b, "  disk-write time charged to func(): %v\n\n", res.EventTime)
	}
	b.WriteString("The user process's write() returns before the kernel writes to disk,\n")
	b.WriteString("so the SAS never holds {func Executes} and {disk DiskWrite} together;\n")
	b.WriteString("capturing the active sentences at the write() handoff closes the gap.\n")
	return b.String(), nil
}

// AblationSASFilter quantifies limitation 2 of Section 4.2.4: activity
// notifications ignored by the SAS still cost their delivery; relevance
// filtering avoids storing them (and dynamic instrumentation could remove
// them entirely).
func AblationSASFilter() (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Questions ask only about A; the program also executes MAXVAL(B).\n\n")
	fmt.Fprintf(&b, "%-12s %14s %10s %10s %13s\n", "mode", "notifications", "ignored", "stored", "evaluations")
	for _, filter := range []bool{false, true} {
		results, w, err := runFig6filterAOnly(filter)
		if err != nil {
			return "", err
		}
		st := w.Reg.TotalStats()
		mode := "unfiltered"
		if filter {
			mode = "filtered"
		}
		fmt.Fprintf(&b, "%-12s %14d %10d %10d %13d\n",
			mode, st.Notifications, st.Ignored, st.Stored, st.Evaluations)
		// Answers must be identical either way.
		if results[0].Count != 3 {
			return "", fmt.Errorf("ablsas: sends during SUM(A) = %g, want 3", results[0].Count)
		}
	}
	b.WriteString("\nFiltering leaves every answer unchanged while storing only relevant\nsentences; the notification cost itself remains, as the paper notes.\n")
	return b.String(), nil
}

// runFig6filterAOnly runs the fragment with a single question about A.
func runFig6filterAOnly(filter bool) ([]fig6Result, *Monitor, error) {
	s, err := NewSession(hpfProgram, WithNodes(4), WithSourceFile("hpf.fcm"))
	if err != nil {
		return nil, nil, err
	}
	w := wireSAS(s, filter)
	for n := 0; n < s.Machine.Nodes(); n++ {
		w.Reg.Node(n)
	}
	ids, err := w.Reg.AddQuestionAll(sas.Q("sends during SUM(A)",
		sas.T(verbSums, "A"), sas.T(verbSends, sas.Any)))
	if err != nil {
		return nil, nil, err
	}
	if _, err := s.Run(); err != nil {
		return nil, nil, err
	}
	agg, err := w.Reg.AggregateResult(ids, s.Now())
	if err != nil {
		return nil, nil, err
	}
	return []fig6Result{{Question: "sends during SUM(A)", Count: agg.Count}}, w, nil
}

// AblationOrderedQuestions demonstrates limitation 3 of Section 4.2.4 and
// the Ordered extension: with unordered questions, "how many messages are
// sent for the summation of A" and "how many summations of A occur when
// messages are sent" are syntactically equivalent; ordering the terms
// distinguishes them.
func AblationOrderedQuestions() (string, error) {
	run := func(ordered bool) (sends float64, sums float64, err error) {
		s, err := NewSession(hpfProgram, WithNodes(4), WithSourceFile("hpf.fcm"))
		if err != nil {
			return 0, 0, err
		}
		w := wireSAS(s, false)
		for n := 0; n < s.Machine.Nodes(); n++ {
			w.Reg.Node(n)
		}
		qSends := sas.Question{
			Label:   "messages sent for summation of A",
			Terms:   []sas.Term{sas.T(verbSums, "A"), sas.T(verbSends, sas.Any)},
			Ordered: ordered,
		}
		qSums := sas.Question{
			Label:   "summations of A while messages are sent",
			Terms:   []sas.Term{sas.T(verbSends, sas.Any), sas.T(verbSums, "A")},
			Ordered: ordered,
		}
		idsSends, err := w.Reg.AddQuestionAll(qSends)
		if err != nil {
			return 0, 0, err
		}
		idsSums, err := w.Reg.AddQuestionAll(qSums)
		if err != nil {
			return 0, 0, err
		}
		if _, err := s.Run(); err != nil {
			return 0, 0, err
		}
		a1, err := w.Reg.AggregateResult(idsSends, s.Now())
		if err != nil {
			return 0, 0, err
		}
		a2, err := w.Reg.AggregateResult(idsSums, s.Now())
		if err != nil {
			return 0, 0, err
		}
		return a1.Count, a2.Count, nil
	}

	var b strings.Builder
	uSends, uSums, err := run(false)
	if err != nil {
		return "", err
	}
	oSends, oSums, err := run(true)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "Unordered questions (the paper's limitation):\n")
	fmt.Fprintf(&b, "  'messages sent for summation of A'         = %.0f\n", uSends)
	fmt.Fprintf(&b, "  'summations of A while messages are sent'  = %.0f  (identical semantics)\n\n", uSums)
	fmt.Fprintf(&b, "Ordered questions (the extension):\n")
	fmt.Fprintf(&b, "  'messages sent for summation of A'         = %.0f\n", oSends)
	fmt.Fprintf(&b, "  'summations of A while messages are sent'  = %.0f  (a SUM never begins inside a send)\n", oSums)
	if uSends != uSums {
		return "", fmt.Errorf("ablorder: unordered variants should agree, got %g vs %g", uSends, uSums)
	}
	if oSums != 0 {
		return "", fmt.Errorf("ablorder: ordered 'sums during send' should be 0, got %g", oSums)
	}
	return b.String(), nil
}
