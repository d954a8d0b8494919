// hpfreduction walks through the paper's running example (Sections
// 4.2.1-4.2.2): the HPF fragment
//
//	1   ASUM = SUM(A)
//	2   BMAX = MAXVAL(B)
//
// is executed on a distributed-memory partition while monitoring code
// maintains per-node Sets of Active Sentences; the Figure 6 performance
// questions are answered, and the Figure 5 SAS snapshot is printed at the
// moment a message is sent as part of SUM(A).
package main

import (
	"fmt"
	"log"

	"nvmap"
	"nvmap/internal/cmrts"
	"nvmap/internal/dyninst"
	"nvmap/internal/nv"
	"nvmap/internal/sas"
	"nvmap/internal/vtime"
)

const program = `PROGRAM hpf
REAL A(512)
REAL B(512)
REAL ASUM
REAL BMAX
FORALL (I = 1:512) A(I) = I
FORALL (I = 1:512) B(I) = 2 * I
ASUM = SUM(A)
BMAX = MAXVAL(B)
END
`

func main() {
	s, err := nvmap.NewSession(program, nvmap.WithNodes(4), nvmap.WithSourceFile("hpf.fcm"))
	if err != nil {
		log.Fatal(err)
	}

	// Monitoring code, by hand: per-node SASes fed by instrumentation
	// snippets. (nvmap's experiment drivers wrap exactly this wiring; the
	// example spells it out.)
	sases := sas.NewRegistry(s.Machine.Nodes(), sas.Options{})
	model := nv.NewRegistry()
	if err := model.AddLevel(nv.Level{ID: "HPF", Rank: 2}); err != nil {
		log.Fatal(err)
	}
	if err := model.AddLevel(nv.Level{ID: "Base", Rank: 0}); err != nil {
		log.Fatal(err)
	}
	for _, v := range []nv.Verb{
		{ID: "Executes", Level: "HPF"}, {ID: "Sums", Level: "HPF"},
		{ID: "Maxvals", Level: "HPF"}, {ID: "Sends", Level: "Base"},
	} {
		if err := model.AddVerb(v); err != nil {
			log.Fatal(err)
		}
	}

	// Each node code block activates its statement sentence, and — for
	// reductions — the array-verb sentence ({A Sums}).
	for _, blk := range s.Program.Blocks {
		b := blk
		var sentences []nv.Sentence
		for _, line := range b.Lines {
			sentences = append(sentences,
				nv.NewSentence("Executes", nv.NounID(fmt.Sprintf("line%d", line))))
		}
		if b.Intrinsic == "SUM" {
			sentences = append(sentences, nv.NewSentence("Sums", nv.NounID(b.Arrays[0])))
		}
		if b.Intrinsic == "MAXVAL" {
			sentences = append(sentences, nv.NewSentence("Maxvals", nv.NounID(b.Arrays[0])))
		}
		s.Inst.Insert(dyninst.Entry(b.Name), dyninst.Snippet{Do: func(ctx dyninst.Context) {
			for _, sn := range sentences {
				sases.Node(ctx.Node).Activate(sn, ctx.Now)
			}
		}})
		s.Inst.Insert(dyninst.Exit(b.Name), dyninst.Snippet{Do: func(ctx dyninst.Context) {
			for _, sn := range sentences {
				_ = sases.Node(ctx.Node).Deactivate(sn, ctx.Now)
			}
		}})
	}

	// Low-level sends are the measured sentences; snapshot the SAS the
	// first time one fires while {A Sums} is active (Figure 5).
	var snapshot []sas.ActiveSentence
	sendStart := make([]vtime.Time, s.Machine.Nodes())
	s.Inst.Insert(dyninst.Entry(cmrts.RoutineSend), dyninst.Snippet{Do: func(ctx dyninst.Context) {
		node := sases.Node(ctx.Node)
		sn := nv.NewSentence("Sends", nv.NounID(fmt.Sprintf("Processor_%d", ctx.Node)))
		sendStart[ctx.Node] = ctx.Now
		node.Activate(sn, ctx.Now)
		if snapshot == nil && node.Active(nv.NewSentence("Sums", "A")) {
			snapshot = node.Snapshot()
		}
	}})
	s.Inst.Insert(dyninst.Exit(cmrts.RoutineSend), dyninst.Snippet{Do: func(ctx dyninst.Context) {
		node := sases.Node(ctx.Node)
		sn := nv.NewSentence("Sends", nv.NounID(fmt.Sprintf("Processor_%d", ctx.Node)))
		_ = node.Deactivate(sn, ctx.Now)
		node.RecordEvent(sn, ctx.Now, 1)
		node.RecordSpan(sn, sendStart[ctx.Node], ctx.Now, ctx.Now.Sub(sendStart[ctx.Node]))
	}})

	// The Figure 6 questions, registered on every node's SAS.
	questions := []sas.Question{
		sas.Q("{A Sums}", sas.T("Sums", "A")),
		sas.Q("{Processor_1 Sends}", sas.T("Sends", "Processor_1")),
		sas.Q("{A Sums}, {Processor_1 Sends}", sas.T("Sums", "A"), sas.T("Sends", "Processor_1")),
		sas.Q("{? Sums}, {Processor_1 Sends}", sas.T("Sums", sas.Any), sas.T("Sends", "Processor_1")),
	}
	ids := make([]sas.QuestionID, len(questions))
	for i, q := range questions {
		id, err := sases.AddQuestionAll(q)
		if err != nil {
			log.Fatal(err)
		}
		ids[i] = id
	}

	if _, err := s.Run(); err != nil {
		log.Fatal(err)
	}

	fmt.Println("The SAS when a message is sent during SUM(A):")
	fmt.Print(sas.FormatSnapshot(snapshot, model))
	fmt.Println("\nPerformance questions:")
	for i, q := range questions {
		agg, err := sases.AggregateResult(ids[i], s.Now())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-36s count=%3.0f  event time=%-10v gate time=%v\n",
			q.Label, agg.Count, agg.EventTime, agg.SatisfiedTime)
	}
}
