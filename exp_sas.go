package nvmap

import (
	"fmt"
	"strings"

	"nvmap/internal/oskernel"
	"nvmap/internal/sas"
	"nvmap/internal/vtime"
)

// hpfProgram is the paper's Figure 4 fragment with enough surrounding
// code to allocate and initialise the arrays:
//
//	11  ASUM = SUM(A)
//	12  BMAX = MAXVAL(B)
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

// ExperimentFig5 regenerates Figures 4 and 5: running the HPF fragment
// and snapshotting a node's SAS at the moment a message is sent as part
// of SUM(A).
func ExperimentFig5() (string, error) {
	s, err := NewSession(hpfProgram, WithNodes(4), WithSourceFile("hpf.fcm"))
	if err != nil {
		return "", err
	}
	m := s.EnableSASMonitor(false)
	m.SnapshotWhen(sas.T(verbSums, sas.Any))
	if _, err := s.Run(); err != nil {
		return "", err
	}
	if m.Snapshot == nil {
		return "", fmt.Errorf("fig5: no send occurred while an array was being summed")
	}
	// The fragment's lines come from the source under their real numbers,
	// the ones its {lineN Executes} sentences carry.
	var b strings.Builder
	b.WriteString("HPF fragment (Figure 4):\n")
	for i, line := range strings.Split(hpfProgram, "\n") {
		if strings.HasPrefix(line, "ASUM =") || strings.HasPrefix(line, "BMAX =") {
			fmt.Fprintf(&b, "  %-3d %s\n", i+1, line)
		}
	}
	b.WriteString("\nThe SAS when a message is sent during SUM(A) (Figure 5):\n\n")
	b.WriteString(indent(sas.FormatSnapshot(m.Snapshot, m.Model), "  "))
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
func runFig6(filter bool) ([]fig6Result, error) {
	s, err := NewSession(hpfProgram, WithNodes(4), WithSourceFile("hpf.fcm"))
	if err != nil {
		return nil, err
	}
	m := s.EnableSASMonitor(filter)
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
	asked := make([]*AskedQuestion, len(questions))
	for i, q := range questions {
		if asked[i], err = m.AskQuestion(q.q); err != nil {
			return nil, err
		}
	}
	if _, err := s.Run(); err != nil {
		return nil, err
	}
	now := s.Now()
	out := make([]fig6Result, len(questions))
	for i, q := range questions {
		agg, err := asked[i].Answer(now)
		if err != nil {
			return nil, err
		}
		out[i] = fig6Result{
			Question: q.q.Label,
			Meaning:  q.meaning,
			Count:    agg.Count,
			Time:     agg.EventTime + agg.SatisfiedTime,
		}
	}
	return out, nil
}

// ExperimentFig6 regenerates Figure 6: the example performance questions,
// answered with measured values. Questions about sends report message
// counts and send time; the {A Sums} gate reports time A spent being
// summed.
func ExperimentFig6() (string, error) {
	results, err := runFig6(false)
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
		count, st, err := runFig6filterAOnly(filter)
		if err != nil {
			return "", err
		}
		mode := "unfiltered"
		if filter {
			mode = "filtered"
		}
		fmt.Fprintf(&b, "%-12s %14d %10d %10d %13d\n",
			mode, st.Notifications, st.Ignored, st.Stored, st.Evaluations)
		// Answers must be identical either way.
		if count != 3 {
			return "", fmt.Errorf("ablsas: sends during SUM(A) = %g, want 3", count)
		}
	}
	b.WriteString("\nFiltering leaves every answer unchanged while storing only relevant\nsentences; the notification cost itself remains, as the paper notes.\n")
	return b.String(), nil
}

// runFig6filterAOnly runs the fragment with a single question about A
// and returns its answer's count and the session's SAS statistics.
func runFig6filterAOnly(filter bool) (float64, sas.Stats, error) {
	s, err := NewSession(hpfProgram, WithNodes(4), WithSourceFile("hpf.fcm"))
	if err != nil {
		return 0, sas.Stats{}, err
	}
	q, err := s.EnableSASMonitor(filter).AskQuestion(sas.Q("sends during SUM(A)",
		sas.T(verbSums, "A"), sas.T(verbSends, sas.Any)))
	if err != nil {
		return 0, sas.Stats{}, err
	}
	if _, err := s.Run(); err != nil {
		return 0, sas.Stats{}, err
	}
	agg, err := q.Answer(s.Now())
	if err != nil {
		return 0, sas.Stats{}, err
	}
	return agg.Count, s.Tool.SASes.TotalStats(), nil
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
		m := s.EnableSASMonitor(false)
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
		askedSends, err := m.AskQuestion(qSends)
		if err != nil {
			return 0, 0, err
		}
		askedSums, err := m.AskQuestion(qSums)
		if err != nil {
			return 0, 0, err
		}
		if _, err := s.Run(); err != nil {
			return 0, 0, err
		}
		a1, err := askedSends.Answer(s.Now())
		if err != nil {
			return 0, 0, err
		}
		a2, err := askedSums.Answer(s.Now())
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
