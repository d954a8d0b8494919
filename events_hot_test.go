package nvmap

// The fully instrumented session of the benchmark's events_hot workload,
// rebuilt here from an inline source so the notification path can be
// profiled (BenchmarkEventsHot, `make pprof-events`) and pinned
// (TestNotificationPathAllocatesNothing) without touching benchmark/.

import (
	"fmt"
	"strings"
	"testing"

	"nvmap/internal/cmrts"
	"nvmap/internal/dyninst"
	"nvmap/internal/machine"
	"nvmap/internal/paradyn"
)

// hotLoopSource emits the hot-loop program shape: iters iterations of
// six statements (two elementwise, SUM, CSHIFT, MAXVAL, DOT_PRODUCT)
// over arrays of chunk elements per node.
func hotLoopSource(nodes, chunk, iters int) string {
	size := nodes * chunk
	var sb strings.Builder
	sb.WriteString("PROGRAM hotloop\n")
	for _, a := range []string{"P", "Q", "W", "C"} {
		fmt.Fprintf(&sb, "REAL %s(%d)\n", a, size)
	}
	sb.WriteString("REAL SCHECK\nREAL SSUM\nREAL SMAX\nREAL SDOT\n")
	fmt.Fprintf(&sb, "FORALL (I = 1:%d) P(I) = I\n", size)
	fmt.Fprintf(&sb, "FORALL (I = 1:%d) Q(I) = 2 * I\n", size)
	fmt.Fprintf(&sb, "FORALL (I = 1:%d) W(I) = 3 * I\n", size)
	fmt.Fprintf(&sb, "FORALL (I = 1:%d) C(I) = I\n", size)
	fmt.Fprintf(&sb, "DO K = 1, %d\n", iters)
	sb.WriteString("P = Q * 0.5 + W * 0.25\nC = C + 3.0\nSSUM = SUM(C)\n")
	fmt.Fprintf(&sb, "Q = CSHIFT(Q, %d)\n", 2*chunk)
	sb.WriteString("SMAX = MAXVAL(P)\nSDOT = DOT_PRODUCT(Q, W)\nEND DO\n")
	sb.WriteString("SCHECK = SUM(C)\nPRINT *, SCHECK\nEND\n")
	return sb.String()
}

// hotQuestions are the four questions the events_hot workload asks.
var hotQuestions = []string{
	"{C Sums}",
	"{Processor_1 Sends}",
	"{C Sums}, {? Sends}",
	"{? Maxvals}, {? Sends}",
}

// hotSession builds a fully instrumented session over source: dynamic
// mapping and gating, every library metric on the whole program, and the
// SAS monitor (unfiltered) with the given questions.
func hotSession(tb testing.TB, source string, questions []string, opts ...Option) (*Session, []*AskedQuestion) {
	tb.Helper()
	s, err := NewSession(source, append([]Option{WithOutput(new(strings.Builder))}, opts...)...)
	if err != nil {
		tb.Fatal(err)
	}
	s.Tool.EnableDynamicMapping()
	s.Tool.EnableGating()
	for _, id := range s.Tool.Library().IDs() {
		if _, err := s.Tool.EnableMetric(id, paradyn.WholeProgram()); err != nil {
			tb.Fatal(err)
		}
	}
	mon := s.EnableSASMonitor(false)
	asked := make([]*AskedQuestion, len(questions))
	for i, text := range questions {
		if asked[i], err = mon.Ask("", text); err != nil {
			tb.Fatal(err)
		}
	}
	return s, asked
}

// BenchmarkEventsHot is one events_hot op per iteration: 32 nodes, 40
// iterations of the six-statement loop, all library metrics, mapping and
// gating, four questions — session build, run, final sample, answers.
func BenchmarkEventsHot(b *testing.B) {
	source := hotLoopSource(32, 4, 40)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, asked := hotSession(b, source, hotQuestions, WithNodes(32))
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
		now := s.Now()
		s.Tool.SampleAll(now)
		for _, q := range asked {
			r, err := q.Answer(now)
			if err != nil {
				b.Fatal(err)
			}
			if r.Count == 0 && r.SatisfiedTime == 0 {
				b.Fatalf("question %s saw nothing", q.Question)
			}
		}
	}
}

// TestNotificationPathAllocatesNothing pins the steady-state
// notification path — dyninst fire, gating and monitor snippets, SAS —
// at zero allocations on a gated, monitored 4-node torus session that
// has run once (the warm-up): a dispatch entry+exit fire carrying a
// block and its array argument, a send entry+exit fire, and one message
// routed across the interconnect.
func TestNotificationPathAllocatesNothing(t *testing.T) {
	s, _ := hotSession(t, hotLoopSource(4, 4, 1), hotQuestions[1:3],
		WithNodes(4), WithTopology(machine.Topology{GridX: 2, GridY: 2, Torus: true}))
	// Borrow a real dispatch's tag and arguments for the fires below.
	var dispatch dyninst.Context
	s.Inst.Insert(dyninst.Entry(cmrts.RoutineDispatch), dyninst.Snippet{
		Name: "test: capture a dispatch",
		Do: func(ctx dyninst.Context) {
			if len(dispatch.Args) == 0 && len(ctx.Args) > 0 {
				dispatch = ctx
				dispatch.Args = append([]string(nil), ctx.Args...)
			}
		},
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(dispatch.Args) == 0 {
		t.Fatal("no dispatch with array arguments seen during the warm-up run")
	}
	dispatch.Node, dispatch.Now = 0, s.Now()
	send := dyninst.Context{Node: 1, Now: s.Now(), Tag: dispatch.Tag, Bytes: 64}

	before := s.Tool.SASes.TotalStats().Notifications + s.monitor.Stats().Notifications
	events := s.monitor.Stats().Events
	for _, c := range []struct {
		name string
		fire func()
	}{
		{"dispatch entry+exit fire", func() {
			s.Inst.Fire(dyninst.Entry(cmrts.RoutineDispatch), dispatch)
			s.Inst.Fire(dyninst.Exit(cmrts.RoutineDispatch), dispatch)
		}},
		{"send entry+exit fire", func() {
			s.Inst.Fire(dyninst.Entry(cmrts.RoutineSend), send)
			s.Inst.Fire(dyninst.Exit(cmrts.RoutineSend), send)
		}},
		{"routed message", func() { s.Machine.Send(0, 3, 64, dispatch.Tag) }},
	} {
		if n := testing.AllocsPerRun(100, c.fire); n != 0 {
			t.Errorf("%s allocates %v times, want 0", c.name, n)
		}
	}
	// The fires must have reached both SAS registries, or the pin pins
	// nothing.
	if after := s.Tool.SASes.TotalStats().Notifications + s.monitor.Stats().Notifications; after == before {
		t.Error("the fires produced no SAS notifications")
	}
	if s.monitor.Stats().Events == events {
		t.Error("the send fires and the routed message recorded no SAS events")
	}
}
