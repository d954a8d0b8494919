package nvmap

// The benchmark's two hot-loop workloads rebuilt here from an inline
// source, so that each plane can be profiled and pinned without touching
// benchmark/: the fully instrumented events_hot session for the
// notification path (BenchmarkEventsHot, `make pprof-events`,
// TestNotificationPathAllocatesNothing) and the lightly instrumented
// data_hot session for the data plane — executor, cmrts, machine
// (BenchmarkDataHot, `make pprof-data`,
// TestWarmedLoopIterationAllocations).

import (
	"fmt"
	"io"
	"runtime"
	"slices"
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

// BenchmarkDataHot is one data_hot op per iteration: 8 nodes, 24
// iterations of the six-statement loop over 16k-element arrays (2,048
// elements per node), nvprof's four default metrics on the whole
// program, no mapping, no questions — session build, run, final sample.
func BenchmarkDataHot(b *testing.B) {
	source := hotLoopSource(8, 2048, 24)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := NewSession(source, WithNodes(8), WithOutput(io.Discard))
		if err != nil {
			b.Fatal(err)
		}
		for _, id := range []string{"summations", "summation_time", "point_to_point_ops", "idle_time"} {
			if _, err := s.Tool.EnableMetric(id, paradyn.WholeProgram()); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
		s.Tool.SampleAll(s.Now())
	}
}

// TestNotificationPathAllocatesNothing pins the steady-state
// notification path — dyninst fire, gating and monitor snippets, SAS —
// at zero allocations on a gated, monitored 4-node torus session that
// has run once (the warm-up): a dispatch entry+exit fire carrying a
// block and its array argument, entry+exit fires alternating between two
// blocks with different arguments (so the gating snippets re-resolve
// their sentences on every fire), a send entry+exit fire, and one
// message routed across the interconnect.
func TestNotificationPathAllocatesNothing(t *testing.T) {
	s, _ := hotSession(t, hotLoopSource(4, 4, 1), hotQuestions[1:3],
		WithNodes(4), WithTopology(machine.Topology{GridX: 2, GridY: 2, Torus: true}))
	// Borrow two real dispatches' tags and arguments for the fires below:
	// the first with array arguments, and one of another block whose
	// arguments differ.
	var dispatch, other dyninst.Context
	s.Inst.Insert(dyninst.Entry(cmrts.RoutineDispatch), dyninst.Snippet{
		Name: "test: capture two dispatches",
		Do: func(ctx dyninst.Context) {
			switch {
			case len(ctx.Args) == 0:
			case len(dispatch.Args) == 0:
				dispatch = ctx
				dispatch.Args = append([]string(nil), ctx.Args...)
			case len(other.Args) == 0 && ctx.Tag != dispatch.Tag && !slices.Equal(ctx.Args, dispatch.Args):
				other = ctx
				other.Args = append([]string(nil), ctx.Args...)
			}
		},
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(dispatch.Args) == 0 || len(other.Args) == 0 {
		t.Fatal("the warm-up run did not show two dispatches with different array arguments")
	}
	dispatch.Node, dispatch.Now = 0, s.Now()
	other.Node, other.Now = 0, s.Now()
	send := dyninst.Context{Node: 1, Now: s.Now(), Tag: dispatch.Tag, Bytes: 64}

	before := s.Tool.SASes.TotalStats()
	for _, c := range []struct {
		name string
		fire func()
	}{
		{"dispatch entry+exit fire", func() {
			s.Inst.Fire(dyninst.Entry(cmrts.RoutineDispatch), dispatch)
			s.Inst.Fire(dyninst.Exit(cmrts.RoutineDispatch), dispatch)
		}},
		{"alternating-block dispatch fires", func() {
			for _, d := range []dyninst.Context{dispatch, other} {
				s.Inst.Fire(dyninst.Entry(cmrts.RoutineDispatch), d)
				s.Inst.Fire(dyninst.Exit(cmrts.RoutineDispatch), d)
			}
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
	// The fires must have reached the session's SASes, or the pin pins
	// nothing.
	after := s.Tool.SASes.TotalStats()
	if after.Notifications == before.Notifications {
		t.Error("the fires produced no SAS notifications")
	}
	if after.Events == before.Events {
		t.Error("the send fires and the routed message recorded no SAS events")
	}
}

// TestWarmedLoopIterationAllocations pins what one more iteration of the
// six-statement hot loop allocates on 8 nodes once every statement has
// run: the argument slices the runtime's spans report (one per
// statement), and nothing per dispatch, per node or per element — no
// block argument strings, ID lists, reduction partials, evaluators or
// temporaries. It was 42 before the executor cached its programs and the
// runtime its scratch; it measures 6.
func TestWarmedLoopIterationAllocations(t *testing.T) {
	mallocs := func(iters int) uint64 {
		s, err := NewSession(hotLoopSource(8, 64, iters), WithNodes(8), WithOutput(io.Discard))
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	if per := float64(mallocs(101)-mallocs(1)) / 100; per > 12 {
		t.Errorf("a warmed loop iteration allocates %.1f times, want at most 12", per)
	}
}
