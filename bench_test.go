package nvmap

// One benchmark per reproduced figure/table plus the ablation benches
// DESIGN.md calls out. These measure the *reproduction machinery* (host
// time); the experiments themselves report virtual time.

import (
	"runtime"
	"strings"
	"sync"
	"testing"

	"nvmap/internal/cmf"
	"nvmap/internal/mapping"
	"nvmap/internal/nv"
	"nvmap/internal/paradyn"
	"nvmap/internal/pifgen"
	"nvmap/internal/sas"
	"nvmap/internal/vtime"
)

// BenchmarkFig1MappingAssignment: the four-shape cost assignment of
// Figure 1 over a 64-source mapping graph.
func BenchmarkFig1MappingAssignment(b *testing.B) {
	t := mapping.NewTable()
	var ms []mapping.Measurement
	for i := 0; i < 64; i++ {
		src := nv.NewSentence("CPU", nv.NounID("F"+string(rune('a'+i%26)))+nv.NounID(string(rune('0'+i/26))))
		dst := nv.NewSentence("Executes", nv.NounID("L"+string(rune('a'+i%16))))
		_ = t.Add(mapping.Def{Source: src, Destination: dst})
		ms = append(ms, mapping.Measurement{Sentence: src, Cost: nv.Cost{Kind: nv.CostCount, Value: 1}})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := mapping.Assign(t, ms, mapping.Merge, mapping.AggSum); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2PIFPipeline: compile -> listing -> pifgen -> load, the
// full static mapping information pipeline of Figures 2/3.
func BenchmarkFig2PIFPipeline(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cp, err := cmf.CompileSource(figure2Program, cmf.Options{Fuse: true, SourceFile: "corr.fcm"})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := pifgen.FromListing(strings.NewReader(cp.Listing())); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5SASSnapshot: the SAS activation traffic and snapshot of
// Figure 5.
func BenchmarkFig5SASSnapshot(b *testing.B) {
	s := sas.New(sas.Options{})
	line := nv.NewSentence("Executes", "line1")
	sum := nv.NewSentence("Sums", "A")
	send := nv.NewSentence("Sends", "Processor_0")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		at := vtime.Time(i * 10)
		s.Activate(line, at)
		s.Activate(sum, at+1)
		s.Activate(send, at+2)
		_ = s.Snapshot()
		_ = s.Deactivate(send, at+3)
		_ = s.Deactivate(sum, at+4)
		_ = s.Deactivate(line, at+5)
	}
}

// BenchmarkFig6Questions: the full Figure 6 run — program execution with
// four questions registered across four per-node SASes.
func BenchmarkFig6Questions(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := runFig6(false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7ShadowAttribution: shadow capture + deferred attribution.
func BenchmarkFig7ShadowAttribution(b *testing.B) {
	s := sas.New(sas.Options{})
	_, _ = s.AddQuestion(sas.Q("q", sas.T("Executes", "func"), sas.T("DiskWrite", sas.Any)))
	fn := nv.NewSentence("Executes", "func")
	ev := nv.NewSentence("DiskWrite", "disk0")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		at := vtime.Time(i * 10)
		s.Activate(fn, at)
		sh := s.Capture(at + 1)
		_ = s.Deactivate(fn, at+2)
		s.RecordEventInContext(sh, ev, at+5, 1)
	}
}

// BenchmarkFig8WhereAxis: dynamic-mapping import and axis construction.
func BenchmarkFig8WhereAxis(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := NewSession(bowProgram, WithNodes(4), WithSourceFile("bow.fcm"))
		if err != nil {
			b.Fatal(err)
		}
		s.Tool.EnableDynamicMapping()
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
		if s.Tool.Axis.Render() == "" {
			b.Fatal("empty axis")
		}
	}
}

// BenchmarkFig9Metrics: the fully instrumented Figure 9 run (all 31
// metrics enabled).
func BenchmarkFig9Metrics(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := NewSession(fig9Workload, WithNodes(4), WithSourceFile("mixed.fcm"))
		if err != nil {
			b.Fatal(err)
		}
		for _, id := range s.Tool.Library().IDs() {
			if _, err := s.Tool.EnableMetric(id, paradyn.WholeProgram()); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchInstrumentation runs the Figure 9 workload with a given metric
// set; used by the ABL-DYN host-time benches.
func benchInstrumentation(b *testing.B, metricIDs []string) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := NewSession(fig9Workload, WithNodes(4))
		if err != nil {
			b.Fatal(err)
		}
		for _, id := range metricIDs {
			if _, err := s.Tool.EnableMetric(id, paradyn.WholeProgram()); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInstrumentationNone(b *testing.B) {
	benchInstrumentation(b, nil)
}

func BenchmarkInstrumentationDynamic(b *testing.B) {
	benchInstrumentation(b, []string{"summation_time", "point_to_point_ops"})
}

func BenchmarkInstrumentationAlwaysOn(b *testing.B) {
	var all []string
	s, err := NewSession(fig9Workload, WithNodes(1))
	if err != nil {
		b.Fatal(err)
	}
	all = s.Tool.Library().IDs()
	benchInstrumentation(b, all)
}

// BenchmarkSASNotification*: limitation 2 — the cost of notifications
// the SAS ignores, with and without relevance filtering.
func BenchmarkSASNotificationUnfiltered(b *testing.B) {
	benchSASNotification(b, false)
}

func BenchmarkSASNotificationFiltered(b *testing.B) {
	benchSASNotification(b, true)
}

func benchSASNotification(b *testing.B, filter bool) {
	b.Helper()
	s := sas.New(sas.Options{Filter: filter})
	_, _ = s.AddQuestion(sas.Q("onlyA", sas.T("Sums", "A")))
	irrelevant := nv.NewSentence("Maxvals", "B")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		at := vtime.Time(i * 2)
		s.Activate(irrelevant, at)
		_ = s.Deactivate(irrelevant, at+1)
	}
}

// BenchmarkSASShared vs BenchmarkSASPerNode: Section 4.2.3's argument for
// per-node SAS replication — real goroutine contention on one shared SAS
// versus independent per-node SASes.
func BenchmarkSASShared(b *testing.B) {
	s := sas.New(sas.Options{})
	_, _ = s.AddQuestion(sas.Q("q", sas.T("Work", sas.Any), sas.T("Tick", sas.Any)))
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		me := nv.NewSentence("Work", nv.NounID("g"))
		tick := nv.NewSentence("Tick", "t")
		i := 0
		for pb.Next() {
			at := vtime.Time(i * 4)
			s.Activate(me, at)
			s.RecordEvent(tick, at+1, 1)
			_ = s.Deactivate(me, at+2)
			i++
		}
	})
}

func BenchmarkSASPerNode(b *testing.B) {
	reg := sas.NewRegistry(runtime.GOMAXPROCS(0), sas.Options{})
	var mu sync.Mutex
	next := 0
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		mu.Lock()
		node := next
		next++
		mu.Unlock()
		s := reg.Node(node)
		_, _ = s.AddQuestion(sas.Q("q", sas.T("Work", sas.Any), sas.T("Tick", sas.Any)))
		me := nv.NewSentence("Work", nv.NounID("g"))
		tick := nv.NewSentence("Tick", "t")
		i := 0
		for pb.Next() {
			at := vtime.Time(i * 4)
			s.Activate(me, at)
			s.RecordEvent(tick, at+1, 1)
			_ = s.Deactivate(me, at+2)
			i++
		}
	})
}

// BenchmarkConsultantSearch: the full two-phase Performance Consultant
// search on a compute-heavy application.
func BenchmarkConsultantSearch(b *testing.B) {
	const prog = `PROGRAM heavy
REAL A(2048)
REAL B(2048)
REAL S
FORALL (I = 1:2048) A(I) = I
DO K = 1, 4
B = A * 2.0 + A * A
A = B * 0.5 + B
END DO
S = SUM(A)
END
`
	cp, err := cmf.CompileSource(prog, cmf.Options{SourceFile: "heavy.fcm"})
	if err != nil {
		b.Fatal(err)
	}
	_ = cp
	factory := func() (*paradyn.Tool, func() error, error) {
		s, err := NewSession(prog, WithNodes(4), WithSourceFile("heavy.fcm"))
		if err != nil {
			return nil, nil, err
		}
		run := func() error { _, err := s.Run(); return err }
		return s.Tool, run, nil
	}
	c := paradyn.NewConsultant()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Search(factory); err != nil {
			b.Fatal(err)
		}
	}
}

// sampleAllSession is the steady-state sampling fixture: four metrics
// enabled on the whole program of a four-node Figure 9 session, run to
// completion.
func sampleAllSession(tb testing.TB) *Session {
	tb.Helper()
	s, err := NewSession(fig9Workload, WithNodes(4))
	if err != nil {
		tb.Fatal(err)
	}
	ids := []string{"summations", "summation_time", "point_to_point_ops", "idle_time"}
	for _, id := range ids {
		if _, err := s.Tool.EnableMetric(id, paradyn.WholeProgram()); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := s.Run(); err != nil {
		tb.Fatal(err)
	}
	return s
}

// TestSampleAllAllocFree pins the sampling hot path at zero
// allocations: SampleAll reuses its batch buffer, reads columnar rows
// in place, and its SendBatch/DrainBatch round trip swaps the daemon
// channel's two arrays.
func TestSampleAllAllocFree(t *testing.T) {
	s := sampleAllSession(t)
	now := s.Now()
	if n := testing.AllocsPerRun(200, func() {
		now++
		s.Tool.SampleAll(now)
	}); n != 0 {
		t.Fatalf("SampleAll allocates %v per round, want 0", n)
	}
}

// BenchmarkSampleAll times the loop TestSampleAllAllocFree pins at 0
// allocs/op: one sampling round at advancing instants after the run
// completes.
func BenchmarkSampleAll(b *testing.B) {
	s := sampleAllSession(b)
	now := s.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now++
		s.Tool.SampleAll(now)
	}
}

// BenchmarkObsOverhead measures the observability plane's cost on the
// Figure 9 workload with a representative metric set. The obs=off
// sub-benchmark is the perturbation gate: the disabled plane is all
// nil-receiver checks, so enabling the feature in the codebase must not
// slow an unobserved session. obs=on shows the full span-recording
// price for comparison.
func BenchmarkObsOverhead(b *testing.B) {
	ids := []string{"summations", "summation_time", "point_to_point_ops", "idle_time"}
	for _, obsOn := range []bool{false, true} {
		name := "obs=off"
		if obsOn {
			name = "obs=on"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				opts := []Option{WithNodes(4)}
				if obsOn {
					opts = append(opts, WithObservability())
				}
				s, err := NewSession(fig9Workload, opts...)
				if err != nil {
					b.Fatal(err)
				}
				for _, id := range ids {
					if _, err := s.Tool.EnableMetric(id, paradyn.WholeProgram()); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := s.Run(); err != nil {
					b.Fatal(err)
				}
				s.Tool.SampleAll(s.Now())
			}
		})
	}
}
