package nvmap

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"nvmap/internal/fault"
	"nvmap/internal/machine"
	"nvmap/internal/paradyn"
	"nvmap/internal/vtime"
)

// parallelWorkload is a data-heavy program: 32768-element arrays on 32
// nodes, so node-local regions dominate the event stream.
const parallelWorkload = `PROGRAM bigvec
REAL A(32768)
REAL B(32768)
REAL S
REAL T
FORALL (I = 1:32768) A(I) = 32769 - I
B = 1.0
B = A * 2.0 + B
S = SUM(A)
T = MAXVAL(B)
A = CSHIFT(A, 5)
B = B + A
S = SUM(B)
END
`

// sessionRun is everything observable about one session run: the full
// machine event stream with the global clock at each event, the final
// metric values, the elapsed time and the degradation report.
type sessionRun struct {
	events  []machine.Event
	globals []vtime.Time
	values  map[string]float64
	elapsed vtime.Duration
	report  string
}

func runObservedSession(plan *fault.Plan) (sessionRun, error) {
	var run sessionRun
	s, err := NewSession(parallelWorkload, WithNodes(32),
		WithSourceFile("bigvec.fcm"), WithFaults(plan))
	if err != nil {
		return run, err
	}
	s.Machine.Observe(func(e machine.Event) {
		run.events = append(run.events, e)
		run.globals = append(run.globals, s.Machine.GlobalNow())
	})
	ems := make(map[string]*paradyn.EnabledMetric)
	for _, id := range []string{"computation_time", "summation_time", "point_to_point_ops", "idle_time"} {
		em, err := s.Tool.EnableMetric(id, paradyn.WholeProgram())
		if err != nil {
			return run, err
		}
		ems[id] = em
	}
	rep, err := s.Run()
	if err != nil {
		return run, err
	}
	run.values = make(map[string]float64)
	for id, em := range ems {
		run.values[id] = em.Value(s.Now())
	}
	run.elapsed = s.Elapsed()
	run.report = rep.String()
	return run, nil
}

func assertRunsIdentical(t *testing.T, want, got sessionRun, label string) {
	t.Helper()
	if len(want.events) != len(got.events) {
		t.Fatalf("%s: %d events, reference has %d", label, len(got.events), len(want.events))
	}
	for i := range want.events {
		if want.events[i] != got.events[i] {
			t.Fatalf("%s: event %d differs\n  want: %+v\n   got: %+v",
				label, i, want.events[i], got.events[i])
		}
		if want.globals[i] != got.globals[i] {
			t.Fatalf("%s: GlobalNow at event %d: want %v, got %v",
				label, i, want.globals[i], got.globals[i])
		}
	}
	if want.elapsed != got.elapsed {
		t.Fatalf("%s: elapsed %v, reference %v", label, got.elapsed, want.elapsed)
	}
	if want.report != got.report {
		t.Fatalf("%s: degradation reports differ:\n%s\nvs\n%s", label, got.report, want.report)
	}
	for id, v := range want.values {
		if got.values[id] != v {
			t.Fatalf("%s: metric %s = %g, reference %g", label, id, got.values[id], v)
		}
	}
}

// TestSessionStreamDeterminism is the stack-level determinism contract: a
// whole session — compiler, machine, runtime, instrumentation, tool,
// daemon channel — produces a byte-identical event stream, clock trace,
// metric table and degradation report on every run and on any number
// of host threads, for fault-free and faulted runs alike.
func TestSessionStreamDeterminism(t *testing.T) {
	plans := []struct {
		name string
		plan func() *fault.Plan
	}{
		{"plain", func() *fault.Plan { return nil }},
		{"messages-slowdown", func() *fault.Plan {
			return &fault.Plan{
				Seed: 2026,
				Messages: fault.MessageFaults{
					DropProb: 0.1, DupProb: 0.05, DelayProb: 0.25, DelayMax: 30 * vtime.Microsecond,
				},
				Nodes: fault.NodeFaults{Slowdown: map[int]float64{2: 1.5, 17: 2.0}},
			}
		}},
		// Stalls consume one shared random stream in Compute order.
		{"stalls", func() *fault.Plan {
			return &fault.Plan{
				Seed:  2026,
				Nodes: fault.NodeFaults{StallProb: 0.2, StallFor: 5 * vtime.Microsecond},
			}
		}},
		{"crash", func() *fault.Plan {
			return &fault.Plan{
				Seed:    2026,
				Crashes: []fault.CrashFault{{Node: 3, At: 40 * 1000, Restart: 60 * vtime.Microsecond}},
			}
		}},
	}
	for _, tc := range plans {
		t.Run(tc.name, func(t *testing.T) {
			run := func() sessionRun {
				r, err := runObservedSession(tc.plan())
				if err != nil {
					t.Fatal(err)
				}
				return r
			}
			want := run()
			if len(want.events) == 0 {
				t.Fatal("no events observed")
			}
			assertRunsIdentical(t, want, run(), "second run")
			prev := runtime.GOMAXPROCS(1)
			defer runtime.GOMAXPROCS(prev)
			assertRunsIdentical(t, want, run(), "GOMAXPROCS(1) run")
		})
	}
}

// TestSessionsSafeAcrossGoroutines pins the property RunAllExperiments
// and the profiling daemon rely on: independent sessions over the same
// sources are safe and deterministic when driven from concurrent
// goroutines (the compile cache and the vocabulary interner are the
// only cross-session state). Run under -race in CI.
func TestSessionsSafeAcrossGoroutines(t *testing.T) {
	want, err := runObservedSession(nil)
	if err != nil {
		t.Fatal(err)
	}
	const concurrent = 4
	runs := make([]sessionRun, concurrent)
	errs := make([]error, concurrent)
	var wg sync.WaitGroup
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs[i], errs[i] = runObservedSession(nil)
		}()
	}
	wg.Wait()
	for i := range runs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		assertRunsIdentical(t, want, runs[i], fmt.Sprintf("goroutine %d", i))
	}
}
