package nvmap

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"nvmap/internal/machine"
	"nvmap/internal/paradyn"
	"nvmap/internal/vtime"
)

// governProgram does enough work — a DO loop of elementwise statements
// and reductions — that budget ceilings have room to trip mid-run.
const governProgram = `PROGRAM governed
REAL A(256)
REAL B(256)
REAL S
FORALL (I = 1:256) A(I) = I
DO K = 1, 20
  B = A * 2.0 + B
  S = SUM(B)
END DO
PRINT *, S
END
`

func mustSession(t *testing.T, opts ...Option) *Session {
	t.Helper()
	s, err := NewSession(governProgram, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRunContextBackgroundMatchesRun: an ungoverned RunContext installs
// no governor and produces the same answer as historical Run.
func TestRunContextBackgroundMatchesRun(t *testing.T) {
	a := mustSession(t, WithNodes(4))
	repA, errA := a.Run()
	b := mustSession(t, WithNodes(4))
	repB, errB := b.RunContext(context.Background())
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if repA.String() != repB.String() {
		t.Fatalf("reports differ:\n%s\n%s", repA, repB)
	}
	if a.Now() != b.Now() {
		t.Fatalf("clocks differ: %v vs %v", a.Now(), b.Now())
	}
	if repB.Cut != nil {
		t.Fatalf("ungoverned run reported a cut: %+v", repB.Cut)
	}
}

// TestRunContextPreCancelled: a context cancelled before Run settles
// immediately with a typed error and a report carrying the cut.
func TestRunContextPreCancelled(t *testing.T) {
	s := mustSession(t, WithNodes(2))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := s.RunContext(ctx)
	var serr *SessionError
	if !errors.As(err, &serr) {
		t.Fatalf("err = %v, want *SessionError", err)
	}
	if serr.Kind != ErrorCancelled || !errors.Is(err, context.Canceled) {
		t.Fatalf("kind %v, cause %v", serr.Kind, serr.Unwrap())
	}
	if rep == nil || rep.Cut == nil || rep.Cut.Kind != ErrorCancelled {
		t.Fatalf("report cut = %+v", rep.Cut)
	}
	if rep.Zero() {
		t.Fatal("cut report claims zero degradation")
	}
	if serr.At != s.Now() {
		t.Fatalf("cut instant %v, session at %v", serr.At, s.Now())
	}
}

// TestRunContextDeadline: an already-expired deadline cuts the run with
// ErrorDeadline unwrapping to context.DeadlineExceeded.
func TestRunContextDeadline(t *testing.T) {
	s := mustSession(t, WithNodes(2))
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := s.RunContext(ctx)
	var serr *SessionError
	if !errors.As(err, &serr) || serr.Kind != ErrorDeadline {
		t.Fatalf("err = %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cause %v", err)
	}
}

// TestBudgetMaxOpsCutIsDeterministic is the tentpole's determinism
// claim: the same budget cuts the same program at the same boundary and
// instant on every run, and the partial answer is typed with exact
// cut-time accounting.
func TestBudgetMaxOpsCutIsDeterministic(t *testing.T) {
	run := func() (*DegradationReport, *SessionError, vtime.Time) {
		s := mustSession(t, WithNodes(4), WithBudget(Budget{MaxOps: 200}))
		rep, err := s.RunContext(context.Background())
		var serr *SessionError
		if !errors.As(err, &serr) {
			t.Fatalf("err = %v, want *SessionError", err)
		}
		return rep, serr, s.Now()
	}
	rep1, err1, now1 := run()
	if err1.Kind != ErrorOverBudget || !errors.Is(err1, ErrBudgetExceeded) {
		t.Fatalf("kind %v cause %v", err1.Kind, err1.Unwrap())
	}
	if err1.Op == "" {
		t.Fatal("cut has no boundary operation")
	}
	if rep1.Cut == nil || rep1.Cut.At != err1.At {
		t.Fatalf("report cut %+v, error at %v", rep1.Cut, err1.At)
	}
	if rep1.Budget.Ops <= 200 {
		t.Fatalf("budget stats ops = %d, want > limit at the cut", rep1.Budget.Ops)
	}
	rep, serr, now := run()
	if serr.Op != err1.Op || serr.Node != err1.Node || serr.At != err1.At {
		t.Fatalf("second run cut %s/%d@%v, first cut %s/%d@%v",
			serr.Op, serr.Node, serr.At, err1.Op, err1.Node, err1.At)
	}
	if now != now1 {
		t.Fatalf("second run settled at %v, first at %v", now, now1)
	}
	if rep.String() != rep1.String() {
		t.Fatalf("reports differ:\n%s\n%s", rep, rep1)
	}
}

// TestBudgetVirtualTimeCut: the virtual-time ceiling cuts mid-run and
// the cut instant never exceeds... the next boundary past the ceiling.
func TestBudgetVirtualTimeCut(t *testing.T) {
	free := mustSession(t, WithNodes(4))
	if _, err := free.Run(); err != nil {
		t.Fatal(err)
	}
	total := free.Elapsed()
	s := mustSession(t, WithNodes(4), WithBudget(Budget{MaxVirtualTime: total / 2}))
	_, err := s.RunContext(context.Background())
	var serr *SessionError
	if !errors.As(err, &serr) || serr.Kind != ErrorOverBudget {
		t.Fatalf("err = %v", err)
	}
	if got := serr.At.Sub(0); got <= total/2 || got >= total {
		t.Fatalf("cut at %v, ceiling %v, full run %v", got, total/2, total)
	}
}

// TestBudgetGenerousCeilingIsInvisible: a budget nothing trips leaves
// the answer identical to an unbudgeted run — and the report non-zero
// only through its (informational) Budget.Ops accounting.
func TestBudgetGenerousCeilingIsInvisible(t *testing.T) {
	free := mustSession(t, WithNodes(4))
	freeRep, err := free.Run()
	if err != nil {
		t.Fatal(err)
	}
	s := mustSession(t, WithNodes(4), WithBudget(Budget{MaxOps: 1 << 40}))
	rep, err := s.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cut != nil || rep.Budget.Sheds != 0 {
		t.Fatalf("generous budget degraded the run: %+v", rep)
	}
	if !rep.Zero() {
		t.Fatalf("report not zero: %s", rep)
	}
	if s.Now() != free.Now() {
		t.Fatalf("budgeted clock %v, free clock %v", s.Now(), free.Now())
	}
	if freeRep.String() != rep.String() {
		t.Fatalf("reports differ")
	}
	if rep.Budget.Ops == 0 || rep.Budget.Checks == 0 {
		t.Fatalf("governor recorded nothing: %+v", rep.Budget)
	}
}

// TestPanicContainment: a panic from inside the measurement stack —
// here a machine observer that throws partway through the run — is
// contained into a typed ErrorPanic session error with a stack, the
// process survives, and the session stays readable afterwards.
func TestPanicContainment(t *testing.T) {
	s := mustSession(t, WithNodes(2))
	events := 0
	s.Machine.Observe(func(machine.Event) {
		events++
		if events == 40 {
			panic("observer boom")
		}
	})
	rep, err := s.RunContext(context.Background())
	var serr *SessionError
	if !errors.As(err, &serr) {
		t.Fatalf("err = %v, want *SessionError", err)
	}
	if serr.Kind != ErrorPanic || !errors.Is(err, ErrPanicked) {
		t.Fatalf("kind %v, cause %v", serr.Kind, serr.Unwrap())
	}
	if fmt.Sprint(serr.Panic) != "observer boom" {
		t.Fatalf("panic value %v", serr.Panic)
	}
	if len(serr.Stack) == 0 {
		t.Fatal("no stack captured")
	}
	if rep == nil || rep.Cut == nil || rep.Cut.Kind != ErrorPanic {
		t.Fatalf("report cut = %+v", rep.Cut)
	}
	if !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("rendering: %v", err)
	}
	// The session is still readable: the clock, the report printer and a
	// second (clean) session all keep working.
	_ = s.Now()
	_ = rep.String()
}

// TestWatchdogNoFalsePositive: a generous watchdog never trips on a
// healthy run.
func TestWatchdogNoFalsePositive(t *testing.T) {
	s := mustSession(t, WithNodes(4), WithWatchdog(time.Minute))
	rep, err := s.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cut != nil {
		t.Fatalf("watchdog cut a healthy run: %+v", rep.Cut)
	}
}

// TestWatchdogCatchesStall: an observer that blocks between operation
// boundaries trips the no-progress detector; the error names the last
// boundary and unwraps to ErrStalled.
func TestWatchdogCatchesStall(t *testing.T) {
	s := mustSession(t, WithNodes(2), WithWatchdog(30*time.Millisecond))
	events := 0
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	s.Machine.Observe(func(machine.Event) {
		events++
		if events == 40 {
			<-release // wedge the driving goroutine mid-run
		}
	})
	type result struct {
		err error
	}
	ch := make(chan result, 1)
	go func() {
		_, err := s.RunContext(context.Background())
		ch <- result{err}
	}()
	// The cooperative abort cannot fire while the goroutine is wedged;
	// release it once the watchdog has had ample time to post its
	// verdict, then the next boundary converts it into the typed error.
	time.Sleep(300 * time.Millisecond)
	release <- struct{}{}
	select {
	case r := <-ch:
		var serr *SessionError
		if !errors.As(r.err, &serr) || serr.Kind != ErrorStalled {
			t.Fatalf("err = %v, want stalled SessionError", r.err)
		}
		if !errors.Is(r.err, ErrStalled) {
			t.Fatalf("cause %v", r.err)
		}
		if !strings.Contains(r.err.Error(), "last boundary") {
			t.Fatalf("diagnostic missing boundary: %v", r.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run never returned")
	}
}

// TestBudgetShedDegradesBeforeFailing: a tight backlog ceiling first
// sheds sampling fidelity (recorded in Budget.Sheds and the report
// renderer) rather than cutting the run outright.
func TestBudgetShedDegradesBeforeFailing(t *testing.T) {
	s := mustSession(t, WithNodes(4),
		WithSampleEvery(vtime.Microsecond), // aggressive sampling load
		WithBudget(Budget{MaxChannelBacklog: 2}))
	// Sampling traffic exists only for enabled metrics; load the channel.
	for _, id := range []string{"computations", "computation_time", "summations", "summation_time"} {
		if _, err := s.Tool.EnableMetric(id, paradyn.WholeProgram()); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := s.RunContext(context.Background())
	if err != nil {
		// A cut is acceptable only after the ladder was exhausted.
		var serr *SessionError
		if !errors.As(err, &serr) || serr.Kind != ErrorOverBudget {
			t.Fatalf("err = %v", err)
		}
		if rep.Budget.Sheds == 0 {
			t.Fatalf("hard backlog failure without shedding first: %+v", rep.Budget)
		}
		return
	}
	if s.Tool.ShedLevel() == 0 || rep.Budget.Sheds == 0 {
		t.Fatalf("backlog ceiling of 2 under 4 sampled metrics never shed: %+v", rep.Budget)
	}
	if rep.Zero() {
		t.Fatal("shed run claims zero degradation")
	}
	if !strings.Contains(rep.String(), "budget: shed to level") {
		t.Fatalf("report does not render shedding:\n%s", rep)
	}
}

// TestActiveSentenceBudgetCountsMonitorSentences: MaxActiveSentences caps
// the summed active-set size of every node's SAS, and the monitor's
// sentences live in those SASes. A monitor-only session, with no gating,
// must be cut by a budget of one active sentence.
func TestActiveSentenceBudgetCountsMonitorSentences(t *testing.T) {
	s, err := NewSession(hpfProgram, WithNodes(4),
		WithBudget(Budget{MaxActiveSentences: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.EnableSASMonitor(false).Ask("", "{A Sums}"); err != nil {
		t.Fatal(err)
	}
	_, err = s.Run()
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("Run = %v, want ErrBudgetExceeded", err)
	}
}
