package nvmap_test

// The chaos soak: randomized CM Fortran programs under randomized,
// composed fault plans (message loss, bounded channels, slowdowns,
// stalls, crashes) with governance layered on top (budgets, deadlines,
// the stall watchdog), each run end to end through the public API and
// checked against the robustness contract:
//
//   - no panic escapes the library: a contained panic is itself a
//     violation, and an escaped one is recovered here and reported;
//   - every session ends within the hang budget;
//   - every session ends in an answer, a partial answer carrying its
//     annotation, or a typed *nvmap.SessionError whose cut the
//     degradation report records;
//   - wall-clock-free scenarios are byte-deterministic: the same
//     scenario run twice yields identical metric values, final clocks
//     and report text.
//
// The generator's draws are the historical ones, so a failing seed
// filed against an earlier version of the soak still reproduces.

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"strings"
	"testing"
	"time"

	"nvmap"
	"nvmap/internal/fault"
	"nvmap/internal/paradyn"
	"nvmap/internal/vtime"
)

// The acceptance soak: seed 1, 500 sessions (iteration i uses seed+i),
// a one-minute hang budget per session.
const (
	soakSeed       = 1
	soakSessions   = 500
	soakHangBudget = 60 * time.Second
)

// TestSoak runs the acceptance soak. Outcome-class counts are logged,
// not pinned: a deadline scenario's class depends on host speed (under
// -race one over-budget cut can become a deadline cut).
func TestSoak(t *testing.T) {
	counts := map[string]int{}
	for i := 0; i < soakSessions; i++ {
		seed := uint64(soakSeed) + uint64(i)
		class, err := soakOne(seed, soakHangBudget)
		counts[class]++
		if err == nil {
			continue
		}
		t.Errorf("session seed %d: %v", seed, err)
		if counts["violation"] == 10 {
			t.Fatalf("stopping after 10 violations")
		}
	}
	classes := make([]string, 0, len(counts))
	for c := range counts {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	var sb strings.Builder
	for _, c := range classes {
		fmt.Fprintf(&sb, ", %s %d", c, counts[c])
	}
	t.Logf("%d sessions%s", soakSessions, sb.String())
	// The generator must keep exercising all three sides of the
	// contract, or the soak silently stops checking one of them.
	for _, want := range []string{"answer", "degraded", "cut:" + nvmap.ErrorOverBudget.String()} {
		if counts[want] == 0 {
			t.Errorf("no %q outcome in %d sessions", want, soakSessions)
		}
	}
}

// TestDefaultWindowsPreserveHistoricalDraws pins the generator's draw
// order — program first, then nodes, the retired worker-count draw,
// the fault plan's seed — so soak seeds filed in old failure reports
// still reproduce.
func TestDefaultWindowsPreserveHistoricalDraws(t *testing.T) {
	legacyNodes := func(r *rng) int { return []int{1, 2, 4, 8}[r.intn(4)] }
	for seed := uint64(1); seed <= 100; seed++ {
		sc := genScenario(&rng{state: seed})
		r := &rng{state: seed}
		_ = genProgram(r)
		if want := legacyNodes(r); sc.nodes != want {
			t.Fatalf("seed %d: nodes %d, legacy draw %d", seed, sc.nodes, want)
		}
		r.next()
		if want := int64(r.next() % (1 << 31)); sc.plan != nil && sc.plan.Seed != want {
			t.Fatalf("seed %d: plan seed %d, legacy draw %d", seed, sc.plan.Seed, want)
		}
	}
}

// rng is a self-contained splitmix64 stream so soak schedules are
// stable across Go releases.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) f() float64     { return float64(r.next()>>11) / (1 << 53) }
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// scenario is one randomized soak configuration.
type scenario struct {
	program  string
	nodes    int
	plan     *fault.Plan
	recovery *nvmap.RecoveryConfig
	budget   *nvmap.Budget
	deadline time.Duration // 0 = none (wall clock; breaks determinism)
	watchdog time.Duration // 0 = none
	metrics  []string
}

// wallClockFree reports whether the scenario's outcome is a pure
// function of its seed (no wall-clock governance), and therefore must
// be byte-identical from run to run.
func (sc *scenario) wallClockFree() bool { return sc.deadline == 0 && sc.watchdog == 0 }

// outcome is one run's observable surface, for determinism comparison.
type outcome struct {
	class  string
	report string
	clock  vtime.Time
	values string
}

// soakOne generates and runs one scenario, running wall-clock-free
// ones a second time for the determinism check. It returns the outcome
// class and a contract violation, if any.
func soakOne(seed uint64, hangBudget time.Duration) (string, error) {
	r := &rng{state: seed}
	sc := genScenario(r)
	first, err := runScenario(sc, hangBudget)
	if err != nil {
		return "violation", err
	}
	if sc.wallClockFree() {
		second, err := runScenario(sc, hangBudget)
		if err != nil {
			return "violation", fmt.Errorf("re-run: %w", err)
		}
		if *first != *second {
			return "violation", fmt.Errorf(
				"nondeterministic across two runs:\nclock %v vs %v\nvalues %q vs %q\nreport:\n%s---\n%s",
				first.clock, second.clock, first.values, second.values, first.report, second.report)
		}
	}
	return first.class, nil
}

// runScenario executes one session under the hang budget and asserts
// the robustness contract on its outcome.
func runScenario(sc *scenario, hangBudget time.Duration) (*outcome, error) {
	type result struct {
		out *outcome
		err error
	}
	ch := make(chan result, 1)
	go func() {
		// The library must contain its panics; one that escapes is
		// reported as a violation rather than killing the test binary.
		defer func() {
			if v := recover(); v != nil {
				ch <- result{err: fmt.Errorf("panic escaped nvmap: %v\n%s", v, debug.Stack())}
			}
		}()
		out, err := runSession(sc)
		ch <- result{out, err}
	}()
	select {
	case res := <-ch:
		return res.out, res.err
	case <-time.After(hangBudget):
		return nil, fmt.Errorf("session hung: no result within %v", hangBudget)
	}
}

// runSession builds and runs the session on the calling goroutine and
// classifies the outcome.
func runSession(sc *scenario) (*outcome, error) {
	opts := []nvmap.Option{
		nvmap.WithNodes(sc.nodes),
		nvmap.WithSourceFile("soak.fcm"),
	}
	if sc.plan != nil {
		opts = append(opts, nvmap.WithFaults(sc.plan))
	}
	if sc.recovery != nil {
		opts = append(opts, nvmap.WithRecovery(*sc.recovery))
	}
	if sc.budget != nil {
		opts = append(opts, nvmap.WithBudget(*sc.budget))
	}
	if sc.watchdog > 0 {
		opts = append(opts, nvmap.WithWatchdog(sc.watchdog))
	}
	s, err := nvmap.NewSession(sc.program, opts...)
	if err != nil {
		return nil, fmt.Errorf("generated program rejected: %w\n%s", err, sc.program)
	}
	ems := make(map[string]*paradyn.EnabledMetric, len(sc.metrics))
	for _, id := range sc.metrics {
		em, err := s.Tool.EnableMetric(id, paradyn.WholeProgram())
		if err != nil {
			return nil, fmt.Errorf("enable %s: %w", id, err)
		}
		ems[id] = em
	}
	ctx := context.Background()
	if sc.deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, sc.deadline)
		defer cancel()
	}
	rep, runErr := s.RunContext(ctx)
	if rep == nil {
		return nil, errors.New("nil degradation report")
	}

	out := &outcome{report: rep.String(), clock: s.Now()}
	var sb strings.Builder
	ids := append([]string(nil), sc.metrics...)
	sort.Strings(ids)
	for _, id := range ids {
		fmt.Fprintf(&sb, "%s=%g%s;", id, ems[id].Value(s.Now()), ems[id].Partial())
	}
	out.values = sb.String()

	switch {
	case runErr == nil:
		if rep.Zero() {
			out.class = "answer"
		} else {
			out.class = "degraded"
		}
		if rep.Cut != nil {
			return nil, fmt.Errorf("clean run reported a cut: %+v", rep.Cut)
		}
		// A partial answer says so: every whole-program answer of a run
		// that lost a node carries the lost-node annotation.
		if len(rep.LostNodes) > 0 {
			for _, id := range ids {
				if ems[id].Partial() == "" {
					return nil, fmt.Errorf("nodes %v lost but %s carries no partial annotation", rep.LostNodes, id)
				}
			}
		}
		return out, nil
	default:
		var serr *nvmap.SessionError
		if !errors.As(runErr, &serr) {
			return nil, fmt.Errorf("untyped session failure: %w", runErr)
		}
		if serr.Kind == nvmap.ErrorPanic {
			return nil, fmt.Errorf("library panicked: %v\n%s", serr, serr.Stack)
		}
		if rep.Cut == nil {
			return nil, fmt.Errorf("cut error (%v) but report has no Cut", serr)
		}
		if rep.Cut.Kind != serr.Kind {
			return nil, fmt.Errorf("report cut kind %v, error kind %v", rep.Cut.Kind, serr.Kind)
		}
		out.class = "cut:" + serr.Kind.String()
		return out, nil
	}
}

// genScenario draws one randomized composition.
func genScenario(r *rng) *scenario {
	sc := &scenario{
		program: genProgram(r),
		nodes:   []int{1, 2, 4, 8}[r.intn(4)],
		metrics: []string{"computations", "computation_time", "summations"},
	}
	// The historical generator drew a worker count here; consuming the
	// draw keeps every later one, and so every filed seed, unchanged.
	r.next()

	plan := &fault.Plan{Seed: int64(r.next() % (1 << 31))}
	used := false
	if r.f() < 0.5 { // lossy messages
		plan.Messages = fault.MessageFaults{
			DropProb:  r.f() * 0.15,
			DupProb:   r.f() * 0.1,
			DelayProb: r.f() * 0.3,
			DelayMax:  vtime.Duration(1+r.intn(5)) * vtime.Microsecond,
		}
		used = true
	}
	if r.f() < 0.4 { // slow / stalling nodes
		nf := fault.NodeFaults{Slowdown: map[int]float64{}}
		for n := 0; n < sc.nodes; n++ {
			if r.f() < 0.3 {
				nf.Slowdown[n] = 1.0 + r.f()*2.0
			}
		}
		if r.f() < 0.5 {
			nf.StallProb = r.f() * 0.3
			nf.StallFor = vtime.Duration(1+r.intn(4)) * vtime.Microsecond
		}
		plan.Nodes = nf
		used = true
	}
	if r.f() < 0.4 { // bounded daemon channel
		plan.Channel = fault.ChannelFaults{
			Capacity: 4 + r.intn(60),
			Policy:   []fault.OverflowPolicy{fault.DropOldest, fault.DropNewest, fault.Backpressure}[r.intn(3)],
		}
		used = true
	}
	if r.f() < 0.5 { // fail-stop crashes: at most one per node (schedules
		// on one node must not overlap, and nothing may follow a
		// permanent crash — session validation rejects both)
		perm := make([]int, sc.nodes)
		for n := range perm {
			perm[n] = n
		}
		for n := range perm { // Fisher–Yates off the soak stream
			j := n + r.intn(len(perm)-n)
			perm[n], perm[j] = perm[j], perm[n]
		}
		ncrash := 1 + r.intn(3)
		if ncrash > sc.nodes {
			ncrash = sc.nodes
		}
		for c := 0; c < ncrash; c++ {
			cf := fault.CrashFault{
				Node: perm[c],
				At:   vtime.Time(r.intn(80)) * vtime.Time(vtime.Microsecond),
			}
			if r.f() < 0.7 { // transient
				cf.Restart = vtime.Duration(1+r.intn(30)) * vtime.Microsecond
			}
			plan.Crashes = append(plan.Crashes, cf)
		}
		rc := &nvmap.RecoveryConfig{
			CheckpointEvery: 20 * vtime.Microsecond,
			Timeout:         5 * vtime.Microsecond,
			Probes:          2,
		}
		if r.f() < 0.25 {
			rc = &nvmap.RecoveryConfig{Disable: true}
		}
		sc.recovery = rc
		used = true
	}
	if used {
		sc.plan = plan
	}

	if r.f() < 0.35 { // randomized budgets
		b := nvmap.Budget{}
		switch r.intn(3) {
		case 0:
			b.MaxOps = int64(200 + r.intn(20000))
		case 1:
			b.MaxVirtualTime = vtime.Duration(20+r.intn(400)) * vtime.Microsecond
		case 2:
			b.MaxChannelBacklog = 2 + r.intn(30)
		}
		sc.budget = &b
	}
	if r.f() < 0.05 { // wall deadline (nondeterministic by nature)
		sc.deadline = time.Duration(5+r.intn(45)) * time.Millisecond
	}
	if r.f() < 0.10 { // watchdog, generous: must never fire on healthy runs
		sc.watchdog = 5 * time.Second
	}
	return sc
}

// genProgram composes a random, always-valid CM Fortran program over
// two conformable arrays and two scalars.
func genProgram(r *rng) string {
	size := []int{64, 128, 256}[r.intn(3)]
	var b strings.Builder
	fmt.Fprintf(&b, "PROGRAM soak\nREAL A(%d)\nREAL B(%d)\nREAL S\nREAL T\n", size, size)
	fmt.Fprintf(&b, "FORALL (I = 1:%d) A(I) = I\n", size)
	fmt.Fprintf(&b, "FORALL (I = 1:%d) B(I) = 2 * I\n", size)

	stmts := 3 + r.intn(8)
	for i := 0; i < stmts; i++ {
		if r.f() < 0.2 { // DO loop around 1-3 simple statements
			fmt.Fprintf(&b, "DO K = 1, %d\n", 2+r.intn(6))
			for j := 0; j < 1+r.intn(3); j++ {
				b.WriteString(genStatement(r))
			}
			b.WriteString("END DO\n")
			continue
		}
		b.WriteString(genStatement(r))
	}
	b.WriteString("S = SUM(A)\nPRINT *, S\nEND\n")
	return b.String()
}

// genStatement draws one statement; every alternative is conformable
// with the fixed A/B/S/T declarations.
func genStatement(r *rng) string {
	switch r.intn(12) {
	case 0:
		return "B = A * 2.0 + B\n"
	case 1:
		return "A = A + 1.0\n"
	case 2:
		return fmt.Sprintf("WHERE (A > %d.0) B = A * %d.0\n", r.intn(100), 1+r.intn(4))
	case 3:
		return "S = SUM(B)\n"
	case 4:
		return "T = MAXVAL(A)\n"
	case 5:
		return "T = MINVAL(B)\n"
	case 6:
		return "S = DOT_PRODUCT(A, B)\n"
	case 7:
		return fmt.Sprintf("A = CSHIFT(A, %d)\n", 1+r.intn(3))
	case 8:
		return "B = EOSHIFT(B, 1, 0)\n"
	case 9:
		return "A = SORT(A)\n"
	case 10:
		return "B = SCAN(B)\n"
	default:
		return "B = B * 0.5\n"
	}
}
