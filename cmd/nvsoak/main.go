// Command nvsoak is the chaos soak harness: it generates randomized CM
// Fortran programs, composes randomized fault plans (message loss,
// bounded channels, slowdowns, stalls, crashes), layers governance on
// top (budgets, deadlines, the stall watchdog), and runs hundreds of
// sessions end to end asserting the robustness contract:
//
//   - the process never dies: every panic is contained;
//   - every session ends in an answer, a partial answer, or a typed
//     *nvmap.SessionError — never a hang (a per-session wall budget
//     catches those) and never an untyped failure;
//   - cut runs carry their cut in the degradation report;
//   - wall-clock-free scenarios are byte-deterministic: the same
//     scenario run twice yields identical metric values, final clocks
//     and report text.
//
// Usage:
//
//	nvsoak -sessions 500 -seed 1
//	nvsoak -sessions 25 -timeout 10s -v          # CI smoke
//	nvsoak -sessions 100 -min-nodes 4
//	nvsoak -sessions 100 -max-ops 5000           # pin the budget draw
//
// Flags are validated up front: zero or negative session counts, empty
// or out-of-range node windows, and contradictory budget flags
// (-no-budget alongside an explicit -max-*) are usage errors (exit 2)
// rather than panics or silent misbehavior deep in a run.
//
// Exit status 0 means every session satisfied the contract.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"nvmap"
	"nvmap/internal/fault"
	"nvmap/internal/paradyn"
	"nvmap/internal/vtime"
)

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

// soakConfig is the validated soak configuration. nodeChoices is
// derived by validate: the supported partition sizes that fall inside
// the requested [minNodes, maxNodes] window.
type soakConfig struct {
	sessions int
	seed     int64
	timeout  time.Duration
	verbose  bool
	minNodes int
	maxNodes int

	noBudget   bool
	maxOps     int64
	maxVTime   time.Duration
	maxBacklog int

	nodeChoices []int
}

// supportedNodes are the partition sizes the generator draws from.
var supportedNodes = []int{1, 2, 4, 8}

// budgetPinned reports whether an explicit -max-* flag replaces the
// randomized budget draw.
func (c *soakConfig) budgetPinned() bool {
	return c.maxOps != 0 || c.maxVTime != 0 || c.maxBacklog != 0
}

// validate checks the configuration for the failure modes that used to
// surface as panics (r.intn(0) on an empty range) or silent
// misbehavior (0 sessions exiting green) deep in a run. It returns a
// usage error and fills nodeChoices on success.
func (c *soakConfig) validate() error {
	if c.sessions <= 0 {
		return fmt.Errorf("-sessions must be positive, got %d", c.sessions)
	}
	if c.timeout <= 0 {
		return fmt.Errorf("-timeout must be positive, got %v", c.timeout)
	}
	if c.minNodes <= 0 || c.maxNodes <= 0 {
		return fmt.Errorf("node range must be positive, got [%d, %d]", c.minNodes, c.maxNodes)
	}
	if c.minNodes > c.maxNodes {
		return fmt.Errorf("-min-nodes %d exceeds -max-nodes %d", c.minNodes, c.maxNodes)
	}
	if max := supportedNodes[len(supportedNodes)-1]; c.maxNodes > max && c.minNodes > max {
		return fmt.Errorf("node range [%d, %d] is above the largest supported partition (%d)", c.minNodes, c.maxNodes, max)
	}
	c.nodeChoices = c.nodeChoices[:0]
	for _, n := range supportedNodes {
		if n >= c.minNodes && n <= c.maxNodes {
			c.nodeChoices = append(c.nodeChoices, n)
		}
	}
	if len(c.nodeChoices) == 0 {
		return fmt.Errorf("no supported partition size (%v) inside node range [%d, %d]", supportedNodes, c.minNodes, c.maxNodes)
	}
	if c.maxOps < 0 {
		return fmt.Errorf("-max-ops must be non-negative, got %d", c.maxOps)
	}
	if c.maxVTime < 0 {
		return fmt.Errorf("-max-vtime must be non-negative, got %v", c.maxVTime)
	}
	if c.maxBacklog < 0 {
		return fmt.Errorf("-max-backlog must be non-negative, got %d", c.maxBacklog)
	}
	if c.noBudget && c.budgetPinned() {
		return fmt.Errorf("-no-budget contradicts explicit budget flags (-max-ops/-max-vtime/-max-backlog)")
	}
	return nil
}

func main() {
	var cfg soakConfig
	flag.IntVar(&cfg.sessions, "sessions", 500, "number of soak sessions")
	flag.IntVar(&cfg.sessions, "n", 500, "alias for -sessions")
	flag.Int64Var(&cfg.seed, "seed", 1, "base seed (iteration i uses seed+i)")
	flag.DurationVar(&cfg.timeout, "timeout", 60*time.Second, "per-session hang budget")
	flag.BoolVar(&cfg.verbose, "v", false, "log every iteration")
	flag.IntVar(&cfg.minNodes, "min-nodes", 1, "smallest partition the generator may draw")
	flag.IntVar(&cfg.maxNodes, "max-nodes", 8, "largest partition the generator may draw")
	flag.BoolVar(&cfg.noBudget, "no-budget", false, "never attach a budget governor")
	flag.Int64Var(&cfg.maxOps, "max-ops", 0, "pin every session's op budget (0 = randomized)")
	flag.DurationVar(&cfg.maxVTime, "max-vtime", 0, "pin every session's virtual-time budget (0 = randomized)")
	flag.IntVar(&cfg.maxBacklog, "max-backlog", 0, "pin every session's channel-backlog budget (0 = randomized)")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "nvsoak: unexpected arguments: %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}
	if err := cfg.validate(); err != nil {
		fmt.Fprintf(os.Stderr, "nvsoak: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}

	counts := map[string]int{}
	fails := 0
	for i := 0; i < cfg.sessions; i++ {
		class, err := soakOne(uint64(cfg.seed)+uint64(i), &cfg)
		counts[class]++
		if err != nil {
			fails++
			fmt.Fprintf(os.Stderr, "nvsoak: FAIL iteration %d (seed %d): %v\n", i, cfg.seed, err)
		} else if cfg.verbose {
			fmt.Printf("iter %4d: %s\n", i, class)
		}
	}

	classes := make([]string, 0, len(counts))
	for c := range counts {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	fmt.Printf("nvsoak: %d sessions", cfg.sessions)
	for _, c := range classes {
		fmt.Printf(", %s %d", c, counts[c])
	}
	fmt.Println()
	if fails > 0 {
		fmt.Fprintf(os.Stderr, "nvsoak: %d of %d sessions violated the contract\n", fails, cfg.sessions)
		os.Exit(1)
	}
}

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
func soakOne(seed uint64, cfg *soakConfig) (string, error) {
	hangBudget := cfg.timeout
	r := &rng{state: seed}
	sc := genScenario(r, cfg)
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
// classifies the outcome. Any panic escaping nvmap here is itself a
// contract violation (the library must contain them), so none is
// recovered.
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
	ems := make(map[string]*vals, len(sc.metrics))
	for _, id := range sc.metrics {
		em, err := s.Tool.EnableMetric(id, paradyn.WholeProgram())
		if err != nil {
			return nil, fmt.Errorf("enable %s: %w", id, err)
		}
		ems[id] = &vals{em: em}
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
		fmt.Fprintf(&sb, "%s=%g;", id, ems[id].em.Value(s.Now()))
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

// vals pairs an enabled metric with its session for the value readout.
type vals struct {
	em interface{ Value(vtime.Time) float64 }
}

// genScenario draws one randomized composition inside the validated
// node window. With the default window the draws are identical to the
// historical generator, so seeds stay comparable across releases.
func genScenario(r *rng, cfg *soakConfig) *scenario {
	sc := &scenario{
		program: genProgram(r),
		nodes:   cfg.nodeChoices[r.intn(len(cfg.nodeChoices))],
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

	switch {
	case cfg.noBudget:
		// governance disabled by flag
	case cfg.budgetPinned():
		sc.budget = &nvmap.Budget{
			MaxOps:            cfg.maxOps,
			MaxVirtualTime:    vtime.Duration(cfg.maxVTime),
			MaxChannelBacklog: cfg.maxBacklog,
		}
	case r.f() < 0.35: // randomized budgets
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
