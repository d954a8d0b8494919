// Package nvmap is a full-stack reproduction of Irvin & Miller,
// "Mechanisms for Mapping High-Level Parallel Performance Data" (ICPP
// 1996): the Noun-Verb model, static and dynamic mapping information, the
// Set of Active Sentences, and the paper's CM Fortran / Paradyn case
// study — rebuilt as a self-contained Go library over a deterministic
// simulated CM-5-class machine.
//
// The facade wires the whole stack into a Session: a mini CM Fortran
// program is compiled (package cmf), its compiler listing is turned into
// a PIF file of static mapping information (package pifgen), a simulated
// machine and CM run-time system are built (packages machine, cmrts), and
// a Paradyn-like tool (package paradyn) is attached through dynamic
// instrumentation (package dyninst) with the Figure 9 metric library
// (package mdl). The Set of Active Sentences (package sas) answers
// cross-level performance questions.
//
//	s, err := nvmap.NewSession(source, nvmap.WithNodes(8))
//	em, err := s.Tool.EnableMetric("summation_time", paradyn.WholeProgram())
//	report, err := s.Run()
//	fmt.Println(em.Value(s.Now()))
package nvmap

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"nvmap/internal/budget"
	"nvmap/internal/cmf"
	"nvmap/internal/cmrts"
	"nvmap/internal/dyninst"
	"nvmap/internal/fault"
	"nvmap/internal/machine"
	"nvmap/internal/mdl"
	"nvmap/internal/obs"
	"nvmap/internal/paradyn"
	"nvmap/internal/pif"
	"nvmap/internal/pifgen"
	"nvmap/internal/trace"
	"nvmap/internal/vtime"
)

// Config configures a measurement session.
type Config struct {
	// Nodes is the partition size (default 8).
	Nodes int
	// Machine overrides the machine cost model (nil = default for Nodes).
	Machine *machine.Config
	// Topology, when set, gives the machine a hardware topology: a grid
	// or torus of hardware nodes, optionally subdivided into sockets and
	// cores, whose leaves host the partition's logical nodes. The
	// topology is registered as the bottom abstraction levels (Machine,
	// HW) of the session's PIF, message delivery charges per-hop link
	// costs, and the net counters (congestion, dilation, cross-link
	// traffic) activate. Nil (the default) keeps the flat node set:
	// every path pays a single nil check and all outputs are
	// byte-identical to sessions built before topologies existed. It
	// overrides any Topology carried by a Machine override.
	Topology *machine.Topology
	// Placement assigns logical node i to topology leaf Placement[i].
	// Nil selects the identity placement. Entries must be distinct and
	// in range; a placement without a topology is a usage error. The
	// chosen assignment is emitted as ordinary PIF mapping records
	// ({leaf Hosts} -> {node Runs}), so placement is visible to the
	// where axis and the SAS like any other mapping information.
	Placement []int
	// Fuse enables the compiler's fusion of adjacent elementwise
	// statements (producing one-to-many mappings).
	Fuse bool
	// SourceFile names the program in listings and descriptions.
	SourceFile string
	// Output receives PRINT output (nil = discard).
	Output io.Writer
	// InstCosts overrides the instrumentation perturbation model.
	InstCosts *dyninst.CostModel
	// SampleEvery overrides the tool's histogram sampling interval.
	SampleEvery vtime.Duration
	// NoPerturbation disconnects instrumentation overhead from the node
	// clocks (for experiments isolating application cost).
	NoPerturbation bool
	// Faults, when set, injects deterministic faults into the run:
	// message drop/duplication/delay on the machine, node slowdowns and
	// stalls, bounded daemon-channel capacity, lossy cross-node SAS
	// links, and fail-stop node crashes. The same seed reproduces the
	// same degraded run exactly; nil leaves every path reliable and all
	// outputs unchanged.
	Faults *fault.Plan
	// Recovery tunes the crash-recovery machinery (checkpoints, the
	// daemon supervisor, journal replay). It takes effect only when
	// Faults schedules crashes.
	Recovery RecoveryConfig
	// Observability, when set, enables the self-observability plane:
	// pipeline-stage span tracing, the metrics registry, and the
	// perturbation report on Run. Nil (the default) leaves every record
	// site a single nil check and all session outputs byte-identical.
	Observability *ObservabilityConfig
	// Budget, when set, enforces resource ceilings on the run: virtual
	// time, operation count, daemon-channel backlog, SAS active-set
	// size, allocation estimate. Sheddable ceilings degrade gracefully
	// (coarser sampling, harder batching) before the run is cut with a
	// typed over-budget error. Budget cut points are deterministic: the
	// same program, plan and budget cut at the same boundary on every
	// run. Nil leaves the run ungoverned and pays nothing.
	Budget *Budget
	// StallTimeout arms the stall watchdog: a run that crosses no
	// machine operation boundary for this long (wall clock), or whose
	// virtual clock stays frozen for 4x this long while operations keep
	// running, is aborted with a typed stall error naming the last
	// boundary. Zero disables the watchdog.
	StallTimeout time.Duration

	// nodesExplicit records that WithNodes was applied, distinguishing
	// WithNodes(0) — a usage error — from the unset default of 8.
	// WithConfig replaces the whole struct, clearing it, which matches
	// the documented "options before it are discarded" contract.
	nodesExplicit bool
}

// Session is one application bound to a machine, runtime and tool.
type Session struct {
	Machine  *machine.Machine
	Inst     *dyninst.Manager
	Runtime  *cmrts.Runtime
	Tool     *paradyn.Tool
	Program  *cmf.Compiled
	Executor *cmf.Executor
	PIF      *pif.File

	plan       *fault.Plan
	faults     *fault.Injector
	monitor    *Monitor
	recovery   *recovery
	crashFinal bool

	// Self-observability state (see obs.go): the plane, plus the stage
	// totals and wall-clock baseline captured at the start of the most
	// recent Run for the perturbation report.
	obsPlane    *obs.Plane
	runBase     [obs.NumStages]obs.StageTotals
	runWall     int64
	runMeasured bool

	// Governance state (see govern.go): the budget governor (nil
	// without a budget), the watchdog timeout, and the cut record of
	// the most recent governed abort (nil when the run finished).
	budget   *budget.Governor
	watchdog time.Duration
	cut      *SessionError
}

// compileCache memoizes compilation and static-mapping generation per
// (source, options). Both products are immutable once built — the
// executor, the tool and PIFText only read them — so sessions over the
// same program share one compile. Bounded: a pathological stream of
// distinct sources resets the table rather than growing it.
var compileCache struct {
	sync.Mutex
	m map[compileKey]compiledProgram
}

type compileKey struct {
	source     string
	fuse       bool
	sourceFile string
}

type compiledProgram struct {
	cp *cmf.Compiled
	pf *pif.File
}

func compileCached(source string, opts cmf.Options) (*cmf.Compiled, *pif.File, error) {
	key := compileKey{source, opts.Fuse, opts.SourceFile}
	compileCache.Lock()
	c, ok := compileCache.m[key]
	compileCache.Unlock()
	if ok {
		return c.cp, c.pf, nil
	}
	cp, err := cmf.CompileSource(source, opts)
	if err != nil {
		return nil, nil, err
	}
	pf, err := pifgen.FromListing(strings.NewReader(cp.Listing()))
	if err != nil {
		return nil, nil, err
	}
	compileCache.Lock()
	if compileCache.m == nil || len(compileCache.m) >= 64 {
		compileCache.m = make(map[compileKey]compiledProgram)
	}
	compileCache.m[key] = compiledProgram{cp, pf}
	compileCache.Unlock()
	return cp, pf, nil
}

// mergePIF concatenates two PIF files into a new one, leaving both
// inputs untouched (the base may be the shared compile-cache copy).
func mergePIF(base, extra *pif.File) *pif.File {
	return &pif.File{
		Levels:   append(append([]pif.LevelRecord(nil), base.Levels...), extra.Levels...),
		Nouns:    append(append([]pif.NounRecord(nil), base.Nouns...), extra.Nouns...),
		Verbs:    append(append([]pif.VerbRecord(nil), base.Verbs...), extra.Verbs...),
		Mappings: append(append([]pif.MappingRecord(nil), base.Mappings...), extra.Mappings...),
	}
}

// NewSession compiles source, generates its static mapping information,
// and builds the simulated machine, runtime and tool around it. The
// session has not executed yet: enable metrics and instrumentation, then
// call Run. Configuration is by functional options; a fully-populated
// Config can be adopted with WithConfig.
func NewSession(source string, opts ...Option) (*Session, error) {
	var cfg Config
	for _, opt := range opts {
		opt(&cfg)
	}
	return newSession(source, cfg)
}

func newSession(source string, cfg Config) (*Session, error) {
	if cfg.Nodes == 0 && !cfg.nodesExplicit {
		cfg.Nodes = 8
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	mcfg := machine.DefaultConfig(cfg.Nodes)
	if cfg.Machine != nil {
		mcfg = *cfg.Machine
		mcfg.Nodes = cfg.Nodes
	}
	if cfg.Topology != nil {
		mcfg.Topology = cfg.Topology
	}
	if cfg.Placement != nil {
		mcfg.Placement = cfg.Placement
	}
	m, err := machine.New(mcfg)
	if err != nil {
		return nil, err
	}
	costs := dyninst.DefaultCosts()
	if cfg.InstCosts != nil {
		costs = *cfg.InstCosts
	}
	perturb := m.AdvanceNode
	if cfg.NoPerturbation {
		perturb = nil
	}
	inst := dyninst.NewManager(costs, perturb)
	rt, err := cmrts.New(m, inst, cmrts.DefaultCosts())
	if err != nil {
		return nil, err
	}
	var plane *obs.Plane
	if cfg.Observability != nil {
		plane = obs.New(obs.Options{
			TraceCapacity: cfg.Observability.TraceCapacity,
			HistBins:      cfg.Observability.HistBins,
		})
	}
	tool, err := paradyn.New(rt, mdl.StdLibrary(), paradyn.Options{
		SampleEvery: cfg.SampleEvery,
		Obs:         plane,
	})
	if err != nil {
		return nil, err
	}

	cp, pf, err := compileCached(source, cmf.Options{Fuse: cfg.Fuse, SourceFile: cfg.SourceFile})
	if err != nil {
		return nil, err
	}
	if topo := m.Topology(); topo != nil {
		// The compile cache shares pf across sessions, so the topology's
		// records merge into a fresh file rather than mutating it.
		pf = mergePIF(pf, pifgen.FromTopology(topo, m.Placement(), cfg.Nodes))
	}
	if err := tool.LoadPIF(pf); err != nil {
		return nil, err
	}
	s := &Session{
		Machine:  m,
		Inst:     inst,
		Runtime:  rt,
		Tool:     tool,
		Program:  cp,
		Executor: cmf.NewExecutor(cp, rt, cfg.Output),
		PIF:      pf,
	}
	if plane != nil {
		wireObs(s, plane)
	}
	if cfg.Faults != nil {
		s.plan = cfg.Faults
		s.faults = fault.NewInjector(cfg.Faults)
		m.SetFaults(s.faults)
		if ch := cfg.Faults.Channel; ch.Capacity > 0 {
			tool.Channel().SetLimit(ch.Capacity, ch.Policy)
		}
		sched, err := s.faults.CrashSchedule(cfg.Nodes)
		if err != nil {
			return nil, fmt.Errorf("nvmap: %w", err)
		}
		if len(sched) > 0 {
			m.SetCrashSchedule(sched)
			if cfg.Recovery.Disable {
				// The crash still destroys the node's measurement state;
				// without the recovery machinery nobody rebuilds it.
				m.OnCrash(func(node int, _ vtime.Time) { s.wipeNode(node) })
			} else {
				s.recovery = newRecovery(s, cfg.Recovery)
			}
		}
	}
	if cfg.Budget != nil {
		gov := budget.New(*cfg.Budget)
		// The backlog probe reads the daemon channel's high-water depth
		// since the last probe (the channel drains eagerly, so
		// instantaneous depth hides bursts); the active-set probe sums
		// the SAS sizes across nodes. Both run only at boundary checks
		// on the driving goroutine.
		gov.SetProbes(tool.Channel().HighWaterSince, func() int {
			n := 0
			for _, sa := range tool.SASes.Nodes() {
				n += sa.Size()
			}
			return n
		})
		gov.OnShed(tool.Shed)
		s.budget = gov
	}
	s.watchdog = cfg.StallTimeout
	return s, nil
}

// Run executes the program to completion on the simulated machine and
// returns the run's degradation report — all zeros when no fault plan
// is configured, and identical across runs for a fixed fault seed. The
// report is returned even when execution fails. Run is
// RunContext(context.Background()): never cancelled, never deadlined.
func (s *Session) Run() (*DegradationReport, error) {
	return s.RunContext(context.Background())
}

// RunContext executes the program under ctx. Cancellation and deadline
// expiry are honoured at machine operation boundaries: the run stops at
// the first boundary after the verdict and returns a *SessionError
// whose At field is the exact virtual instant the answer is complete up
// to, together with a best-effort partial degradation report (its Cut
// field records the same boundary). The configured budget and stall
// watchdog cut runs the same way, and any panic that escapes the
// measurement stack is contained into a *SessionError of kind
// ErrorPanic rather than crashing the process.
//
// With a Background context, no budget and no watchdog, RunContext
// installs no governor and behaves exactly like historical Run.
func (s *Session) RunContext(ctx context.Context) (rep *DegradationReport, err error) {
	s.cut = nil
	if stopGov := s.armGovernance(ctx); stopGov != nil {
		defer stopGov()
	}
	// The containment barrier is registered after the governance
	// teardown so it runs first (LIFO): the machine's transient state is
	// reset before SetGovernor(nil) re-checks the region guard.
	defer func() {
		if v := recover(); v != nil {
			rep, err = s.contain(v)
		}
	}()
	if cerr := ctx.Err(); cerr != nil {
		// Cancelled before the first operation: settle immediately with
		// an exact (trivial) cut at the current instant.
		return s.settle(&SessionError{Kind: kindOf(cerr), Op: "Run", Node: machine.CP, At: s.Now(), cause: cerr})
	}
	if s.recovery != nil {
		// Journaling hooks attach now, after the experiment has set up
		// its monitors and metric-focus pairs.
		s.recovery.arm()
	}
	if tr := s.obsTracer(); tr != nil {
		// The execute span brackets the whole run, so every nested
		// stage's wall cost is deducted from it and the perturbation
		// report's stage self-costs sum to (nearly) the run wall time.
		s.runBase = tr.Totals()
		wall0 := tr.WallNow()
		ref := tr.Begin(obs.StageExecute, "run", obs.NodeCP, s.Now())
		defer func() {
			tr.End(ref, s.Now())
			s.runWall = tr.WallNow() - wall0
			s.runMeasured = true
		}()
	}
	err = s.Executor.Run()
	// Final samples and mapping records may still sit on the channel if
	// no machine event followed them.
	s.Tool.FlushChannel()
	s.finalizeCrashes(s.Now())
	return s.degradation(), err
}

// EnableTrace attaches an execution-trace recorder to the machine. Call
// before Run; render with Trace.Render / Trace.Summary.
func (s *Session) EnableTrace() *trace.Trace {
	tr := trace.New(s.Machine.Nodes())
	tr.Attach(s.Machine)
	return tr
}

// Now returns the session's global virtual clock.
func (s *Session) Now() vtime.Time { return s.Machine.GlobalNow() }

// Elapsed returns the virtual time consumed so far.
func (s *Session) Elapsed() vtime.Duration { return s.Now().Sub(0) }

// Listing returns the compiler listing (the pifgen input).
func (s *Session) Listing() string { return s.Program.Listing() }

// PIFText renders the generated static mapping information in PIF syntax.
func (s *Session) PIFText() (string, error) {
	var b strings.Builder
	if err := pif.Write(&b, s.PIF); err != nil {
		return "", err
	}
	return b.String(), nil
}

// MetricRows reads a set of enabled metrics into display rows at the
// session's current instant.
func (s *Session) MetricRows(ems []*paradyn.EnabledMetric) []paradyn.Row {
	return MetricRows(ems, s.Now())
}

// RunMetrics enables the named metrics at the whole-program focus, runs
// the program to completion, and returns the final values keyed by
// metric ID together with the run's degradation report. It is the
// session-level form of RunWithMetrics for callers that need the session
// configured first (or the report afterwards).
func (s *Session) RunMetrics(ids ...string) (map[string]float64, *DegradationReport, error) {
	ems := make(map[string]*paradyn.EnabledMetric, len(ids))
	for _, id := range ids {
		em, err := s.Tool.EnableMetric(id, paradyn.WholeProgram())
		if err != nil {
			return nil, nil, fmt.Errorf("nvmap: %w", err)
		}
		ems[id] = em
	}
	report, err := s.Run()
	if err != nil {
		return nil, report, err
	}
	now := s.Now()
	out := make(map[string]float64, len(ems))
	for id, em := range ems {
		out[id] = em.Value(now)
	}
	return out, report, nil
}

// MetricRows reads a set of enabled metrics into display rows.
//
// Deprecated: use Session.MetricRows, which supplies the session's own
// clock reading.
func MetricRows(ems []*paradyn.EnabledMetric, now vtime.Time) []paradyn.Row {
	rows := make([]paradyn.Row, 0, len(ems))
	for _, em := range ems {
		rows = append(rows, paradyn.Row{
			Metric:   em.Metric.Name,
			Focus:    em.Focus.String(),
			Value:    em.Value(now),
			Units:    em.Metric.Units,
			Degraded: em.Degraded(),
			Partial:  em.Partial(),
		})
	}
	return rows
}

// RunWithMetrics is the one-call convenience: build a session, enable the
// named metrics at the whole-program focus, run, and return the final
// values keyed by metric ID.
func RunWithMetrics(source string, cfg Config, metricIDs ...string) (map[string]float64, error) {
	s, err := NewSession(source, WithConfig(cfg))
	if err != nil {
		return nil, err
	}
	out, _, err := s.RunMetrics(metricIDs...)
	return out, err
}
