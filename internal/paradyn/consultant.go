package paradyn

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"nvmap/internal/diagnose"
	"nvmap/internal/fault"
	"nvmap/internal/machine"
	"nvmap/internal/nv"
	"nvmap/internal/vtime"
)

// This file adapts the tool to the budget-bounded why/where search
// engine of internal/diagnose: the Performance Consultant of Section 5,
// grown from the original whole-program/per-statement sketch into a
// real diagnosis module. The consultant evaluates its why-axis
// hypotheses from a *single* instrumented run — the machine's per-node
// counters, its idle spans classified by what the node was waiting for,
// the fault injector's ledger and the interconnect's per-link loads —
// and replays the (deterministic) application with focus-constrained
// instrumentation only where the where-axis refinement genuinely needs
// an isolated number, the replay standing in for Paradyn's online
// instrumentation insertion. Like Paradyn's, that insertion covers a
// whole refinement step at once: one replay measures every sibling
// focus a confirmed finding refines into, and one recorded replay
// answers every route-attribution probe of the search.

// Why-axis hypothesis IDs the consultant evaluates natively.
const (
	HypCPUBound      = "CPUBound"
	HypCommBound     = "CommBound"
	HypSyncBound     = "SyncBound"
	HypLoadImbalance = "LoadImbalance"
	HypStallBound    = "StallBound"
)

// HierHW is the hardware topology hierarchy link findings refine into.
const HierHW = "HW"

// Hypothesis is one why-axis test. The five native IDs above are
// evaluated from the base run's machine counters; any other ID falls
// back to the named metrics' summed whole-program fraction. Metrics
// also drive the statement/array refinement replays for every
// hypothesis.
type Hypothesis struct {
	ID          string
	Description string
	Metrics     []string
	Threshold   float64
}

// DefaultHypotheses returns the consultant's why axis: CPU bound,
// communication bound (including per-link congestion refinement),
// synchronisation bound (common-mode waits on the control processor),
// load imbalance (per-node busy-time dispersion), and stall bound
// (fault-plan stall and delay signatures).
func DefaultHypotheses() []Hypothesis {
	return []Hypothesis{
		{
			ID:          HypCPUBound,
			Description: "computation dominates node time",
			Metrics:     []string{"computation_time"},
			Threshold:   0.4,
		},
		{
			ID:          HypCommBound,
			Description: "inter-node communication and message waits dominate",
			Metrics:     []string{"point_to_point_time", "broadcast_time"},
			Threshold:   0.3,
		},
		{
			ID:          HypSyncBound,
			Description: "all nodes wait on the control processor",
			Metrics:     []string{"idle_time"},
			Threshold:   0.25,
		},
		{
			ID:          HypLoadImbalance,
			Description: "node busy times diverge (stragglers)",
			Metrics:     []string{"computation_time"},
			Threshold:   0.2,
		},
		{
			ID:          HypStallBound,
			Description: "injected stalls and message delays dominate",
			Metrics:     []string{"idle_time"},
			Threshold:   0.1,
		},
	}
}

// Finding is one consultant conclusion, the flattened form of a
// diagnose.Finding (Search returns these for display; Diagnose returns
// the full report).
type Finding struct {
	Hypothesis string
	FocusLabel string
	Fraction   float64
	Threshold  float64
	Confirmed  bool
	// Source says whether the base instrumented run answered the probe
	// ("sampled") or a focused replay was needed ("re-run").
	Source diagnose.Source
	// Depth is the refinement level (0 = whole program).
	Depth int
}

// String renders a fixed-width report line, e.g.
//
//	CPUBound      at /Machine/node3                     0.6200 (threshold   0.4000) CONFIRMED [sampled]
//
// Fractions always carry four decimals in eight columns so golden
// reports never churn with float formatting.
func (f Finding) String() string {
	verdict := "rejected "
	if f.Confirmed {
		verdict = "CONFIRMED"
	}
	return fmt.Sprintf("%-13s at %-36s %s (threshold %s) %s [%s]",
		f.Hypothesis, f.FocusLabel,
		diagnose.FormatFraction(f.Fraction), diagnose.FormatFraction(f.Threshold),
		verdict, f.Source)
}

// AppFactory builds a fresh, identical application run: a tool bound to a
// new runtime plus the function that executes the application. The
// simulator's determinism makes repeated factories equivalent to
// Paradyn's single online run.
type AppFactory func() (*Tool, func() error, error)

// Consultant searches for bottlenecks.
type Consultant struct {
	Hypotheses []Hypothesis
	// RefineStatements controls statement-level replay probes.
	RefineStatements bool
	// RefineArrays controls array-level replay probes (requires the
	// application to allocate arrays through the runtime, which all CMF
	// programs do).
	RefineArrays bool
	// Budget caps the search's probe count — hypothesis×focus
	// evaluations, sampled and replayed alike (0 selects
	// diagnose.DefaultBudget; negative is an error). When the budget
	// cuts the search the report's Pruned counter says exactly how many
	// enqueued probes went unevaluated.
	Budget int
	// Threshold, when positive, overrides every hypothesis's own
	// confirmation threshold.
	Threshold float64
	// MaxDepth bounds refinement depth (0 selects diagnose.DefaultMaxDepth).
	MaxDepth int
	// OnFinding, when set, observes every finding the moment its probe
	// is evaluated (probe order, before the report tree is sorted) — the
	// hook streaming frontends use to emit findings live.
	OnFinding func(diagnose.Finding)
}

// NewConsultant returns a consultant with the default hypotheses, both
// refinement phases on, and the default probe budget.
func NewConsultant() *Consultant {
	return &Consultant{Hypotheses: DefaultHypotheses(), RefineStatements: true, RefineArrays: true}
}

// Search runs the diagnosis and returns the findings flattened for
// display: every top-level finding (confirmed or not) plus every
// confirmed refinement, sorted by fraction (largest first).
func (c *Consultant) Search(factory AppFactory) ([]Finding, error) {
	rep, err := c.Diagnose(factory)
	if err != nil {
		return nil, err
	}
	var findings []Finding
	rep.Walk(func(f *diagnose.Finding) {
		if f.Depth > 0 && !f.Confirmed {
			return
		}
		findings = append(findings, Finding{
			Hypothesis: f.Hypothesis,
			FocusLabel: f.Focus,
			Fraction:   f.Fraction,
			Threshold:  f.Threshold,
			Confirmed:  f.Confirmed,
			Source:     f.Source,
			Depth:      f.Depth,
		})
	})
	sort.SliceStable(findings, func(i, j int) bool { return findings[i].Fraction > findings[j].Fraction })
	return findings, nil
}

// Diagnose runs the budget-bounded why/where search and returns the
// full report: the findings tree plus what the search itself cost
// (probes run and pruned, virtual and wall time).
func (c *Consultant) Diagnose(factory AppFactory) (*diagnose.Report, error) {
	cs, err := newConsultSession(c, factory)
	if err != nil {
		return nil, err
	}
	eng := diagnose.Engine{Budget: c.Budget, MaxDepth: c.MaxDepth, Threshold: c.Threshold, OnProbe: c.OnFinding}
	return eng.Search(cs)
}

// consultSession is the diagnose.Evaluator over one base instrumented
// run plus targeted replays. Everything sampled is captured before the
// search starts, and a replay measures its whole group whichever member
// asks first, so evaluation order cannot change any answer — only which
// probe is charged for a replay.
type consultSession struct {
	c       *Consultant
	factory AppFactory

	nodes   int
	elapsed float64 // seconds of virtual time, base run
	baseVT  vtime.Duration
	stats   []machine.NodeStats

	// Idle spans from the base run classified by what the node waited
	// for: the control processor (cpIdle), a peer's message (commIdle),
	// or an injected stall (selfIdle). Seconds per node.
	cpIdle, commIdle, selfIdle []float64

	// Fault-plan signatures from the base run's injector.
	injected fault.Report

	// Interconnect loads aggregated to undirected links, sorted.
	links      []undirectedLoad
	totalBytes float64

	stmts   []string
	arrays  []string
	hasTopo bool
	// stmtBlocks is the static statement -> node code blocks index
	// (PIF mapping records, identical in every replay).
	stmtBlocks map[string][]string

	// customEMs holds whole-program instances for non-native hypothesis
	// IDs, enabled on the base run.
	customEMs map[string][]*EnabledMetric
	baseNow   vtime.Time

	charged bool // base-run cost charged to the first probe

	// groups maps each metric-replay probe to the refinement step it
	// belongs to; the group's single replay answers all its members.
	groups map[probeKey]*replayGroup
	// routes is the search's one route recording, made by the first
	// route-attribution probe; nil until then.
	routes *routeRecording
}

type probeKey struct{ hyp, focus string }

type undirectedLoad struct {
	a, b  int // a < b
	bytes float64
}

func (u undirectedLoad) name() string { return fmt.Sprintf("link_hw%d_hw%d", u.a, u.b) }

// newConsultSession runs the single base instrumented run and captures
// every sampled answer the search may need.
func newConsultSession(c *Consultant, factory AppFactory) (*consultSession, error) {
	tool, run, err := factory()
	if err != nil {
		return nil, err
	}
	for _, h := range c.Hypotheses {
		for _, mid := range h.Metrics {
			if _, ok := tool.lib.Get(mid); !ok {
				return nil, fmt.Errorf("consultant: hypothesis %s: unknown metric %q", h.ID, mid)
			}
		}
	}
	cs := &consultSession{c: c, factory: factory, nodes: tool.mach.Nodes(),
		stmtBlocks: tool.stmtBlocks, groups: make(map[probeKey]*replayGroup)}
	cs.cpIdle = make([]float64, cs.nodes)
	cs.commIdle = make([]float64, cs.nodes)
	cs.selfIdle = make([]float64, cs.nodes)

	// Dynamic mapping discovers the application's arrays for the
	// array-refinement probes; the observer classifies idle spans as
	// they happen (parallel regions flush events deterministically on
	// the driving goroutine, so the sums are worker-count independent).
	tool.EnableDynamicMapping()
	tool.mach.Observe(func(e machine.Event) {
		if e.Kind != machine.EvIdle {
			return
		}
		d := e.End.Sub(e.Start).Seconds()
		switch e.Peer {
		case machine.CP:
			cs.cpIdle[e.Node] += d
		case e.Node:
			cs.selfIdle[e.Node] += d
		default:
			cs.commIdle[e.Node] += d
		}
	})
	cs.customEMs = make(map[string][]*EnabledMetric)
	for _, h := range c.Hypotheses {
		if nativeHypothesis(h.ID) {
			continue
		}
		for _, mid := range h.Metrics {
			em, err := tool.EnableMetric(mid, WholeProgram())
			if err != nil {
				return nil, fmt.Errorf("consultant: hypothesis %s: %w", h.ID, err)
			}
			cs.customEMs[h.ID] = append(cs.customEMs[h.ID], em)
		}
	}

	if err := run(); err != nil {
		return nil, err
	}
	now := tool.mach.GlobalNow()
	cs.baseNow = now
	cs.baseVT = now.Sub(0)
	cs.elapsed = cs.baseVT.Seconds()
	if cs.elapsed == 0 {
		return nil, fmt.Errorf("consultant: application consumed no virtual time")
	}
	cs.stats = make([]machine.NodeStats, cs.nodes)
	for n := 0; n < cs.nodes; n++ {
		cs.stats[n] = tool.mach.Stats(n)
	}
	if in := tool.mach.Faults(); in != nil {
		cs.injected = in.Report()
	}
	cs.hasTopo = tool.mach.Topology() != nil
	agg := map[[2]int]float64{}
	for _, ll := range tool.mach.LinkLoads() {
		a, b := ll.Link.From, ll.Link.To
		if a > b {
			a, b = b, a
		}
		agg[[2]int{a, b}] += float64(ll.Bytes)
		cs.totalBytes += float64(ll.Bytes)
	}
	for k, v := range agg {
		cs.links = append(cs.links, undirectedLoad{a: k[0], b: k[1], bytes: v})
	}
	sort.Slice(cs.links, func(i, j int) bool {
		if cs.links[i].a != cs.links[j].a {
			return cs.links[i].a < cs.links[j].a
		}
		return cs.links[i].b < cs.links[j].b
	})
	// Statements come from the where axis, not stmtBlocks: mapping
	// records also carry placement pairs (hardware leaf -> logical
	// node), and those destination nouns are not statements.
	if root, ok := tool.Axis.Hierarchy(HierStmts); ok {
		for _, c := range root.Children() {
			cs.stmts = append(cs.stmts, c.Name)
		}
	}
	sort.Strings(cs.stmts)
	for a := range tool.arraysByName {
		cs.arrays = append(cs.arrays, a)
	}
	sort.Strings(cs.arrays)
	return cs, nil
}

func nativeHypothesis(id string) bool {
	switch id {
	case HypCPUBound, HypCommBound, HypSyncBound, HypLoadImbalance, HypStallBound:
		return true
	}
	return false
}

func (cs *consultSession) Hypotheses() []diagnose.HypothesisSpec {
	out := make([]diagnose.HypothesisSpec, 0, len(cs.c.Hypotheses))
	for _, h := range cs.c.Hypotheses {
		out = append(out, diagnose.HypothesisSpec{ID: h.ID, Description: h.Description, Threshold: h.Threshold})
	}
	return out
}

func (cs *consultSession) hypothesis(id string) Hypothesis {
	for _, h := range cs.c.Hypotheses {
		if h.ID == id {
			return h
		}
	}
	return Hypothesis{ID: id}
}

// focusPart is one parsed component of a focus label.
type focusPart struct {
	hier string
	name string
}

func parseFocus(focus string) []focusPart {
	if focus == diagnose.FocusWholeProgram {
		return nil
	}
	var parts []focusPart
	for _, piece := range strings.Split(focus, ",") {
		piece = strings.TrimPrefix(piece, "/")
		if i := strings.IndexByte(piece, '/'); i >= 0 {
			parts = append(parts, focusPart{hier: piece[:i], name: piece[i+1:]})
		}
	}
	return parts
}

// nodeSeconds is the base run's available node time.
func (cs *consultSession) nodeSeconds() float64 { return cs.elapsed * float64(cs.nodes) }

// delayShare estimates what share of message-wait idle was injected by
// the fault plan rather than earned by the application: the injector's
// accumulated extra latency over all observed message waits, clamped to
// [0,1].
func (cs *consultSession) delayShare() float64 {
	total := 0.0
	for _, d := range cs.commIdle {
		total += d
	}
	if total == 0 {
		return 0
	}
	share := cs.injected.ExtraLatency.Seconds() / total
	if share > 1 {
		share = 1
	}
	return share
}

func (cs *consultSession) busy(n int) float64 {
	return cs.stats[n].ComputeTime.Seconds() + cs.stats[n].SendTime.Seconds()
}

// Eval measures one (hypothesis, focus) probe. Whole-program, per-node
// and per-link answers come from the base run; statement and array foci
// come from their refinement step's shared replay, or from the search's
// route recording for route-attribution probes.
func (cs *consultSession) Eval(hyp, focus string) (diagnose.Measurement, error) {
	m, err := cs.eval(hyp, focus)
	if err != nil {
		return diagnose.Measurement{}, err
	}
	if !cs.charged {
		// The single base instrumented run is the search's founding
		// cost; it lands on the first probe.
		m.Cost += cs.baseVT
		cs.charged = true
	}
	return m, nil
}

func (cs *consultSession) eval(hyp, focus string) (diagnose.Measurement, error) {
	parts := parseFocus(focus)
	switch cs.kindOf(hyp, parts) {
	case probeRoute:
		return cs.evalRoute(parts)
	case probeReplay:
		return cs.evalReplay(hyp, focus)
	}
	// Sampled foci: whole program, one machine node, one HW link.
	if len(parts) == 0 {
		return cs.evalWholeProgram(hyp)
	}
	if parts[0].hier == HierHW {
		return cs.evalLink(parts[0].name)
	}
	n, err := strconv.Atoi(strings.TrimPrefix(parts[0].name, "node"))
	if err != nil || n < 0 || n >= cs.nodes {
		return diagnose.Measurement{}, fmt.Errorf("consultant: bad node focus %q", parts[0].name)
	}
	return cs.evalNode(hyp, n)
}

// probeKind says how a probe is answered.
type probeKind uint8

const (
	// probeSampled reads the base run: the whole program, one machine
	// node or one HW link.
	probeSampled probeKind = iota
	// probeRoute reads the route recording: a statement paired with a HW
	// link, or a CommBound statement on a topology machine.
	probeRoute
	// probeReplay reads its group's focused metric replay.
	probeReplay
)

func (cs *consultSession) kindOf(hyp string, parts []focusPart) probeKind {
	if len(parts) == 0 || len(parts) == 1 && (parts[0].hier == HierMachine || parts[0].hier == HierHW) {
		return probeSampled
	}
	stmt, node := false, false
	for _, p := range parts {
		switch p.hier {
		case HierHW:
			return probeRoute
		case HierStmts:
			stmt = true
		case HierMachine:
			node = true
		}
	}
	if stmt && !node && hyp == HypCommBound && cs.hasTopo {
		// On a topology, "is this statement communication bound?" is a
		// traffic question: what share of all link-crossing bytes did it
		// send? Confirmed statements then refine per link.
		return probeRoute
	}
	return probeReplay
}

func (cs *consultSession) evalWholeProgram(hyp string) (diagnose.Measurement, error) {
	ns := cs.nodeSeconds()
	sampled := func(f float64) (diagnose.Measurement, error) {
		return diagnose.Measurement{Fraction: f, Source: diagnose.SourceSampled}, nil
	}
	switch hyp {
	case HypCPUBound:
		total := 0.0
		for n := range cs.stats {
			total += cs.stats[n].ComputeTime.Seconds()
		}
		return sampled(total / ns)
	case HypCommBound:
		// Send costs plus message waits, minus the share of waiting the
		// fault plan injected (that belongs to StallBound).
		total := 0.0
		for n := range cs.stats {
			total += cs.stats[n].SendTime.Seconds() + cs.commIdle[n]
		}
		total -= cs.injected.ExtraLatency.Seconds()
		if total < 0 {
			total = 0
		}
		return sampled(total / ns)
	case HypSyncBound:
		// Common-mode control-processor waits: the *minimum* per-node CP
		// idle fraction. A straggler's peers wait plenty, but the
		// straggler itself does not — only genuinely synchronised
		// waiting (serialised dispatch, broadcast trees) confirms.
		minIdle := cs.cpIdle[0]
		for _, d := range cs.cpIdle[1:] {
			if d < minIdle {
				minIdle = d
			}
		}
		return sampled(minIdle / cs.elapsed)
	case HypLoadImbalance:
		// Dispersion of per-node busy time: how much of the run the
		// heaviest node worked beyond the mean.
		maxBusy, meanBusy := 0.0, 0.0
		for n := range cs.stats {
			b := cs.busy(n)
			meanBusy += b
			if b > maxBusy {
				maxBusy = b
			}
		}
		meanBusy /= float64(cs.nodes)
		return sampled((maxBusy - meanBusy) / cs.elapsed)
	case HypStallBound:
		// Fault-plan signatures: self-inflicted stall idle plus however
		// much of the observed message waiting the injector's extra
		// latency can account for.
		total := sum(cs.selfIdle)
		extra := cs.injected.ExtraLatency.Seconds()
		if ct := sum(cs.commIdle); extra > ct {
			extra = ct
		}
		return sampled((total + extra) / ns)
	default:
		total := 0.0
		for _, em := range cs.customEMs[hyp] {
			total += em.Value(cs.baseNow)
		}
		return sampled(total / ns)
	}
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func (cs *consultSession) evalNode(hyp string, n int) (diagnose.Measurement, error) {
	sampled := func(f float64) (diagnose.Measurement, error) {
		return diagnose.Measurement{Fraction: f, Source: diagnose.SourceSampled}, nil
	}
	switch hyp {
	case HypCPUBound:
		return sampled(cs.stats[n].ComputeTime.Seconds() / cs.elapsed)
	case HypCommBound:
		earned := cs.commIdle[n] * (1 - cs.delayShare())
		return sampled((cs.stats[n].SendTime.Seconds() + earned) / cs.elapsed)
	case HypSyncBound:
		return sampled(cs.cpIdle[n] / cs.elapsed)
	case HypLoadImbalance:
		meanBusy := 0.0
		for i := range cs.stats {
			meanBusy += cs.busy(i)
		}
		meanBusy /= float64(cs.nodes)
		return sampled((cs.busy(n) - meanBusy) / cs.elapsed)
	case HypStallBound:
		return sampled((cs.selfIdle[n] + cs.commIdle[n]*cs.delayShare()) / cs.elapsed)
	default:
		total := 0.0
		for _, em := range cs.customEMs[hyp] {
			total += em.Instance.NodeValue(n, cs.baseNow)
		}
		return sampled(total / cs.elapsed)
	}
}

// evalLink answers a per-link probe from the base run's loads: the
// link's share of all interconnect traffic. Unlike the time hypotheses
// this is a traffic fraction — a congested link carries an outsized
// share of the bytes.
func (cs *consultSession) evalLink(name string) (diagnose.Measurement, error) {
	m := diagnose.Measurement{Source: diagnose.SourceSampled}
	if l := cs.link(name); l != nil && cs.totalBytes > 0 {
		m.Fraction = l.bytes / cs.totalBytes
	}
	return m, nil
}

// link returns the base run's undirected link called name, nil if none.
func (cs *consultSession) link(name string) *undirectedLoad {
	for i := range cs.links {
		if cs.links[i].name() == name {
			return &cs.links[i]
		}
	}
	return nil
}

// Children implements the refinement rules. Only confirmed findings are
// refined, and only down to MaxDepth; the engine enforces both.
func (cs *consultSession) Children(hyp, focus string) []string {
	parts := parseFocus(focus)
	var out []string
	switch {
	case len(parts) == 0: // whole program
		for n := 0; n < cs.nodes; n++ {
			out = append(out, "/Machine/node"+strconv.Itoa(n))
		}
		switch hyp {
		case HypCommBound:
			if cs.c.RefineStatements {
				for _, s := range cs.stmts {
					out = append(out, "/CMFstmts/"+s)
				}
			}
			for _, l := range cs.links {
				out = append(out, "/HW/"+l.name())
			}
		case HypSyncBound, HypStallBound, HypLoadImbalance:
			// Node-level localisation only.
		default: // CPUBound and custom hypotheses
			if cs.c.RefineStatements {
				for _, s := range cs.stmts {
					out = append(out, "/CMFstmts/"+s)
				}
			}
			if cs.c.RefineArrays {
				for _, a := range cs.arrays {
					out = append(out, "/CMFarrays/"+a)
				}
			}
		}
	case len(parts) == 1 && parts[0].hier == HierMachine && hyp == HypLoadImbalance:
		// Localise the straggler's excess: which statement keeps it busy.
		if cs.c.RefineStatements {
			for _, s := range cs.stmts {
				out = append(out, "/CMFstmts/"+s+",/"+HierMachine+"/"+parts[0].name)
			}
		}
	case len(parts) == 1 && parts[0].hier == HierStmts && hyp == HypCommBound:
		// Which links does this statement's traffic cross? The automated
		// answer to "which statement causes cross-torus traffic".
		for _, l := range cs.links {
			out = append(out, "/CMFstmts/"+parts[0].name+",/HW/"+l.name())
		}
	}
	// The children one metric replay can measure form this step's group.
	var g *replayGroup
	for _, f := range out {
		if cs.kindOf(hyp, parseFocus(f)) != probeReplay {
			continue
		}
		if g == nil {
			g = &replayGroup{hyp: cs.hypothesis(hyp)}
		}
		g.foci = append(g.foci, f)
		cs.groups[probeKey{hyp, f}] = g
	}
	return out
}

// replayGroup is one refinement step's metric-replay probes: the
// children of one confirmed finding, measured together in one replay.
// A probe no refinement step announced is a group of one.
type replayGroup struct {
	hyp  Hypothesis
	foci []string
	// got holds every member's measurement once the replay succeeded;
	// nil before, and after a failed replay.
	got map[string]diagnose.Measurement
}

// evalReplay answers a metric-replay probe from its group's replay,
// running that replay first if no member has yet. The replay's elapsed
// time is charged to the probe that ran it; members answered from the
// group's measurements cost nothing more.
func (cs *consultSession) evalReplay(hyp, focus string) (diagnose.Measurement, error) {
	key := probeKey{hyp, focus}
	g := cs.groups[key]
	if g == nil {
		g = &replayGroup{hyp: cs.hypothesis(hyp), foci: []string{focus}}
		cs.groups[key] = g
	}
	if g.got != nil {
		return g.got[focus], nil
	}
	got, elapsed, err := cs.replay(g.hyp, g.foci)
	if err != nil {
		return diagnose.Measurement{}, err
	}
	g.got = got
	m := got[focus]
	m.Cost, m.Runs = elapsed, 1
	return m, nil
}

// replay runs the application once with dynamic mapping, gating and h's
// metrics enabled at every one of foci, and measures h at each focus:
// the metrics' total over the replay's node-seconds, or over its elapsed
// time for a focus constrained to one node.
func (cs *consultSession) replay(h Hypothesis, foci []string) (map[string]diagnose.Measurement, vtime.Duration, error) {
	tool, run, err := cs.factory()
	if err != nil {
		return nil, 0, err
	}
	tool.EnableDynamicMapping()
	tool.EnableGating()

	type probe struct {
		focus   string
		perNode bool
		ems     []*EnabledMetric
	}
	probes := make([]probe, len(foci))
	for i, f := range foci {
		p := &probes[i]
		p.focus = f
		var resources []*Resource
		for _, part := range parseFocus(f) {
			switch part.hier {
			case HierStmts, HierArrays:
			case HierMachine:
				p.perNode = true
			default:
				return nil, 0, fmt.Errorf("consultant: unknown focus hierarchy %q", part.hier)
			}
			resources = append(resources, tool.Axis.AddPath(part.hier, part.name))
		}
		focus, err := NewFocus(resources...)
		if err != nil {
			return nil, 0, err
		}
		for _, mid := range h.Metrics {
			em, err := tool.EnableMetric(mid, focus)
			if err != nil {
				return nil, 0, err
			}
			p.ems = append(p.ems, em)
		}
	}
	if err := run(); err != nil {
		return nil, 0, err
	}
	now := tool.mach.GlobalNow()
	elapsed := now.Sub(0)
	if elapsed == 0 {
		return nil, 0, fmt.Errorf("consultant: replay consumed no virtual time")
	}
	got := make(map[string]diagnose.Measurement, len(probes))
	for _, p := range probes {
		denom := elapsed.Seconds() * float64(tool.mach.Nodes())
		if p.perNode {
			denom = elapsed.Seconds()
		}
		total := 0.0
		for _, em := range p.ems {
			total += em.Value(now)
		}
		got[p.focus] = diagnose.Measurement{Fraction: total / denom, Source: diagnose.SourceRerun}
	}
	return got, elapsed, nil
}

// routeRecording is the traffic of one replay run with mapping and
// gating only, aggregated per undirected link and per statement as the
// messages were routed. A routed message counts once towards every
// distinct link it crossed, and towards a statement when the sender's
// SAS showed one of the statement's blocks active at send time (the
// gating instrumentation maintains exactly that sentence).
type routeRecording struct {
	all   *routeBytes            // every sender's traffic together
	stmts map[string]*routeBytes // statements with node code blocks
}

// routeBytes is one sender class's link-crossing traffic: in total and
// per undirected link.
type routeBytes struct {
	crossing float64
	links    map[[2]int]float64
}

func newRouteBytes() *routeBytes { return &routeBytes{links: map[[2]int]float64{}} }

func (r *routeBytes) add(bytes float64, links [][2]int) {
	r.crossing += bytes
	for _, l := range links {
		r.links[l] += bytes
	}
}

// on returns the bytes crossing link, or crossing any link when link is
// nil; a nil receiver sent nothing.
func (r *routeBytes) on(link *undirectedLoad) float64 {
	if r == nil {
		return 0
	}
	if link == nil {
		return r.crossing
	}
	return r.links[[2]int{link.a, link.b}]
}

// evalRoute answers a route-attribution probe — the statement's share of
// the traffic crossing the focal link (any link when the focus names
// none) — from the search's route recording, recording it first if no
// probe has yet. This is how "which statement causes cross-torus
// traffic" gets answered automatically.
func (cs *consultSession) evalRoute(parts []focusPart) (diagnose.Measurement, error) {
	var link *undirectedLoad
	var stmt string
	for _, p := range parts {
		switch p.hier {
		case HierHW:
			if link = cs.link(p.name); link == nil {
				return diagnose.Measurement{}, fmt.Errorf("consultant: unknown link focus %q", p.name)
			}
		case HierStmts:
			stmt = p.name
		case HierArrays, HierMachine:
		default:
			return diagnose.Measurement{}, fmt.Errorf("consultant: unknown focus hierarchy %q", p.hier)
		}
	}
	m := diagnose.Measurement{Source: diagnose.SourceRerun}
	if len(cs.stmtBlocks[stmt]) == 0 {
		// A statement with no block mapping never executes node code, so
		// it cannot have sent anything.
		return m, nil
	}
	if cs.routes == nil {
		rec, elapsed, err := cs.recordRoutes()
		if err != nil {
			return diagnose.Measurement{}, err
		}
		cs.routes = rec
		m.Cost, m.Runs = elapsed, 1
	}
	if linkBytes := cs.routes.all.on(link); linkBytes > 0 {
		m.Fraction = cs.routes.stmts[stmt].on(link) / linkBytes
	}
	return m, nil
}

// recordRoutes replays the application with mapping and gating only and
// aggregates every routed message as it goes, keeping no per-message
// log: memory is O(statements × links).
func (cs *consultSession) recordRoutes() (*routeRecording, vtime.Duration, error) {
	tool, run, err := cs.factory()
	if err != nil {
		return nil, 0, err
	}
	tool.EnableDynamicMapping()
	tool.EnableGating()

	// Resolve each statement's block sentences before the run, not per
	// routed message.
	type sender struct {
		bytes *routeBytes
		sents []nv.Sentence
	}
	var senders []sender
	rec := &routeRecording{all: newRouteBytes(), stmts: map[string]*routeBytes{}}
	for _, stmt := range cs.stmts {
		blocks := cs.stmtBlocks[stmt]
		if len(blocks) == 0 {
			continue
		}
		s := sender{bytes: newRouteBytes()}
		for _, blk := range blocks {
			s.sents = append(s.sents, tool.blockSentence(blk))
		}
		senders = append(senders, s)
		rec.stmts[stmt] = s.bytes
	}
	var crossed [][2]int
	tool.mach.OnRoute(func(from, to, bytes int, links []machine.Link, at vtime.Time) {
		if len(links) == 0 {
			return
		}
		crossed = crossed[:0]
		for _, l := range links {
			k := [2]int{min(l.From, l.To), max(l.From, l.To)}
			if !slices.Contains(crossed, k) {
				crossed = append(crossed, k)
			}
		}
		b := float64(bytes)
		rec.all.add(b, crossed)
		sas := tool.SASes.Node(from)
		for _, s := range senders {
			for i := range s.sents {
				if sas.Active(s.sents[i]) {
					s.bytes.add(b, crossed)
					break
				}
			}
		}
	})
	if err := run(); err != nil {
		return nil, 0, err
	}
	return rec, tool.mach.GlobalNow().Sub(0), nil
}
