package paradyn

import (
	"strings"
	"testing"

	"nvmap/internal/cmf"
	"nvmap/internal/cmrts"
	"nvmap/internal/daemon"
	"nvmap/internal/dyninst"
	"nvmap/internal/machine"
	"nvmap/internal/mapping"
	"nvmap/internal/mdl"
	"nvmap/internal/nv"
	"nvmap/internal/pifgen"
	"nvmap/internal/vtime"
)

const testProgram = `PROGRAM corr
REAL A(128)
REAL B(128)
REAL ASUM
REAL BMAX
FORALL (I = 1:128) A(I) = I
B = A * 2.0
ASUM = SUM(A)
BMAX = MAXVAL(B)
B = CSHIFT(B, 4)
END
`

// app builds a fresh tool + runtime + compiled program runner.
func app(t *testing.T, nodes int, fuse bool) (*Tool, *cmf.Compiled, func() error) {
	t.Helper()
	m, err := machine.New(machine.DefaultConfig(nodes))
	if err != nil {
		t.Fatal(err)
	}
	inst := dyninst.NewManager(dyninst.DefaultCosts(), m.AdvanceNode)
	rt, err := cmrts.New(m, inst, cmrts.DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	tool, err := New(rt, mdl.StdLibrary(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := cmf.CompileSource(testProgram, cmf.Options{Fuse: fuse, SourceFile: "corr.fcm"})
	if err != nil {
		t.Fatal(err)
	}
	f, err := pifgen.FromListing(strings.NewReader(cp.Listing()))
	if err != nil {
		t.Fatal(err)
	}
	if err := tool.LoadPIF(f); err != nil {
		t.Fatal(err)
	}
	ex := cmf.NewExecutor(cp, rt, nil)
	return tool, cp, ex.Run
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, mdl.StdLibrary(), Options{}); err == nil {
		t.Fatal("nil runtime accepted")
	}
}

func TestBaseHierarchies(t *testing.T) {
	tool, _, _ := app(t, 4, false)
	if _, ok := tool.Axis.Find("Machine/node3"); !ok {
		t.Fatal("Machine hierarchy missing node3")
	}
	if _, ok := tool.Axis.Find("Code/" + cmrts.RoutineSend); !ok {
		t.Fatal("Code hierarchy missing CMRTS_send")
	}
}

func TestLoadPIFBuildsStatementHierarchy(t *testing.T) {
	tool, cp, _ := app(t, 2, false)
	if _, ok := tool.Axis.Find("CMFstmts/line6"); !ok {
		t.Fatalf("CMFstmts missing line6:\n%s", tool.Axis.Render())
	}
	blocks := tool.BlocksOf("line6")
	if len(blocks) != 1 || blocks[0] != cp.Infos[6].Block.Name {
		t.Fatalf("BlocksOf(line6) = %v", blocks)
	}
	if stmts := tool.StmtsOf(blocks[0]); len(stmts) != 1 || stmts[0] != "line6" {
		t.Fatalf("StmtsOf = %v", stmts)
	}
	if len(tool.Blocks()) == 0 {
		t.Fatal("no blocks indexed")
	}
}

func TestDynamicMappingTracksArrays(t *testing.T) {
	tool, _, run := app(t, 4, false)
	tool.EnableDynamicMapping()
	if err := run(); err != nil {
		t.Fatal(err)
	}
	ids := tool.ArrayIDs("A")
	if len(ids) != 1 {
		t.Fatalf("ArrayIDs(A) = %v", ids)
	}
	r, ok := tool.Axis.Find("CMFarrays/A")
	if !ok {
		t.Fatalf("CMFarrays/A missing:\n%s", tool.Axis.Render())
	}
	// Subregions appear as children (Figure 8's expanded TOT).
	if len(r.Children()) != 4 {
		t.Fatalf("A has %d subregions, want 4", len(r.Children()))
	}
}

func TestDynamicMappingDeallocation(t *testing.T) {
	m, _ := machine.New(machine.DefaultConfig(2))
	inst := dyninst.NewManager(dyninst.DefaultCosts(), m.AdvanceNode)
	rt, _ := cmrts.New(m, inst, cmrts.DefaultCosts())
	tool, _ := New(rt, mdl.StdLibrary(), Options{})
	tool.EnableDynamicMapping()
	a, err := rt.Allocate("TMP", []int{16})
	if err != nil {
		t.Fatal(err)
	}
	if len(tool.ArrayIDs("TMP")) != 1 {
		t.Fatal("allocation not tracked")
	}
	if err := rt.Free(a); err != nil {
		t.Fatal(err)
	}
	if len(tool.ArrayIDs("TMP")) != 0 {
		t.Fatal("deallocation not tracked")
	}
	if _, ok := tool.Axis.Find("CMFarrays/TMP"); ok {
		t.Fatal("freed array still on axis")
	}
}

func TestWholeProgramMetrics(t *testing.T) {
	tool, _, run := app(t, 4, false)
	sums, err := tool.EnableMetric("summations", WholeProgram())
	if err != nil {
		t.Fatal(err)
	}
	maxes, err := tool.EnableMetric("maxval_count", WholeProgram())
	if err != nil {
		t.Fatal(err)
	}
	p2p, err := tool.EnableMetric("point_to_point_ops", WholeProgram())
	if err != nil {
		t.Fatal(err)
	}
	idle, err := tool.EnableMetric("idle_time", WholeProgram())
	if err != nil {
		t.Fatal(err)
	}
	if err := run(); err != nil {
		t.Fatal(err)
	}
	now := tool.Runtime().Machine().GlobalNow()
	if got := sums.Value(now); got != 1 {
		t.Errorf("summations = %g, want 1", got)
	}
	if got := maxes.Value(now); got != 1 {
		t.Errorf("maxval_count = %g, want 1", got)
	}
	// CSHIFT moved data between nodes.
	if got := p2p.Value(now); got == 0 {
		t.Error("point_to_point_ops = 0")
	}
	// The ground truth agrees.
	if got := p2p.Value(now); int(got) != tool.Runtime().Count(cmrts.RoutineSend) {
		t.Errorf("p2p = %g, runtime counted %d", got, tool.Runtime().Count(cmrts.RoutineSend))
	}
	if idle.Value(now) <= 0 {
		t.Error("idle_time = 0; nodes must wait for dispatches")
	}
}

func TestNodeConstrainedMetric(t *testing.T) {
	tool, _, run := app(t, 4, false)
	node2, ok := tool.Axis.Find("Machine/node2")
	if !ok {
		t.Fatal("node2 missing")
	}
	focus, err := NewFocus(node2)
	if err != nil {
		t.Fatal(err)
	}
	counts, err := tool.EnableMetric("computations", focus)
	if err != nil {
		t.Fatal(err)
	}
	allCounts, err := tool.EnableMetric("computations", WholeProgram())
	if err != nil {
		t.Fatal(err)
	}
	nodeTime, err := tool.EnableMetric("computation_time", focus)
	if err != nil {
		t.Fatal(err)
	}
	allTime, err := tool.EnableMetric("computation_time", WholeProgram())
	if err != nil {
		t.Fatal(err)
	}
	if err := run(); err != nil {
		t.Fatal(err)
	}
	now := tool.Runtime().Machine().GlobalNow()
	if counts.Value(now) == 0 {
		t.Fatal("node-constrained metric saw nothing")
	}
	// Collective-operation counts are focus-width averages: node 2 sees
	// exactly the operations the whole program performed.
	if counts.Value(now) != allCounts.Value(now) {
		t.Fatalf("node2 count (%g) should equal whole-program count (%g)",
			counts.Value(now), allCounts.Value(now))
	}
	// Summed time metrics do shrink with the focus.
	if nodeTime.Value(now) <= 0 || nodeTime.Value(now) >= allTime.Value(now) {
		t.Fatalf("node2 time (%g) should be positive and < whole-program time (%g)",
			nodeTime.Value(now), allTime.Value(now))
	}
	// The constrained value equals the unconstrained instance's node view.
	if nodeTime.Value(now) != allTime.Instance.NodeValue(2, now) {
		t.Fatalf("constrained %g != per-node %g", nodeTime.Value(now), allTime.Instance.NodeValue(2, now))
	}
}

func TestArrayConstrainedMetric(t *testing.T) {
	tool, _, run := app(t, 4, false)
	tool.EnableDynamicMapping()
	tool.EnableGating()

	// Count computations while array B participates. A-only statements
	// (the FORALL and SUM) must not be charged.
	arrB := tool.Axis.AddPath(HierArrays, "B")
	focusB, err := NewFocus(arrB)
	if err != nil {
		t.Fatal(err)
	}
	onB, err := tool.EnableMetric("computations", focusB)
	if err != nil {
		t.Fatal(err)
	}
	all, err := tool.EnableMetric("computations", WholeProgram())
	if err != nil {
		t.Fatal(err)
	}
	if err := run(); err != nil {
		t.Fatal(err)
	}
	now := tool.Runtime().Machine().GlobalNow()
	if onB.Value(now) == 0 {
		t.Fatal("array focus saw nothing")
	}
	if onB.Value(now) >= all.Value(now) {
		t.Fatalf("B-constrained (%g) should be < whole (%g)", onB.Value(now), all.Value(now))
	}
}

func TestArrayFocusRequiresGating(t *testing.T) {
	tool, _, _ := app(t, 2, false)
	arr := tool.Axis.AddPath(HierArrays, "A")
	focus, _ := NewFocus(arr)
	if _, err := tool.EnableMetric("computations", focus); err == nil {
		t.Fatal("array focus without gating accepted")
	}
}

func TestStatementConstrainedMetric(t *testing.T) {
	tool, cp, run := app(t, 4, false)
	tool.EnableGating()

	// Constrain summation counting to the SUM statement's line.
	sumLine := "line" + itoa(findLine(cp, cmf.KindReduce, "SUM"))
	res, ok := tool.Axis.Find("CMFstmts/" + sumLine)
	if !ok {
		t.Fatalf("statement %s missing from axis", sumLine)
	}
	focus, _ := NewFocus(res)
	em, err := tool.EnableMetric("summations", focus)
	if err != nil {
		t.Fatal(err)
	}
	other, err := tool.EnableMetric("maxval_count", focus)
	if err != nil {
		t.Fatal(err)
	}
	if err := run(); err != nil {
		t.Fatal(err)
	}
	now := tool.Runtime().Machine().GlobalNow()
	if em.Value(now) != 1 {
		t.Fatalf("summations at %s = %g, want 1", sumLine, em.Value(now))
	}
	// The MAXVAL happens in a different statement's block: not charged.
	if other.Value(now) != 0 {
		t.Fatalf("maxval_count at %s = %g, want 0", sumLine, other.Value(now))
	}
}

func findLine(cp *cmf.Compiled, kind cmf.StmtKind, intrinsic string) int {
	for line, info := range cp.Infos {
		if info.Kind == kind && info.Intrinsic == intrinsic {
			return line
		}
	}
	return -1
}

func itoa(n int) string {
	if n < 0 {
		return "?"
	}
	digits := ""
	if n == 0 {
		return "0"
	}
	for n > 0 {
		digits = string(rune('0'+n%10)) + digits
		n /= 10
	}
	return digits
}

func TestStatementFocusUnknownStatement(t *testing.T) {
	tool, _, _ := app(t, 2, false)
	tool.EnableGating()
	res := tool.Axis.AddPath(HierStmts, "line999")
	focus, _ := NewFocus(res)
	if _, err := tool.EnableMetric("summations", focus); err == nil {
		t.Fatal("unknown statement focus accepted")
	}
}

func TestCombinedFocus(t *testing.T) {
	tool, _, run := app(t, 4, false)
	tool.EnableGating()
	node1, _ := tool.Axis.Find("Machine/node1")
	stmt, ok := tool.Axis.Find("CMFstmts/line6")
	if !ok {
		t.Fatal("line6 missing")
	}
	focus, err := NewFocus(node1, stmt)
	if err != nil {
		t.Fatal(err)
	}
	em, err := tool.EnableMetric("computations", focus)
	if err != nil {
		t.Fatal(err)
	}
	if err := run(); err != nil {
		t.Fatal(err)
	}
	now := tool.Runtime().Machine().GlobalNow()
	if em.Value(now) == 0 {
		t.Fatal("combined focus saw nothing")
	}
	if got := focus.String(); !strings.Contains(got, "node1") || !strings.Contains(got, "line6") {
		t.Fatalf("focus string = %q", got)
	}
}

func TestDisableFreezesMetric(t *testing.T) {
	tool, _, run := app(t, 2, false)
	em, err := tool.EnableMetric("node_activations", WholeProgram())
	if err != nil {
		t.Fatal(err)
	}
	if err := tool.Disable(em); err != nil {
		t.Fatal(err)
	}
	if err := tool.Disable(em); err == nil {
		t.Fatal("double disable accepted")
	}
	if err := run(); err != nil {
		t.Fatal(err)
	}
	if em.Value(tool.Runtime().Machine().GlobalNow()) != 0 {
		t.Fatal("disabled metric still measured")
	}
}

func TestUnknownMetric(t *testing.T) {
	tool, _, _ := app(t, 2, false)
	if _, err := tool.EnableMetric("ghost", WholeProgram()); err == nil {
		t.Fatal("unknown metric accepted")
	}
}

func TestHistogramStreams(t *testing.T) {
	tool, _, run := app(t, 4, false)
	em, err := tool.EnableMetric("computation_time", WholeProgram())
	if err != nil {
		t.Fatal(err)
	}
	if err := run(); err != nil {
		t.Fatal(err)
	}
	tool.SampleAll(tool.Runtime().Machine().GlobalNow())
	if em.Hist.Total() <= 0 {
		t.Fatal("histogram stayed empty")
	}
	// The histogram total tracks the cumulative value.
	now := tool.Runtime().Machine().GlobalNow()
	if diff := em.Hist.Total() - em.Value(now); diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("hist total %g != value %g", em.Hist.Total(), em.Value(now))
	}
}

func TestPresentUpMergePolicy(t *testing.T) {
	tool, cp, _ := app(t, 2, true) // fused: one block implements two lines
	// Find a block with two statements.
	var fused string
	for _, b := range cp.Blocks {
		if len(b.Lines) == 2 {
			fused = b.Name
		}
	}
	if fused == "" {
		t.Fatal("no fused block in fixture")
	}
	blockNoun, ok := tool.Loaded.NounID(pifgen.LevelBase, fused)
	if !ok {
		t.Fatalf("block noun %q missing", fused)
	}
	cpuVerb, _ := tool.Loaded.VerbID(pifgen.LevelBase, pifgen.VerbCPU)
	src := nv.NewSentence(cpuVerb, blockNoun)
	ms := []mapping.Measurement{{Sentence: src, Cost: nv.Cost{Kind: nv.CostPercent, Value: 80}}}

	merged, unmapped, err := tool.PresentUp(ms, mapping.Merge)
	if err != nil {
		t.Fatal(err)
	}
	if len(unmapped) != 0 || len(merged) != 1 {
		t.Fatalf("merged = %v, unmapped = %v", merged, unmapped)
	}
	if len(merged[0].MergedUnit) != 2 || merged[0].Cost.Value != 80 {
		t.Fatalf("merge = %+v", merged[0])
	}
	split, _, err := tool.PresentUp(ms, mapping.Split)
	if err != nil {
		t.Fatal(err)
	}
	if len(split) != 2 || split[0].Cost.Value != 40 {
		t.Fatalf("split = %+v", split)
	}
}

func TestPresentUpNeedsPIF(t *testing.T) {
	m, _ := machine.New(machine.DefaultConfig(2))
	inst := dyninst.NewManager(dyninst.DefaultCosts(), m.AdvanceNode)
	rt, _ := cmrts.New(m, inst, cmrts.DefaultCosts())
	tool, _ := New(rt, mdl.StdLibrary(), Options{})
	if _, _, err := tool.PresentUp(nil, mapping.Merge); err == nil {
		t.Fatal("PresentUp without PIF accepted")
	}
}

func TestSamplingIsMonotone(t *testing.T) {
	tool, _, run := app(t, 2, false)
	em, err := tool.EnableMetric("computations", WholeProgram())
	if err != nil {
		t.Fatal(err)
	}
	if err := run(); err != nil {
		t.Fatal(err)
	}
	// Out-of-order manual samples must be ignored, not corrupt state.
	tool.SampleAll(tool.Runtime().Machine().GlobalNow())
	tool.SampleAll(0)
	em.Sample(0)
	if em.Hist.Total() < 0 {
		t.Fatal("histogram corrupted by stale sample")
	}
}

var benchSink float64

func BenchmarkGatedMetricRun(b *testing.B) {
	cp, err := cmf.CompileSource(testProgram, cmf.Options{SourceFile: "corr.fcm"})
	if err != nil {
		b.Fatal(err)
	}
	f, err := pifgen.FromListing(strings.NewReader(cp.Listing()))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, _ := machine.New(machine.DefaultConfig(8))
		inst := dyninst.NewManager(dyninst.DefaultCosts(), m.AdvanceNode)
		rt, _ := cmrts.New(m, inst, cmrts.DefaultCosts())
		tool, _ := New(rt, mdl.StdLibrary(), Options{})
		if err := tool.LoadPIF(f); err != nil {
			b.Fatal(err)
		}
		tool.EnableGating()
		em, _ := tool.EnableMetric("computations", WholeProgram())
		if err := cmf.NewExecutor(cp, rt, nil).Run(); err != nil {
			b.Fatal(err)
		}
		benchSink = em.Value(m.GlobalNow())
	}
}

func TestBlockTimersPresentation(t *testing.T) {
	tool, cp, run := app(t, 2, true) // fused: one-to-many mapping exists
	if err := tool.EnableBlockTimers(); err != nil {
		t.Fatal(err)
	}
	if err := tool.EnableBlockTimers(); err == nil {
		t.Fatal("double enable accepted")
	}
	if err := run(); err != nil {
		t.Fatal(err)
	}
	now := tool.Runtime().Machine().GlobalNow()

	ms, err := tool.BlockMeasurements(now)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != len(cp.Blocks) {
		t.Fatalf("measurements = %d, blocks = %d", len(ms), len(cp.Blocks))
	}
	var total float64
	for _, m := range ms {
		if m.Cost.Kind != nv.CostPercent || m.Cost.Value < 0 {
			t.Fatalf("measurement = %+v", m)
		}
		total += m.Cost.Value
	}
	if total <= 0 || total > 100 {
		t.Fatalf("total block CPU = %g%%, expected in (0, 100]", total)
	}

	merged, err := tool.PresentBlockTimes(now, mapping.Merge)
	if err != nil {
		t.Fatal(err)
	}
	split, err := tool.PresentBlockTimes(now, mapping.Split)
	if err != nil {
		t.Fatal(err)
	}
	// The fused block's two lines appear as one merged unit vs two split rows.
	if len(split) <= len(merged) {
		t.Fatalf("split rows (%d) should exceed merged rows (%d)", len(split), len(merged))
	}
	foundMergedUnit := false
	for _, r := range merged {
		if strings.Contains(r.Focus, " + ") {
			foundMergedUnit = true
		}
	}
	if !foundMergedUnit {
		t.Fatalf("no merged unit in %v", merged)
	}
	// Conservation: both policies account the same total.
	sum := func(rows []Row) float64 {
		var s float64
		for _, r := range rows {
			s += r.Value
		}
		return s
	}
	if d := sum(split) - sum(merged); d > 1e-9 || d < -1e-9 {
		t.Fatalf("policies disagree on total: %g vs %g", sum(split), sum(merged))
	}
}

func TestBlockTimersRequirePIF(t *testing.T) {
	m, _ := machine.New(machine.DefaultConfig(2))
	inst := dyninst.NewManager(dyninst.DefaultCosts(), m.AdvanceNode)
	rt, _ := cmrts.New(m, inst, cmrts.DefaultCosts())
	tool, _ := New(rt, mdl.StdLibrary(), Options{})
	if err := tool.EnableBlockTimers(); err == nil {
		t.Fatal("block timers without PIF accepted")
	}
	if _, err := tool.BlockMeasurements(0); err == nil {
		t.Fatal("measurements without timers accepted")
	}
}

func TestDynamicMappingFlowsOverDaemonChannel(t *testing.T) {
	tool, _, run := app(t, 2, false)
	tool.EnableDynamicMapping()
	if err := run(); err != nil {
		t.Fatal(err)
	}
	st := tool.Channel().Stats()
	// Two arrays (A and B) were allocated: two noun definitions crossed
	// the channel.
	if st.ByKind[daemon.KindNounDef] != 2 {
		t.Fatalf("noun defs over channel = %d, want 2 (%+v)", st.ByKind[daemon.KindNounDef], st)
	}
	if st.Delivered == 0 {
		t.Fatal("nothing drained from the channel")
	}
	// The data manager applied them.
	if len(tool.ArrayIDs("A")) != 1 {
		t.Fatal("allocation not applied from channel")
	}
}

func TestChannelDrainOnAccessor(t *testing.T) {
	// An allocation with no subsequent machine events must still become
	// visible when the tool's read side is queried (ArrayIDs drains).
	m, _ := machine.New(machine.DefaultConfig(2))
	inst := dyninst.NewManager(dyninst.DefaultCosts(), m.AdvanceNode)
	rt, _ := cmrts.New(m, inst, cmrts.DefaultCosts())
	tool, _ := New(rt, mdl.StdLibrary(), Options{})
	tool.EnableDynamicMapping()
	if _, err := rt.Allocate("LATE", []int{8}); err != nil {
		t.Fatal(err)
	}
	if got := tool.ArrayIDs("LATE"); len(got) != 1 {
		t.Fatalf("ArrayIDs after accessor drain = %v", got)
	}
}

// The gating snippets reuse the previous dispatch's sentences only when
// block and argument contents match. A dispatcher that rewrites one
// argument slice between two dispatches of the same block must see the
// new array activated, not the cached one.
func TestGatingReResolvesRewrittenArguments(t *testing.T) {
	tool, _, _ := app(t, 2, false)
	tool.EnableGating()
	args := []string{"id1", "id2"}
	ctx := dyninst.Context{Node: 1, Tag: "blk", Args: args}
	fire := func(p dyninst.PointID, now vtime.Time) {
		ctx.Now = now
		tool.Inst().Fire(p, ctx)
	}
	s := tool.SASes.Node(1)
	active := func(verb nv.VerbID, noun string) bool { return s.Active(nv.NewSentence(verb, nv.NounID(noun))) }

	fire(dyninst.Entry(cmrts.RoutineDispatch), 1)
	if !active(VerbBlockExec, "blk") || !active(VerbArrayActive, "id1") || !active(VerbArrayActive, "id2") {
		t.Fatalf("first dispatch: active set %v", s.Snapshot())
	}
	fire(dyninst.Exit(cmrts.RoutineDispatch), 2)
	args[1] = "id3"
	fire(dyninst.Entry(cmrts.RoutineDispatch), 3)
	if !active(VerbArrayActive, "id3") || active(VerbArrayActive, "id2") {
		t.Fatalf("rewritten dispatch: active set %v, want {id3 ArrayActive} and not {id2 ArrayActive}", s.Snapshot())
	}
	fire(dyninst.Exit(cmrts.RoutineDispatch), 4)
	if n := s.Size(); n != 0 {
		t.Fatalf("%d sentences still active after the exit: %v", n, s.Snapshot())
	}
	if st := s.Stats(); st.Notifications != 12 || st.Stored != 12 {
		t.Fatalf("stats = %+v, want 12 stored notifications", st)
	}
}
