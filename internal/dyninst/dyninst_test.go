package dyninst

import (
	"strings"
	"testing"
	"testing/quick"

	"nvmap/internal/vtime"
)

func TestUninstrumentedPointIsFree(t *testing.T) {
	var charged vtime.Duration
	m := NewManager(DefaultCosts(), func(node int, d vtime.Duration) { charged += d })
	m.Fire(Entry("fn"), Context{Node: 0, Now: 10})
	if charged != 0 {
		t.Fatalf("uninstrumented point charged %v", charged)
	}
	if st := m.Stats(); st.Fires != 0 || st.Perturbation != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestInsertFireRemove(t *testing.T) {
	var fired int
	var charged vtime.Duration
	m := NewManager(DefaultCosts(), func(node int, d vtime.Duration) { charged += d })
	h := m.Insert(Entry("send"), Snippet{
		Name: "count sends",
		Do:   func(ctx Context) { fired++ },
	})
	m.Fire(Entry("send"), Context{Node: 1, Now: 5})
	m.Fire(Entry("send"), Context{Node: 1, Now: 6})
	if fired != 2 {
		t.Fatalf("fired = %d", fired)
	}
	if charged != 2*DefaultCosts().PerFire {
		t.Fatalf("perturbation = %v", charged)
	}
	if !m.Instrumented(Entry("send")) {
		t.Fatal("point not reported instrumented")
	}
	if err := m.Remove(h); err != nil {
		t.Fatal(err)
	}
	m.Fire(Entry("send"), Context{Node: 1, Now: 7})
	if fired != 2 {
		t.Fatal("fired after removal")
	}
	if err := m.Remove(h); err == nil {
		t.Fatal("double removal accepted")
	}
	if m.Instrumented(Entry("send")) {
		t.Fatal("point still instrumented after removal")
	}
}

func TestPredicateGuards(t *testing.T) {
	gate := false
	var fired int
	m := NewManager(DefaultCosts(), nil)
	m.Insert(Exit("reduce"), Snippet{
		Name: "guarded",
		When: func(Context) bool { return gate },
		Do:   func(Context) { fired++ },
	})
	m.Fire(Exit("reduce"), Context{})
	if fired != 0 {
		t.Fatal("predicate did not suppress")
	}
	gate = true
	m.Fire(Exit("reduce"), Context{})
	if fired != 1 {
		t.Fatal("predicate did not pass")
	}
	st := m.Stats()
	if st.Suppressed != 1 || st.Fires != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Suppressed snippets still cost their predicate evaluation — the
	// paper's limitation-2 economics.
	wantPerturb := 2*DefaultCosts().PerPredicate + DefaultCosts().PerFire
	if st.Perturbation != wantPerturb {
		t.Fatalf("perturbation = %v, want %v", st.Perturbation, wantPerturb)
	}
}

func TestMultipleSnippetsAtOnePoint(t *testing.T) {
	var order []string
	m := NewManager(CostModel{}, nil)
	m.Insert(Entry("f"), Snippet{Name: "a", Do: func(Context) { order = append(order, "a") }})
	h := m.Insert(Entry("f"), Snippet{Name: "b", Do: func(Context) { order = append(order, "b") }})
	m.Insert(Entry("f"), Snippet{Name: "c", Do: func(Context) { order = append(order, "c") }})
	m.Fire(Entry("f"), Context{})
	if len(order) != 3 || order[0] != "a" || order[2] != "c" {
		t.Fatalf("order = %v", order)
	}
	if err := m.Remove(h); err != nil {
		t.Fatal(err)
	}
	order = nil
	m.Fire(Entry("f"), Context{})
	if len(order) != 2 || order[0] != "a" || order[1] != "c" {
		t.Fatalf("after middle removal order = %v", order)
	}
}

func TestRemoveAll(t *testing.T) {
	m := NewManager(CostModel{}, nil)
	m.Insert(Mapping("alloc"), Snippet{Name: "x"})
	m.Insert(Mapping("alloc"), Snippet{Name: "y"})
	if n := m.RemoveAll(Mapping("alloc")); n != 2 {
		t.Fatalf("RemoveAll = %d", n)
	}
	if n := m.RemoveAll(Mapping("alloc")); n != 0 {
		t.Fatalf("second RemoveAll = %d", n)
	}
	if st := m.Stats(); st.Removed != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestActivePoints(t *testing.T) {
	m := NewManager(CostModel{}, nil)
	m.Insert(Exit("b"), Snippet{})
	m.Insert(Entry("a"), Snippet{})
	m.Insert(Entry("b"), Snippet{})
	pts := m.ActivePoints()
	if len(pts) != 3 {
		t.Fatalf("ActivePoints = %v", pts)
	}
	if pts[0] != Entry("a") || pts[1] != Entry("b") || pts[2] != Exit("b") {
		t.Fatalf("order = %v", pts)
	}
}

func TestContextArgsVisible(t *testing.T) {
	m := NewManager(CostModel{}, nil)
	var seen []string
	m.Insert(Entry("block"), Snippet{
		Do: func(ctx Context) { seen = append([]string(nil), ctx.Args...) },
	})
	m.Fire(Entry("block"), Context{Args: []string{"A", "B"}})
	if len(seen) != 2 || seen[0] != "A" {
		t.Fatalf("args = %v", seen)
	}
}

func TestPointIDStrings(t *testing.T) {
	if Entry("f").String() != "f:entry" || Exit("f").String() != "f:exit" ||
		Mapping("f").String() != "f:mapping" {
		t.Fatal("PointID.String wrong")
	}
	if PointKind(9).String() == "" {
		t.Fatal("unknown kind should still render")
	}
}

func TestCounter(t *testing.T) {
	c := NewCounter("msgs")
	if c.Name() != "msgs" || c.Value() != 0 {
		t.Fatal("fresh counter wrong")
	}
	c.Add(3)
	c.Add(-1)
	if c.Value() != 2 {
		t.Fatalf("Value = %g", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Fatal("Reset failed")
	}
}

// A per-node family is independent primitives labelled "name[node]" from
// the first node up, the control processor's -1 included.
func TestPerNodePrimitiveFamilies(t *testing.T) {
	cs := NewCounters("msgs", -1, 3)
	ts := NewTimers("sendTime", WallTimer, -1, 3)
	for i, want := range []string{"[-1]", "[0]", "[1]"} {
		if got := cs[i].Name(); got != "msgs"+want {
			t.Errorf("counter %d named %q", i, got)
		}
		if got := ts[i].Name(); got != "sendTime"+want || ts[i].Kind() != WallTimer {
			t.Errorf("timer %d named %q, kind %v", i, got, ts[i].Kind())
		}
	}
	cs[1].Add(2)
	ts[1].Start(10)
	if cs[0].Value() != 0 || cs[2].Value() != 0 || ts[0].Running() || ts[2].Running() {
		t.Fatal("a family member's update leaked into its neighbours")
	}
	if err := ts[0].Stop(20); err == nil || !strings.Contains(err.Error(), `"sendTime[-1]"`) {
		t.Fatalf("stop of a stopped family timer: %v", err)
	}
}

func TestTimerBasics(t *testing.T) {
	tm := NewTimer("sendTime", ProcessTimer)
	if tm.Running() {
		t.Fatal("fresh timer running")
	}
	tm.Start(100)
	if !tm.Running() {
		t.Fatal("timer not running after Start")
	}
	if got := tm.Value(150); got != 50 {
		t.Fatalf("open Value = %v", got)
	}
	if err := tm.Stop(160); err != nil {
		t.Fatal(err)
	}
	if got := tm.Value(1000); got != 60 {
		t.Fatalf("closed Value = %v", got)
	}
	if err := tm.Stop(170); err == nil {
		t.Fatal("stop of stopped timer accepted")
	}
}

func TestTimerNesting(t *testing.T) {
	tm := NewTimer("recur", WallTimer)
	tm.Start(10)
	tm.Start(20) // nested — no effect on the open interval
	if err := tm.Stop(30); err != nil {
		t.Fatal(err)
	}
	if tm.Value(35) != 25 {
		t.Fatalf("nested open Value = %v", tm.Value(35))
	}
	if err := tm.Stop(40); err != nil {
		t.Fatal(err)
	}
	if tm.Value(100) != 30 {
		t.Fatalf("Value = %v, want 30 (10..40 once)", tm.Value(100))
	}
	if tm.Kind() != WallTimer || tm.Kind().String() != "wall" {
		t.Fatal("kind wrong")
	}
	if ProcessTimer.String() != "process" {
		t.Fatal("process kind name wrong")
	}
}

func TestTimerReset(t *testing.T) {
	tm := NewTimer("x", ProcessTimer)
	tm.Start(5)
	tm.Reset()
	if tm.Running() || tm.Value(100) != 0 {
		t.Fatal("Reset did not clear state")
	}
}

// Property: balanced nested Start/Stop pairs accumulate exactly the span
// from the first Start to the last Stop of each outermost group.
func TestTimerBalanceProperty(t *testing.T) {
	f := func(spans []uint8) bool {
		tm := NewTimer("p", ProcessTimer)
		var now vtime.Time
		var want vtime.Duration
		for _, s := range spans {
			now = now.Add(vtime.Duration(s) + 1)
			start := now
			depth := int(s%3) + 1
			for i := 0; i < depth; i++ {
				tm.Start(now)
				now = now.Add(1)
			}
			for i := 0; i < depth; i++ {
				if err := tm.Stop(now); err != nil {
					return false
				}
				now = now.Add(1)
			}
			// Outermost stop happened at now-depth (after the last Stop the
			// clock advanced once more per stop). Recompute directly:
			stopAt := start.Add(vtime.Duration(2*depth - 1))
			want += stopAt.Sub(start)
		}
		return tm.Value(now) == want && !tm.Running()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: perturbation equals PerFire*fires + PerPredicate*evaluations
// at a point mixing guarded and unguarded snippets. The callback is
// charged only for contexts naming a node (Node -1 is the control
// processor), Stats counts every fire, and a manager without a callback
// keeps the same statistics.
func TestPerturbationAccountingProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		costs := CostModel{PerFire: 7, PerPredicate: 3}
		var charged vtime.Duration
		withCB := NewManager(costs, func(node int, d vtime.Duration) { charged += d })
		noCB := NewManager(costs, nil)
		var op uint8
		for _, m := range []*Manager{withCB, noCB} {
			m.Insert(Entry("f"), Snippet{Do: func(Context) {}})
			m.Insert(Entry("f"), Snippet{When: func(Context) bool { return op&1 != 0 }, Do: func(Context) {}})
			m.Insert(Entry("f"), Snippet{})
			m.Insert(Entry("f"), Snippet{When: func(Context) bool { return op&2 != 0 }})
			m.Insert(Exit("f"), Snippet{Do: func(Context) {}})
		}
		var fires, evals, suppressed int
		var wantCharged vtime.Duration
		for _, op = range ops {
			ctx := Context{Node: int(op>>2)%3 - 1}
			// The entry runs two unguarded snippets and two guarded ones
			// (bits 0 and 1 pass them); the exit one unguarded snippet.
			p, guards, passed, unguarded := Entry("f"), 2, 0, 2
			if op&1 != 0 {
				passed++
			}
			if op&2 != 0 {
				passed++
			}
			if op&32 != 0 {
				p, guards, passed, unguarded = Exit("f"), 0, 0, 1
			}
			withCB.Fire(p, ctx)
			noCB.Fire(p, ctx)
			fires += unguarded + passed
			evals += guards
			suppressed += guards - passed
			if ctx.Node >= 0 {
				wantCharged += costs.PerFire.Scale(unguarded+passed) + costs.PerPredicate.Scale(guards)
			}
		}
		want := Stats{
			Inserted:     5,
			Fires:        fires,
			Suppressed:   suppressed,
			Perturbation: costs.PerFire.Scale(fires) + costs.PerPredicate.Scale(evals),
		}
		return charged == wantCharged && withCB.Stats() == want && noCB.Stats() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// A snippet that removes itself or a sibling mid-fire must not disturb
// the fire in progress: every snippet of the list the fire started with
// runs once, in order, and the removal shows from the next fire. A
// snippet inserted mid-fire likewise runs from the next fire.
func TestRemoveAndInsertDuringFire(t *testing.T) {
	m := NewManager(CostModel{}, nil)
	var order []string
	var self, sibling Handle
	self = m.Insert(Entry("f"), Snippet{Name: "a", Do: func(Context) {
		order = append(order, "a")
		if err := m.Remove(self); err != nil {
			t.Error(err)
		}
		m.Insert(Entry("f"), Snippet{Name: "d", Do: func(Context) { order = append(order, "d") }})
	}})
	removed := false
	m.Insert(Entry("f"), Snippet{Name: "b", Do: func(Context) {
		order = append(order, "b")
		if !removed {
			removed = true
			if err := m.Remove(sibling); err != nil {
				t.Error(err)
			}
		}
	}})
	sibling = m.Insert(Entry("f"), Snippet{Name: "c", Do: func(Context) { order = append(order, "c") }})
	m.Fire(Entry("f"), Context{})
	if got := strings.Join(order, " "); got != "a b c" {
		t.Fatalf("first fire ran [%s], want [a b c]", got)
	}
	order = nil
	m.Fire(Entry("f"), Context{})
	if got := strings.Join(order, " "); got != "b d" {
		t.Fatalf("second fire ran [%s], want [b d]", got)
	}
	if st := m.Stats(); st.Fires != 5 || st.Removed != 2 || st.Inserted != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

func BenchmarkFireUninstrumented(b *testing.B) {
	m := NewManager(DefaultCosts(), nil)
	p := Entry("hot")
	ctx := Context{Node: 0}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Fire(p, ctx)
	}
}

func BenchmarkFireCounting(b *testing.B) {
	m := NewManager(DefaultCosts(), nil)
	c := NewCounter("n")
	m.Insert(Entry("hot"), Snippet{Do: func(Context) { c.Add(1) }})
	p := Entry("hot")
	ctx := Context{Node: 0}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Fire(p, ctx)
	}
}

func BenchmarkFireGuardedSuppressed(b *testing.B) {
	m := NewManager(DefaultCosts(), nil)
	m.Insert(Entry("hot"), Snippet{
		When: func(Context) bool { return false },
		Do:   func(Context) {},
	})
	p := Entry("hot")
	ctx := Context{Node: 0}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Fire(p, ctx)
	}
}
