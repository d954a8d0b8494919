package machine

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"nvmap/internal/vtime"
)

// recGov records every boundary for determinism comparisons and fails
// once the charged op count passes failAfter (0 = never).
type recGov struct {
	ops       atomic.Int64
	checks    []string
	failAfter int64
	errFail   error
}

func (g *recGov) ChargeOp() { g.ops.Add(1) }

func (g *recGov) Check(op string, node int, now vtime.Time) error {
	g.checks = append(g.checks, fmt.Sprintf("%s/%d@%v ops=%d", op, node, now, g.ops.Load()))
	if g.failAfter > 0 && g.ops.Load() > g.failAfter {
		return g.errFail
	}
	return nil
}

func (g *recGov) ChargeAlloc(bytes int64, now vtime.Time) error { return nil }

// TestGovernorChecksOnceAtRegionEnd pins the governor's check points:
// one before each collective, and one at the end of each ParallelNodes
// loop — after all of its nodes' operations have been charged — never
// between two nodes of a region.
func TestGovernorChecksOnceAtRegionEnd(t *testing.T) {
	m, err := New(DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	g := &recGov{}
	m.SetGovernor(g)
	var want []string
	expect := func(op string, ops int) {
		want = append(want, fmt.Sprintf("%s/%d@%v ops=%d", op, CP, m.GlobalNow(), ops))
	}
	expect("Dispatch", 1)
	m.Dispatch("blk", 16)
	m.ParallelNodes(func(n int) { m.Compute(n, 8192, "big") })
	expect("ParallelNodes", 5)
	m.ParallelNodes(func(n int) { m.Compute(n, 1, "small") })
	expect("ParallelNodes", 9)
	expect("Barrier", 10)
	m.Barrier("sync")
	expect("Reduce", 11)
	m.Reduce(8, "sum")
	if fmt.Sprint(g.checks) != fmt.Sprint(want) {
		t.Fatalf("check transcript\n got: %v\nwant: %v", g.checks, want)
	}
}

// TestGovernorAbortIsTyped: a stop verdict surfaces as a thrown Abort
// carrying the boundary's op, node and pre-operation instant.
func TestGovernorAbortIsTyped(t *testing.T) {
	m, err := New(DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	cause := errors.New("stop now")
	g := &recGov{failAfter: 2, errFail: cause}
	m.SetGovernor(g)
	defer func() {
		v := recover()
		ab, ok := v.(Abort)
		if !ok {
			t.Fatalf("recovered %v, want Abort", v)
		}
		if !errors.Is(ab, cause) {
			t.Fatalf("abort cause %v", ab.Err)
		}
		if ab.Op != "Compute" || ab.Node != 1 {
			t.Fatalf("abort boundary %s/%d", ab.Op, ab.Node)
		}
		if ab.At != m.GlobalNow() {
			t.Fatalf("abort instant %v, machine at %v", ab.At, m.GlobalNow())
		}
	}()
	m.Compute(0, 10, "a")
	m.Compute(0, 10, "b")
	m.Compute(1, 10, "c") // third op: over the ceiling, aborts before running
	t.Fatal("no abort thrown")
}

// TestChargeAllocAborts: the allocation boundary throws too.
func TestChargeAllocAborts(t *testing.T) {
	m, err := New(DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	cause := errors.New("too big")
	m.SetGovernor(&allocGov{limit: 100, err: cause})
	m.ChargeAlloc(64)
	defer func() {
		if ab, ok := recover().(Abort); !ok || !errors.Is(ab, cause) {
			t.Fatalf("recovered %v", ab)
		}
	}()
	m.ChargeAlloc(64)
	t.Fatal("no abort thrown")
}

type allocGov struct {
	total int64
	limit int64
	err   error
}

func (g *allocGov) ChargeOp()                                       {}
func (g *allocGov) Check(op string, node int, now vtime.Time) error { return nil }
func (g *allocGov) ChargeAlloc(bytes int64, now vtime.Time) error {
	g.total += bytes
	if g.total > g.limit {
		return g.err
	}
	return nil
}

// TestResetTransient: after a panic unwinds mid-region, ResetTransient
// re-arms the governor checks the region had suppressed.
func TestResetTransient(t *testing.T) {
	m, err := New(DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	g := &recGov{}
	m.SetGovernor(g)
	func() {
		defer func() { recover() }()
		m.ParallelNodes(func(n int) {
			panic("mid-region")
		})
	}()
	m.ResetTransient()
	m.Barrier("after")
	if len(g.checks) != 1 {
		t.Fatalf("checks after reset: %v, want the Barrier's", g.checks)
	}
}
