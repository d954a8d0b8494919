package machine

import (
	"fmt"
	"testing"

	"nvmap/internal/obs"
	"nvmap/internal/vtime"
)

// TestParallelNodesIsTheNodeLoop pins what ParallelNodes promises:
// f runs once per node in node-id order, every event reaches the
// observers as it happens (so an observer reading GlobalNow sees the
// clocks of nodes already done and not yet started), and the loop is
// bracketed by exactly one region span from entry clock to exit clock.
func TestParallelNodesIsTheNodeLoop(t *testing.T) {
	m, err := New(DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer(-1)
	m.SetObs(tr)
	// Skew the entry clocks: node 3 is far ahead, node 0 far behind.
	for n := 0; n < 4; n++ {
		m.AdvanceNode(n, vtime.Duration(n)*vtime.Millisecond)
	}
	entry := m.GlobalNow()
	var order []int
	var reads []vtime.Time
	m.Observe(func(e Event) {
		order = append(order, e.Node)
		reads = append(reads, m.GlobalNow())
	})
	m.ParallelNodes(func(n int) { m.Compute(n, 1000*(n+1), "skewed") })

	if fmt.Sprint(order) != "[0 1 2 3]" {
		t.Fatalf("event order %v, want node-id order", order)
	}
	for n, got := range reads {
		// Node 3 entered furthest ahead, so until it runs the global
		// clock is its entry clock; after, its exit clock.
		want := entry
		if n == 3 {
			want = m.Now(3)
		}
		if got != want {
			t.Fatalf("GlobalNow at node %d's event: %v, want %v", n, got, want)
		}
	}
	spans := tr.Spans()
	if len(spans) != 1 {
		t.Fatalf("%d spans, want one region span: %+v", len(spans), spans)
	}
	s := spans[0]
	if s.Stage != obs.StageRegion || s.Node != obs.NodeCP || s.Start != entry || s.End != m.GlobalNow() {
		t.Fatalf("region span %+v, want CP region [%v, %v]", s, entry, m.GlobalNow())
	}
}

// TestNestedRegionRunsInline: a ParallelNodes call from inside a region
// body is a plain nested loop, and the governor check waits for the
// outermost region's end.
func TestNestedRegionRunsInline(t *testing.T) {
	m, err := New(DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	g := &recGov{}
	m.SetGovernor(g)
	var events int
	m.Observe(func(Event) { events++ })
	m.ParallelNodes(func(n int) {
		if n == 1 {
			m.ParallelNodes(func(inner int) {
				if inner == n {
					m.Compute(inner, 5, "nested")
				}
			})
		}
		m.Compute(n, 5, "outer")
	})
	if events != 5 {
		t.Fatalf("saw %d events, want 5 (4 outer + 1 nested)", events)
	}
	if len(g.checks) != 1 || g.ops.Load() != 5 {
		t.Fatalf("checks %v after %d ops, want one check after 5 ops", g.checks, g.ops.Load())
	}
}

func ExampleMachine_ParallelNodes() {
	m, _ := New(DefaultConfig(4))
	m.ParallelNodes(func(n int) {
		m.Compute(n, 4096, "elementwise")
	})
	fmt.Println(m.Stats(0).ComputeOps)
	// Output: 4096
}
