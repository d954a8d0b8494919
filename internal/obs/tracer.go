package obs

import (
	"fmt"
	"sync"
	"time"

	"nvmap/internal/vtime"
)

// DefaultTraceCapacity bounds the span ring buffer unless Options say
// otherwise. Old spans are evicted but their stage totals are kept, so
// the perturbation report stays exact no matter how long the run.
const DefaultTraceCapacity = 16384

// StageTotals accumulates per-stage aggregates across every recorded
// span, surviving ring-buffer eviction.
type StageTotals struct {
	// Spans is the number of spans (including instants) recorded.
	Spans uint64
	// VTime is the summed virtual-time extent of the spans.
	VTime int64
	// Wall is the summed inclusive wall-clock cost in host nanoseconds.
	Wall int64
	// Self is the summed exclusive wall-clock cost (inclusive minus
	// nested spans), the quantity the perturbation report attributes.
	Self int64
}

// SpanRef identifies an open span between Begin and End. The zero ref
// is invalid; End ignores it, so a nil-tracer fast path can thread a
// zero ref through without branching twice.
type SpanRef struct {
	depth int // 1-based position on the open-span stack
}

// frame is one open span on the nesting stack.
type frame struct {
	span      Span
	wallStart int64
	childWall int64
}

// Tracer records pipeline spans into a bounded ring buffer and
// accumulates per-stage totals. All recording happens on the session's
// driving goroutine (the same single-threaded order as the machine's
// observer stream), so span IDs and the span sequence are byte-stable;
// the mutex exists only so exporters and the HTTP handler can read
// concurrently with a live run.
//
// A nil *Tracer is the disabled state: Begin/End/Event on nil are
// no-ops, making every instrumentation site a single pointer test.
type Tracer struct {
	mu       sync.Mutex
	capacity int // ring capacity; <0 means unbounded
	ring     []Span
	head     int // index of the oldest span when the ring is full
	full     bool
	seq      uint64
	stack    []frame
	totals   [numStages]StageTotals
	dropped  uint64

	wallBase time.Time
	wallFn   func() int64 // stubable wall clock (host ns)
}

// NewTracer builds a tracer. capacity 0 selects DefaultTraceCapacity;
// negative capacity stores every span (package trace uses this for full
// Gantt timelines).
func NewTracer(capacity int) *Tracer {
	if capacity == 0 {
		capacity = DefaultTraceCapacity
	}
	t := &Tracer{capacity: capacity, wallBase: time.Now()}
	t.wallFn = func() int64 { return int64(time.Since(t.wallBase)) }
	return t
}

// SetWallClock replaces the host clock (tests use this to make wall
// costs deterministic).
func (t *Tracer) SetWallClock(fn func() int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.wallFn = fn
	t.mu.Unlock()
}

// WallNow reads the tracer's host clock (the same stubable clock spans
// are costed with), so run-level wall measurements and span self-costs
// share one time base.
func (t *Tracer) WallNow() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.wallFn()
}

// Begin opens a span at virtual instant start. Spans nest: a span
// opened while another is on the stack deducts its wall cost from the
// parent's exclusive self time. Begin on a nil tracer returns the zero
// ref, which End ignores.
func (t *Tracer) Begin(stage Stage, name string, node int, start vtime.Time) SpanRef {
	if t == nil {
		return SpanRef{}
	}
	t.mu.Lock()
	t.seq++
	t.stack = append(t.stack, frame{
		span: Span{
			ID:    t.seq,
			Stage: stage,
			Name:  name,
			Node:  node,
			Start: start,
			End:   start,
		},
		wallStart: t.wallFn(),
	})
	ref := SpanRef{depth: len(t.stack)}
	t.mu.Unlock()
	return ref
}

// End closes the span opened by ref at virtual instant end. Any spans
// opened after ref and still unclosed (a panic path that skipped an
// End) are closed at the same instant first, keeping the stack
// consistent.
func (t *Tracer) End(ref SpanRef, end vtime.Time) {
	if t == nil || ref.depth == 0 {
		return
	}
	t.mu.Lock()
	for len(t.stack) >= ref.depth {
		t.pop(end)
	}
	t.mu.Unlock()
}

// pop closes the top frame at virtual instant end, records the span and
// charges its wall cost to the parent frame. Caller holds mu.
func (t *Tracer) pop(end vtime.Time) {
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	wall := t.wallFn() - f.wallStart
	if wall < 0 {
		wall = 0
	}
	f.span.End = end
	f.span.Wall = wall
	f.span.Self = wall - f.childWall
	if f.span.Self < 0 {
		f.span.Self = 0
	}
	if len(t.stack) > 0 {
		t.stack[len(t.stack)-1].childWall += wall
	}
	t.record(f.span)
}

// Event records an instantaneous span (a point event) at virtual
// instant at. It carries no wall cost.
func (t *Tracer) Event(stage Stage, name string, node int, at vtime.Time) {
	t.Record(stage, name, node, at, at)
}

// Record stores an already-completed span — an interval that happened
// in virtual time without a bracketing Begin/End (machine events
// replayed through observers). It carries no wall cost and does not
// interact with the nesting stack.
func (t *Tracer) Record(stage Stage, name string, node int, start, end vtime.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.seq++
	t.record(Span{ID: t.seq, Stage: stage, Name: name, Node: node, Start: start, End: end})
	t.mu.Unlock()
}

// record stores a finished span in the ring and folds it into the stage
// totals. Caller holds mu.
func (t *Tracer) record(s Span) {
	tot := &t.totals[s.Stage]
	tot.Spans++
	tot.VTime += int64(s.End.Sub(s.Start))
	tot.Wall += s.Wall
	tot.Self += s.Self
	if t.capacity < 0 {
		t.ring = append(t.ring, s)
		return
	}
	if len(t.ring) < t.capacity {
		t.ring = append(t.ring, s)
		return
	}
	t.ring[t.head] = s
	t.head = (t.head + 1) % t.capacity
	t.full = true
	t.dropped++
}

// OpenSpans renders the currently open span stack, outermost first,
// as "stage name@node" strings. The session's governance layer attaches
// it to abort errors so a cut names the pipeline stages it interrupted.
// Nil tracer returns nil.
func (t *Tracer) OpenSpans() []string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.stack) == 0 {
		return nil
	}
	out := make([]string, len(t.stack))
	for i, f := range t.stack {
		s := f.span.Stage.String()
		if f.span.Name != "" {
			s += " " + f.span.Name
		}
		if f.span.Node >= 0 {
			s += fmt.Sprintf("@node%d", f.span.Node)
		}
		out[i] = s
	}
	return out
}

// Spans returns the retained spans in recording order (ascending ID).
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.ring))
	if t.full {
		out = append(out, t.ring[t.head:]...)
		out = append(out, t.ring[:t.head]...)
	} else {
		out = append(out, t.ring...)
	}
	return out
}

// Totals returns a copy of the per-stage aggregates.
func (t *Tracer) Totals() [NumStages]StageTotals {
	var out [NumStages]StageTotals
	if t == nil {
		return out
	}
	t.mu.Lock()
	copy(out[:], t.totals[:])
	t.mu.Unlock()
	return out
}

// Count returns the total number of spans ever recorded (retained or
// evicted).
func (t *Tracer) Count() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq - uint64(len(t.stack))
}

// Dropped returns how many spans the ring has evicted.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}
