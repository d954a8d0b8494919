package dyninst

import (
	"fmt"

	"nvmap/internal/vtime"
)

// The paper's dynamic instrumentation defines primitives that implement
// counters and timers; MDL compiles metric descriptions into snippet
// actions over these primitives (Section 6.3).

// label names a primitive: a plain name, or "base[node]" for one member
// of a per-node family. The indexed form is rendered on demand, so
// carving a family formats nothing.
type label struct {
	base    string
	node    int
	perNode bool
}

func (l label) String() string {
	if l.perNode {
		return fmt.Sprintf("%s[%d]", l.base, l.node)
	}
	return l.base
}

// Counter is the counting primitive.
type Counter struct {
	label label
	value float64
}

// NewCounter returns a named counter starting at zero.
func NewCounter(name string) *Counter { return &Counter{label: label{base: name}} }

// NewCounters returns n zeroed counters carved from one allocation, one
// per node starting at first; the counter for node k is named "name[k]".
func NewCounters(name string, first, n int) []Counter {
	cs := make([]Counter, n)
	for i := range cs {
		cs[i].label = label{base: name, node: first + i, perNode: true}
	}
	return cs
}

// Name returns the counter's label.
func (c *Counter) Name() string { return c.label.String() }

// Add increments the counter by v (negative v decrements — MDL uses
// decrements for gauge-style metrics such as messages in flight).
func (c *Counter) Add(v float64) { c.value += v }

// Value reads the counter.
func (c *Counter) Value() float64 { return c.value }

// Reset zeroes the counter (used when a metric-focus pair is disabled and
// later re-enabled).
func (c *Counter) Reset() { c.value = 0 }

// Set overwrites the counter, for checkpoint restore.
func (c *Counter) Set(v float64) { c.value = v }

// TimerKind distinguishes the two clocks Paradyn timers run against.
type TimerKind int

// Timer kinds. On the simulator both read virtual time; a process timer
// is intended to be started/stopped around scheduled work only, while a
// wall timer spans waiting too. The distinction matters to MDL authors,
// not to the primitive.
const (
	ProcessTimer TimerKind = iota
	WallTimer
)

// String names the kind.
func (k TimerKind) String() string {
	if k == ProcessTimer {
		return "process"
	}
	return "wall"
}

// Timer is the timing primitive. Starts nest: the timer accumulates from
// the first Start to the balancing Stop, the way Paradyn timers support
// recursive functions.
type Timer struct {
	label label
	kind  TimerKind
	depth int
	since vtime.Time
	accum vtime.Duration
}

// NewTimer returns a stopped timer.
func NewTimer(name string, kind TimerKind) *Timer {
	return &Timer{label: label{base: name}, kind: kind}
}

// NewTimers returns n stopped timers carved from one allocation, one per
// node starting at first; the timer for node k is named "name[k]".
func NewTimers(name string, kind TimerKind, first, n int) []Timer {
	ts := make([]Timer, n)
	for i := range ts {
		ts[i] = Timer{label: label{base: name, node: first + i, perNode: true}, kind: kind}
	}
	return ts
}

// Name returns the timer's label.
func (t *Timer) Name() string { return t.label.String() }

// Kind returns the timer's clock kind.
func (t *Timer) Kind() TimerKind { return t.kind }

// Start begins (or nests) timing at instant now.
func (t *Timer) Start(now vtime.Time) {
	if t.depth == 0 {
		t.since = now
	}
	t.depth++
}

// Stop ends one nesting level at instant now; the outermost Stop
// accumulates the elapsed span. Stopping a stopped timer is an error —
// unbalanced instrumentation is a bug the tool must surface.
func (t *Timer) Stop(now vtime.Time) error {
	if t.depth == 0 {
		return fmt.Errorf("dyninst: stop of stopped timer %q", t.Name())
	}
	t.depth--
	if t.depth == 0 {
		t.accum += now.Sub(t.since)
	}
	return nil
}

// Running reports whether the timer is started.
func (t *Timer) Running() bool { return t.depth > 0 }

// Value reads the accumulated time as of now (a running timer includes
// its open interval).
func (t *Timer) Value(now vtime.Time) vtime.Duration {
	v := t.accum
	if t.depth > 0 && now.After(t.since) {
		v += now.Sub(t.since)
	}
	return v
}

// Reset stops and zeroes the timer.
func (t *Timer) Reset() {
	t.depth = 0
	t.accum = 0
}

// TimerState is a timer's complete snapshot, including an open nesting.
type TimerState struct {
	Depth int
	Since vtime.Time
	Accum vtime.Duration
}

// State captures the timer for a checkpoint.
func (t *Timer) State() TimerState {
	return TimerState{Depth: t.depth, Since: t.since, Accum: t.accum}
}

// Restore overwrites the timer from a checkpointed state.
func (t *Timer) Restore(st TimerState) {
	t.depth = st.Depth
	t.since = st.Since
	t.accum = st.Accum
}
