package obs

import (
	"sort"
	"sync"
	"sync/atomic"

	"nvmap/internal/hist"
	"nvmap/internal/vtime"
)

// Kind classifies a registered metric.
type Kind int

// The metric kinds, matching Prometheus metric types.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String names the kind in Prometheus vocabulary.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Counter is a monotonically increasing metric. The zero value is
// usable but normally obtained from Registry.Counter. Methods on a nil
// counter are no-ops, so disabled-plane code paths need no branching.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (negative deltas are ignored; counters are monotone).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. Methods on nil are no-ops.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adjusts by n.
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Max raises the gauge to n if n is larger (a high-water mark).
func (g *Gauge) Max(n int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// VHist is a virtual-time histogram metric: observations are deposited
// at (or over) virtual instants into an internal/hist folding
// histogram, and exported as count/sum plus the folded series. Methods
// on nil are no-ops.
type VHist struct {
	mu    sync.Mutex
	h     *hist.Histogram
	count uint64
}

// Observe deposits value at virtual instant at.
func (v *VHist) Observe(at vtime.Time, value float64) {
	if v == nil {
		return
	}
	v.mu.Lock()
	v.count++
	_ = v.h.Add(at, value) // monotone virtual time; Add only fails on regression
	v.mu.Unlock()
}

// ObserveSpan spreads value over the virtual interval [from, to).
func (v *VHist) ObserveSpan(from, to vtime.Time, value float64) {
	if v == nil {
		return
	}
	v.mu.Lock()
	v.count++
	_ = v.h.AddSpan(from, to, value)
	v.mu.Unlock()
}

// snapshot returns (count, sum) under the lock.
func (v *VHist) snapshot() (uint64, float64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.count, v.h.Total()
}

// Sparkline renders the histogram's populated prefix (for the debug
// handler).
func (v *VHist) Sparkline(width int) string {
	if v == nil {
		return ""
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.h.Sparkline(width)
}

// metricFunc is a pull-model collector: a metric whose value is read
// from component state at snapshot time.
type metricFunc struct {
	kind Kind
	fn   func() float64
}

// entry is one registered metric.
type entry struct {
	name     string
	help     string
	kind     Kind
	unstable bool
	counter  *Counter
	gauge    *Gauge
	vhist    *VHist
	fn       *metricFunc
}

// Registry holds a session's metrics. Registration is cheap and
// idempotent by name (re-registering returns the existing instrument).
// Snapshot produces a deterministic, name-sorted view.
//
// Metrics marked unstable carry values that legitimately differ from
// run to run (interner growth and other process history, wall-clock
// costs); exporters exclude them from byte-stable golden output unless
// asked.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*entry
	histCap int
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

// Counter returns the counter registered under name, creating it with
// the given help text on first use. Nil-safe: a nil registry returns a
// nil counter whose methods are no-ops.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[name]; ok {
		return e.counter
	}
	c := &Counter{}
	r.entries[name] = &entry{name: name, help: help, kind: KindCounter, counter: c}
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[name]; ok {
		return e.gauge
	}
	g := &Gauge{}
	r.entries[name] = &entry{name: name, help: help, kind: KindGauge, gauge: g}
	return g
}

// Histogram returns the virtual-time histogram registered under name,
// creating it on first use with binWidth as the initial bin width (0
// selects one virtual millisecond).
func (r *Registry) Histogram(name, help string, binWidth vtime.Duration) *VHist {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[name]; ok {
		return e.vhist
	}
	if binWidth <= 0 {
		binWidth = vtime.Millisecond
	}
	h, err := hist.New(64, binWidth)
	if err != nil {
		panic("obs: histogram construction: " + err.Error())
	}
	v := &VHist{h: h}
	r.entries[name] = &entry{name: name, help: help, kind: KindHistogram, vhist: v}
	return v
}

// Func registers a pull-model collector: fn is called at snapshot time.
// unstable marks metrics whose values differ with process history or
// wall clock; stable exports exclude them. Re-registering a name
// replaces the previous collector (a session re-wiring its components).
func (r *Registry) Func(name, help string, kind Kind, unstable bool, fn func() float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.entries[name] = &entry{
		name: name, help: help, kind: kind, unstable: unstable,
		fn: &metricFunc{kind: kind, fn: fn},
	}
	r.mu.Unlock()
}

// Sample is one metric's value in a Snapshot.
type Sample struct {
	Name     string
	Help     string
	Kind     Kind
	Unstable bool
	// Value holds the reading for counters, gauges and funcs.
	Value float64
	// Count and Sum hold the reading for histograms.
	Count uint64
	Sum   float64
}

// Snapshot reads every registered metric and returns the samples sorted
// by name. When includeUnstable is false, metrics registered as
// unstable are omitted — this is the byte-stable view the golden tests
// compare.
func (r *Registry) Snapshot(includeUnstable bool) []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	ents := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		ents = append(ents, e)
	}
	r.mu.Unlock()
	sort.Slice(ents, func(i, j int) bool { return ents[i].name < ents[j].name })
	out := make([]Sample, 0, len(ents))
	for _, e := range ents {
		if e.unstable && !includeUnstable {
			continue
		}
		s := Sample{Name: e.name, Help: e.help, Kind: e.kind, Unstable: e.unstable}
		switch {
		case e.counter != nil:
			s.Value = float64(e.counter.Value())
		case e.gauge != nil:
			s.Value = float64(e.gauge.Value())
		case e.vhist != nil:
			s.Count, s.Sum = e.vhist.snapshot()
		case e.fn != nil:
			s.Value = e.fn.fn()
		}
		out = append(out, s)
	}
	return out
}

// Lookup returns the sample for a single metric (and whether it
// exists) — convenience for tests and shims.
func (r *Registry) Lookup(name string) (Sample, bool) {
	for _, s := range r.Snapshot(true) {
		if s.Name == name {
			return s, true
		}
	}
	return Sample{}, false
}
