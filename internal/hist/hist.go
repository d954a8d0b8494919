// Package hist implements the fixed-size folding time histogram that the
// Paradyn tools use to store metric streams.
//
// A time histogram divides execution time into a fixed number of bins.
// Samples are added at a virtual timestamp and accumulate into the bin
// covering that instant. When a sample arrives beyond the histogram's
// current capacity the histogram folds: adjacent bins are combined and the
// bin width doubles, so the structure covers arbitrarily long executions
// in constant space while keeping a bounded-resolution view of the whole
// run. This is the storage behind every metric-focus pair in package
// paradyn.
package hist

import (
	"fmt"
	"math"
	"strings"

	"nvmap/internal/vtime"
)

// DefaultBins is the bin count used when callers pass 0; Paradyn
// historically used 1000 bins per curve, we default smaller for readable
// ASCII rendering.
const DefaultBins = 240

// Histogram is a fixed-size folding time histogram. The zero value is not
// usable; construct with New. Histogram is not safe for concurrent use;
// the data manager owns each instance.
type Histogram struct {
	bins     []float64
	binWidth vtime.Duration
	start    vtime.Time
	folds    int
	last     vtime.Time // latest sample timestamp seen
	total    float64
}

// New returns a histogram with the given number of bins, each initially
// covering initialWidth of virtual time, starting at the epoch. numBins
// must be even (folding halves the bin count pairwise); 0 selects
// DefaultBins. initialWidth must be positive.
func New(numBins int, initialWidth vtime.Duration) (*Histogram, error) {
	if numBins == 0 {
		numBins = DefaultBins
	}
	if numBins < 2 || numBins%2 != 0 {
		return nil, fmt.Errorf("hist: numBins must be even and >= 2, got %d", numBins)
	}
	if initialWidth <= 0 {
		return nil, fmt.Errorf("hist: initialWidth must be positive, got %v", initialWidth)
	}
	return &Histogram{
		bins:     make([]float64, numBins),
		binWidth: initialWidth,
	}, nil
}

// NumBins returns the (constant) number of bins.
func (h *Histogram) NumBins() int { return len(h.bins) }

// BinWidth returns the current width of each bin; it doubles on each fold.
func (h *Histogram) BinWidth() vtime.Duration { return h.binWidth }

// Folds returns how many times the histogram has folded.
func (h *Histogram) Folds() int { return h.folds }

// Span returns the virtual time currently covered by the histogram.
func (h *Histogram) Span() vtime.Duration {
	return h.binWidth.Scale(len(h.bins))
}

// End returns the first instant beyond the histogram's coverage.
func (h *Histogram) End() vtime.Time { return h.start.Add(h.Span()) }

// Total returns the sum of all accumulated values.
func (h *Histogram) Total() float64 { return h.total }

// Add accumulates value into the bin covering instant at, folding first if
// at lies beyond current coverage. Samples before the histogram start are
// rejected (time is monotone in the simulator, so this indicates a bug in
// the caller).
func (h *Histogram) Add(at vtime.Time, value float64) error {
	if at.Before(h.start) {
		return fmt.Errorf("hist: sample at %v precedes histogram start %v", at, h.start)
	}
	for !at.Before(h.End()) {
		h.fold()
	}
	idx := int(at.Sub(h.start) / h.binWidth)
	h.bins[idx] += value
	h.total += value
	if at.After(h.last) {
		h.last = at
	}
	return nil
}

// AddSpan spreads value uniformly over [from, to), folding as necessary.
// This is how timer metrics deposit an interval of accumulated time so the
// per-bin rates stay meaningful. A zero-length span degenerates to Add.
func (h *Histogram) AddSpan(from, to vtime.Time, value float64) error {
	if to.Before(from) {
		return fmt.Errorf("hist: inverted span [%v, %v)", from, to)
	}
	if from == to {
		return h.Add(from, value)
	}
	if from.Before(h.start) {
		return fmt.Errorf("hist: span start %v precedes histogram start %v", from, h.start)
	}
	// Fold so that to-1 is representable.
	for !(to - 1).Before(h.End()) {
		h.fold()
	}
	span := to.Sub(from)
	first := int(from.Sub(h.start) / h.binWidth)
	last := int((to - 1).Sub(h.start) / h.binWidth)
	for i := first; i <= last; i++ {
		binStart := h.start.Add(h.binWidth.Scale(i))
		binEnd := binStart.Add(h.binWidth)
		ovFrom := from.Max(binStart)
		ovTo := to
		if binEnd.Before(to) {
			ovTo = binEnd
		}
		frac := float64(ovTo.Sub(ovFrom)) / float64(span)
		h.bins[i] += value * frac
	}
	h.total += value
	if (to - 1).After(h.last) {
		h.last = to - 1
	}
	return nil
}

// fold combines pairs of adjacent bins into the lower half and doubles the
// bin width, preserving the total.
func (h *Histogram) fold() {
	n := len(h.bins)
	for i := 0; i < n/2; i++ {
		h.bins[i] = h.bins[2*i] + h.bins[2*i+1]
	}
	for i := n / 2; i < n; i++ {
		h.bins[i] = 0
	}
	h.binWidth *= 2
	h.folds++
}

// Bin returns the accumulated value of bin i.
func (h *Histogram) Bin(i int) float64 { return h.bins[i] }

// BinStart returns the starting instant of bin i.
func (h *Histogram) BinStart(i int) vtime.Time {
	return h.start.Add(h.binWidth.Scale(i))
}

// Rate returns bin i's value divided by the bin width in seconds — the
// mean rate (e.g. operations/second, CPU-seconds/second) over that bin.
func (h *Histogram) Rate(i int) float64 {
	return h.bins[i] / h.binWidth.Seconds()
}

// ValueBetween sums the accumulated values over [from, to), prorating the
// partially covered boundary bins.
func (h *Histogram) ValueBetween(from, to vtime.Time) float64 {
	if to.Before(from) || !from.Before(h.End()) {
		return 0
	}
	if from.Before(h.start) {
		from = h.start
	}
	if h.End().Before(to) {
		to = h.End()
	}
	var sum float64
	first := int(from.Sub(h.start) / h.binWidth)
	last := int((to - 1).Sub(h.start) / h.binWidth)
	for i := first; i <= last && i < len(h.bins); i++ {
		binStart := h.BinStart(i)
		binEnd := binStart.Add(h.binWidth)
		ovFrom := from.Max(binStart)
		ovTo := to
		if binEnd.Before(to) {
			ovTo = binEnd
		}
		frac := float64(ovTo.Sub(ovFrom)) / float64(h.binWidth)
		sum += h.bins[i] * frac
	}
	return sum
}

// Series returns the non-empty prefix of bins as (start, value) points up
// to and including the bin holding the last sample. It returns a copy.
func (h *Histogram) Series() []Point {
	if h.total == 0 && h.last == 0 {
		return nil
	}
	n := int(h.last.Sub(h.start)/h.binWidth) + 1
	if n > len(h.bins) {
		n = len(h.bins)
	}
	out := make([]Point, n)
	for i := 0; i < n; i++ {
		out[i] = Point{Start: h.BinStart(i), Value: h.bins[i]}
	}
	return out
}

// Point is one bin of a histogram series.
type Point struct {
	Start vtime.Time
	Value float64
}

// Max returns the largest bin value (0 for an empty histogram).
func (h *Histogram) Max() float64 {
	m := 0.0
	for _, v := range h.bins {
		if v > m {
			m = v
		}
	}
	return m
}

// Merge adds another histogram's mass into h, preserving totals: each of
// o's populated bins is deposited as a span over its time range. Used by
// the tool to combine the streams of several metric-focus pairs (e.g.
// summing per-node curves into a partition curve).
func (h *Histogram) Merge(o *Histogram) error {
	for i := 0; i < o.NumBins(); i++ {
		v := o.Bin(i)
		if v == 0 {
			continue
		}
		start := o.BinStart(i)
		if err := h.AddSpan(start, start.Add(o.BinWidth()), v); err != nil {
			return err
		}
	}
	return nil
}

// Scale multiplies every bin (and the total) by f, for unit conversions.
func (h *Histogram) Scale(f float64) {
	for i := range h.bins {
		h.bins[i] *= f
	}
	h.total *= f
}

// Sparkline renders the populated prefix of the histogram as a one-line
// ASCII sparkline with the given width, resampling bins as needed. It is
// used by the tool's time-plot visualisation.
func (h *Histogram) Sparkline(width int) string {
	series := h.Series()
	if len(series) == 0 || width <= 0 {
		return ""
	}
	levels := []byte("_.:-=+*#%@")
	resampled := make([]float64, width)
	for i := range resampled {
		lo := i * len(series) / width
		hi := (i + 1) * len(series) / width
		if hi <= lo {
			hi = lo + 1
		}
		var s float64
		for j := lo; j < hi && j < len(series); j++ {
			s += series[j].Value
		}
		resampled[i] = s / float64(hi-lo)
	}
	max := 0.0
	for _, v := range resampled {
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	for _, v := range resampled {
		if max == 0 {
			b.WriteByte(levels[0])
			continue
		}
		idx := int(math.Round(v / max * float64(len(levels)-1)))
		b.WriteByte(levels[idx])
	}
	return b.String()
}
