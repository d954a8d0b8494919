// Package diagnose is the budget-bounded why/where search engine behind
// the Performance Consultant. It owns the search mechanics — a priority
// frontier of (hypothesis, focus) probes ordered by parent fraction, a
// hard probe budget with exact pruning accounting, and the findings tree
// — while delegating every measurement to an Evaluator supplied by the
// caller (the paradyn package adapts its Tool to one). Separating the
// search from the measurement keeps the engine deterministic and unit
// testable: the same evaluator answers produce the same report, byte for
// byte, under any host parallelism.
//
// The search model follows Paradyn's W3 Performance Consultant: why-axis
// hypotheses (where is the time going?) are tested first at the
// whole-program focus; each confirmed hypothesis is refined along the
// where axis by probing child foci (nodes, statements, arrays, hardware
// links), children of high-fraction parents first. Every probe — one
// (hypothesis, focus) evaluation — spends one unit of the budget; when
// the budget runs out the remaining frontier is counted, not silently
// dropped, so a report always states exactly how much of the search
// space it did not look at.
package diagnose

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
	"time"

	"nvmap/internal/vtime"
)

// DefaultBudget bounds a search that did not choose its own probe
// budget: at most this many hypothesis×focus evaluations.
const DefaultBudget = 64

// DefaultMaxDepth bounds refinement depth (0 = whole program).
const DefaultMaxDepth = 3

// FocusWholeProgram is the root focus label every search starts from.
const FocusWholeProgram = "/WholeProgram"

// Source says how a probe's measurement was obtained.
type Source uint8

const (
	// SourceSampled means the value was read from the single base
	// instrumented run (machine counters, classified idle spans, link
	// loads, already-enabled metrics) — no extra execution.
	SourceSampled Source = iota
	// SourceRerun means the probe replayed the application with
	// focus-constrained instrumentation to isolate the value.
	SourceRerun
)

// String renders "sampled" or "re-run".
func (s Source) String() string {
	if s == SourceRerun {
		return "re-run"
	}
	return "sampled"
}

// MarshalText makes Source render as its name in JSON reports.
func (s Source) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses the textual form back (for JSON round-trips).
func (s *Source) UnmarshalText(b []byte) error {
	switch string(b) {
	case "sampled":
		*s = SourceSampled
	case "re-run":
		*s = SourceRerun
	default:
		return fmt.Errorf("diagnose: unknown probe source %q", b)
	}
	return nil
}

// HypothesisSpec declares one why-axis hypothesis to the engine: its
// identity and the fraction above which it is confirmed.
type HypothesisSpec struct {
	ID          string
	Description string
	Threshold   float64
}

// Measurement is one probe's answer.
type Measurement struct {
	// Fraction is the hypothesis's share at the focus — of available
	// node-seconds for time hypotheses, of traffic for link probes.
	Fraction float64
	// Source says whether the base run answered or a replay was needed.
	Source Source
	// Cost is the virtual time the probe consumed: the elapsed time of
	// the replays it triggered, zero for sampled probes and for re-run
	// probes answered from a replay an earlier probe already paid for
	// (the evaluator charges the base run's cost to the first probe).
	Cost vtime.Duration
	// Runs counts the application replays this measurement triggered.
	// The base instrumented run is not a replay.
	Runs int
}

// Evaluator is the measurement side of the search. Implementations must
// be deterministic: the engine calls Eval sequentially and never
// retries, so every answer lands in the report.
type Evaluator interface {
	// Hypotheses lists the why-axis in evaluation order.
	Hypotheses() []HypothesisSpec
	// Eval measures one hypothesis at one focus.
	Eval(hypothesis, focus string) (Measurement, error)
	// Children returns the child foci a confirmed finding refines into,
	// in deterministic order. It must not measure anything; it may note
	// which children one measurement will answer together.
	Children(hypothesis, focus string) []string
}

// Finding is one probed (hypothesis, focus) cell of the findings tree.
type Finding struct {
	Hypothesis string  `json:"hypothesis"`
	Focus      string  `json:"focus"`
	Fraction   float64 `json:"fraction"`
	Threshold  float64 `json:"threshold"`
	Confirmed  bool    `json:"confirmed"`
	Source     Source  `json:"source"`
	Depth      int     `json:"depth"`
	Seq        int     `json:"seq"` // probe evaluation order, 0-based
	// Cost is the virtual time this probe spent (zero for sampled).
	Cost     vtime.Duration `json:"cost_ns"`
	Children []*Finding     `json:"children,omitempty"`
}

// Report is the full outcome of one search, including what it cost.
type Report struct {
	// Roots holds the top-level (whole-program) findings, one per
	// hypothesis probed, sorted by fraction (largest first); confirmed
	// findings carry their refinement subtree.
	Roots []*Finding `json:"roots"`
	// ProbesRun counts evaluations performed; Pruned counts frontier
	// entries the budget cut before they could be evaluated. Their sum
	// is the exact number of probes the search enqueued.
	ProbesRun int `json:"probes_run"`
	Pruned    int `json:"pruned"`
	// Budget echoes the effective probe budget.
	Budget int `json:"budget"`
	// MaxDepth is the deepest refinement level actually probed.
	MaxDepth int `json:"max_depth"`
	// SearchVTime is the virtual time spent acquiring measurements: the
	// base instrumented run plus every focused replay.
	SearchVTime vtime.Duration `json:"search_vtime_ns"`
	// Replays counts the application replays the search ran on top of
	// the base instrumented run (the sum of the measurements' Runs).
	Replays int `json:"replays"`
	// Wall is the host wall-clock the search took. It is the one
	// non-deterministic field; byte-stable renderings omit it.
	Wall time.Duration `json:"wall_ns"`
}

// Engine is a configured search.
type Engine struct {
	// Budget is the maximum number of probes (0 selects DefaultBudget;
	// negative is an error).
	Budget int
	// MaxDepth bounds refinement depth (0 selects DefaultMaxDepth).
	MaxDepth int
	// Threshold, when positive, overrides every hypothesis's own
	// confirmation threshold.
	Threshold float64
	// OnProbe, when set, observes each finding the moment its probe is
	// evaluated (in probe order, before tree sorting, Children nil) —
	// the hook streaming surfaces use to emit findings live.
	OnProbe func(Finding)
}

// entry is one frontier element: a probe waiting to be evaluated.
type entry struct {
	hypothesis string
	focus      string
	threshold  float64
	priority   float64 // parent's fraction; +Inf for top-level probes
	depth      int
	seq        int // enqueue order, the deterministic tie-breaker
	parent     *Finding
}

// frontier is a max-heap on (priority, -seq): highest parent fraction
// first, enqueue order breaking ties.
type frontier []*entry

func (f frontier) Len() int { return len(f) }
func (f frontier) Less(i, j int) bool {
	if f[i].priority != f[j].priority {
		return f[i].priority > f[j].priority
	}
	return f[i].seq < f[j].seq
}
func (f frontier) Swap(i, j int) { f[i], f[j] = f[j], f[i] }
func (f *frontier) Push(x any)   { *f = append(*f, x.(*entry)) }
func (f *frontier) Pop() any {
	old := *f
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*f = old[:n-1]
	return e
}

// Search runs the why/where search over the evaluator and returns the
// report. The search is strictly sequential and deterministic: probes
// are evaluated in priority order (top-level hypotheses first, then
// children of the highest-fraction confirmed parents), each evaluation
// spends one budget unit, and when the budget is exhausted the
// remaining frontier is recorded as Pruned.
func (e *Engine) Search(ev Evaluator) (*Report, error) {
	budget := e.Budget
	if budget == 0 {
		budget = DefaultBudget
	}
	if budget < 0 {
		return nil, fmt.Errorf("diagnose: probe budget must be positive, got %d", e.Budget)
	}
	maxDepth := e.MaxDepth
	if maxDepth == 0 {
		maxDepth = DefaultMaxDepth
	}
	hyps := ev.Hypotheses()
	if len(hyps) == 0 {
		return nil, fmt.Errorf("diagnose: evaluator declares no hypotheses")
	}

	start := time.Now()
	rep := &Report{Budget: budget}
	var fr frontier
	seq := 0
	push := func(en *entry) {
		en.seq = seq
		seq++
		heap.Push(&fr, en)
	}
	for _, h := range hyps {
		thr := h.Threshold
		if e.Threshold > 0 {
			thr = e.Threshold
		}
		push(&entry{
			hypothesis: h.ID, focus: FocusWholeProgram,
			threshold: thr, priority: math.Inf(1),
		})
	}

	for fr.Len() > 0 {
		if rep.ProbesRun >= budget {
			// Exact pruning accounting: every probe still enqueued was
			// cut by the budget, nothing else.
			rep.Pruned = fr.Len()
			break
		}
		en := heap.Pop(&fr).(*entry)
		m, err := ev.Eval(en.hypothesis, en.focus)
		if err != nil {
			return nil, fmt.Errorf("diagnose: probe %s at %s: %w", en.hypothesis, en.focus, err)
		}
		f := &Finding{
			Hypothesis: en.hypothesis,
			Focus:      en.focus,
			Fraction:   m.Fraction,
			Threshold:  en.threshold,
			Confirmed:  m.Fraction > en.threshold,
			Source:     m.Source,
			Depth:      en.depth,
			Seq:        rep.ProbesRun,
			Cost:       m.Cost,
		}
		rep.ProbesRun++
		rep.SearchVTime += m.Cost
		rep.Replays += m.Runs
		if e.OnProbe != nil {
			e.OnProbe(*f)
		}
		if en.depth > rep.MaxDepth {
			rep.MaxDepth = en.depth
		}
		if en.parent == nil {
			rep.Roots = append(rep.Roots, f)
		} else {
			en.parent.Children = append(en.parent.Children, f)
		}
		if f.Confirmed && en.depth < maxDepth {
			for _, child := range ev.Children(en.hypothesis, en.focus) {
				push(&entry{
					hypothesis: en.hypothesis, focus: child,
					threshold: en.threshold, priority: m.Fraction,
					depth: en.depth + 1, parent: f,
				})
			}
		}
	}

	sortTree(rep.Roots)
	rep.Wall = time.Since(start)
	return rep, nil
}

// sortTree orders siblings by fraction (largest first), probe order
// breaking ties, recursively — the display order of the report.
func sortTree(fs []*Finding) {
	sort.SliceStable(fs, func(i, j int) bool {
		if fs[i].Fraction != fs[j].Fraction {
			return fs[i].Fraction > fs[j].Fraction
		}
		return fs[i].Seq < fs[j].Seq
	})
	for _, f := range fs {
		sortTree(f.Children)
	}
}

// Walk visits every finding in display order (parents before children).
func (r *Report) Walk(fn func(*Finding)) {
	var rec func([]*Finding)
	rec = func(fs []*Finding) {
		for _, f := range fs {
			fn(f)
			rec(f.Children)
		}
	}
	rec(r.Roots)
}

// Confirmed counts confirmed top-level hypotheses.
func (r *Report) Confirmed() int {
	n := 0
	for _, f := range r.Roots {
		if f.Confirmed {
			n++
		}
	}
	return n
}
