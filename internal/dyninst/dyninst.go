// Package dyninst simulates the dynamic instrumentation technology the
// paper builds on (Hollingsworth, Miller & Cargille; Section 4.1): an
// external tool changes the image of a running executable to collect
// performance data. The technique defines points at which instrumentation
// can be inserted, predicates that guard the firing of instrumentation
// code, and primitives that implement counters and timers.
//
// Our "executable" is the simulated runtime of packages cmrts/cmf, which
// fires well-known points (function entry/exit, mapping points such as
// array-allocation returns) as it executes. A Manager holds the snippets
// currently inserted at each point; inserting and deleting snippets while
// the application runs is the whole point of the technology — "any point
// that does not contain instrumentation does not cause any execution
// perturbations."
//
// Perturbation is modelled honestly: every fired snippet (and every
// predicate evaluation that suppresses one) charges a configurable cost to
// the node that executed it, so experiments can compare dynamic
// instrumentation against always-on instrumentation quantitatively.
package dyninst

import (
	"fmt"
	"sort"
	"sync/atomic"

	"nvmap/internal/vtime"
)

// PointKind says where in a function a point sits.
type PointKind int

// Point kinds. MappingPoint marks designated mapping points (Section
// 4.1): e.g. the return point of a runtime routine that allocates
// parallel data objects, where data-to-processor mappings become known.
const (
	PointEntry PointKind = iota
	PointExit
	MappingPoint
)

// String names the kind.
func (k PointKind) String() string {
	switch k {
	case PointEntry:
		return "entry"
	case PointExit:
		return "exit"
	case MappingPoint:
		return "mapping"
	default:
		return fmt.Sprintf("PointKind(%d)", int(k))
	}
}

// PointID identifies one instrumentation point in the executable image.
type PointID struct {
	Function string
	Where    PointKind
}

// Entry returns the entry point of a function.
func Entry(fn string) PointID { return PointID{Function: fn, Where: PointEntry} }

// Exit returns the exit point of a function.
func Exit(fn string) PointID { return PointID{Function: fn, Where: PointExit} }

// Mapping returns the designated mapping point of a function.
func Mapping(fn string) PointID { return PointID{Function: fn, Where: MappingPoint} }

// String renders "function:kind".
func (p PointID) String() string { return p.Function + ":" + p.Where.String() }

// Context carries the execution state visible to a snippet when its point
// fires: which node, the node's virtual clock, and the arguments of the
// executing operation (the CMRTS node code block dispatcher passes its
// input arguments so SAS modules can search them for requested arrays —
// Section 6.1).
type Context struct {
	Node  int
	Now   vtime.Time
	Tag   string
	Elems int
	Bytes int
	// Args carries operation arguments, e.g. the identifiers of arrays
	// passed to a node code block.
	Args []string
}

// Predicate guards a snippet; nil means always fire.
type Predicate func(Context) bool

// Action is the body of a snippet.
type Action func(Context)

// Snippet is a unit of instrumentation code.
type Snippet struct {
	// Name labels the snippet for diagnostics.
	Name string
	// When guards execution (the paper's predicate).
	When Predicate
	// Do runs when the predicate passes (the paper's primitive calls).
	Do Action
}

// Handle identifies an inserted snippet for later removal.
type Handle struct {
	point PointID
	seq   int
}

// Stats aggregates instrumentation activity and modelled perturbation.
type Stats struct {
	Inserted   int
	Removed    int
	Fires      int // snippets whose action ran
	Suppressed int // snippets whose predicate returned false
	// Perturbation is the total virtual time charged to application nodes
	// by instrumentation execution: PerFire for each fire plus
	// PerPredicate for each predicate evaluation, pass or fail.
	Perturbation vtime.Duration
}

// CostModel prices instrumentation execution.
type CostModel struct {
	// PerFire is charged for each snippet action that runs.
	PerFire vtime.Duration
	// PerPredicate is charged for each guard evaluation (pass or fail).
	PerPredicate vtime.Duration
}

// DefaultCosts approximates the trampoline costs reported for Paradyn-era
// dynamic instrumentation: a predicate test is cheap, a full snippet
// execution costs a few hundred nanoseconds.
func DefaultCosts() CostModel {
	return CostModel{PerFire: 300 * vtime.Nanosecond, PerPredicate: 40 * vtime.Nanosecond}
}

type inserted struct {
	seq     int
	snippet Snippet
}

// Manager is the instrumentation controller for one executable image.
// Mutation (Insert/Remove/Fire) is not safe for concurrent use — the
// simulated machine executes sequentially in virtual time — but Stats
// may be read concurrently with a run.
//
// Points are interned to small dense indices the first time they are
// named: the snippet lists live in a slice indexed by point index, and a
// pre-resolved PointRef fires with a bounds check instead of hashing the
// PointID's function name. The executing substrate fires every potential
// point on every operation, so that hash was the single largest fixed
// cost of an uninstrumented point.
type Manager struct {
	costs   CostModel
	ids     map[PointID]int32
	lists   [][]inserted
	nextSeq int
	// stats counters are atomic so a metrics scrape can read them while
	// the driving goroutine fires snippets; every writer is the single
	// driving goroutine (instrumentation never fires inside parallel
	// node regions).
	stats managerStats
	// perturb charges instrumentation overhead to the executing node;
	// nil disables perturbation modelling.
	perturb func(node int, d vtime.Duration)
}

// NewManager builds a manager. perturb may be nil (no perturbation
// accounting against node clocks; stats still accumulate).
func NewManager(costs CostModel, perturb func(node int, d vtime.Duration)) *Manager {
	return &Manager{
		costs: costs,
		// A session interns a few dozen points; sizing the table up front
		// skips the map-growth ladder during wiring.
		ids:     make(map[PointID]int32, 32),
		lists:   make([][]inserted, 0, 32),
		perturb: perturb,
	}
}

// index interns a point, creating an (empty) slot on first sight.
func (m *Manager) index(p PointID) int32 {
	if i, ok := m.ids[p]; ok {
		return i
	}
	i := int32(len(m.lists))
	m.ids[p] = i
	m.lists = append(m.lists, nil)
	return i
}

// PointRef is a pre-resolved instrumentation point: Resolve once where
// the point name is known (session wiring, runtime construction), then
// Fire per event without re-hashing the name. A ref stays valid for the
// manager's lifetime — Insert and Remove change what is attached at the
// point, never where the point lives.
type PointRef struct {
	m *Manager
	i int32
}

// Resolve interns a point and returns a reference for repeated firing.
func (m *Manager) Resolve(p PointID) PointRef {
	return PointRef{m: m, i: m.index(p)}
}

// Fire executes the instrumentation at the referenced point.
func (r PointRef) Fire(ctx Context) { r.m.fireAt(r.i, ctx) }

// Insert adds a snippet at a point of the running image and returns a
// removal handle. A snippet inserted while the point is firing runs from
// the point's next fire.
func (m *Manager) Insert(p PointID, s Snippet) Handle {
	m.nextSeq++
	i := m.index(p)
	m.lists[i] = append(m.lists[i], inserted{seq: m.nextSeq, snippet: s})
	m.stats.inserted.Add(1)
	return Handle{point: p, seq: m.nextSeq}
}

// Remove deletes a previously inserted snippet. Removing twice is an
// error. The point gets a fresh snippet list rather than an edited one,
// so a fire in progress — a snippet removing itself or a sibling —
// finishes the list it started with.
func (m *Manager) Remove(h Handle) error {
	if i, ok := m.ids[h.point]; ok {
		list := m.lists[i]
		for j, ins := range list {
			if ins.seq == h.seq {
				// The capped prefix forces append to copy.
				m.lists[i] = append(list[:j:j], list[j+1:]...)
				m.stats.removed.Add(1)
				return nil
			}
		}
	}
	return fmt.Errorf("dyninst: no snippet %d at %v", h.seq, h.point)
}

// RemoveAll deletes every snippet at a point, returning how many were
// removed. This is how "users turn off all dynamic mapping instrumentation
// points at once" (Section 5).
func (m *Manager) RemoveAll(p PointID) int {
	i, ok := m.ids[p]
	if !ok {
		return 0
	}
	n := len(m.lists[i])
	if n > 0 {
		m.lists[i] = nil
		m.stats.removed.Add(int64(n))
	}
	return n
}

// Fire executes the instrumentation at a point. The executing substrate
// calls this at every potential point; an uninstrumented point returns
// immediately with zero cost, which is the central property of dynamic
// instrumentation. Callers on hot paths should Resolve the point once
// and fire through the PointRef.
func (m *Manager) Fire(p PointID, ctx Context) {
	if i, ok := m.ids[p]; ok {
		m.fireAt(i, ctx)
	}
}

// fireAt runs the snippet list at point index i. It adds to the fire
// counter once per call and to the evaluation and suppression counters
// only when a predicate ran; perturbation is derived from the counters
// (see Stats), so a fire of unguarded snippets costs one atomic add.
func (m *Manager) fireAt(i int32, ctx Context) {
	list := m.lists[i]
	if len(list) == 0 {
		return
	}
	fires, evals, suppressed := 0, 0, 0
	for _, ins := range list {
		if ins.snippet.When != nil {
			evals++
			if !ins.snippet.When(ctx) {
				suppressed++
				continue
			}
		}
		fires++
		if ins.snippet.Do != nil {
			ins.snippet.Do(ctx)
		}
	}
	if fires > 0 {
		m.stats.fires.Add(int64(fires))
	}
	if evals > 0 {
		m.stats.evaluations.Add(int64(evals))
		if suppressed > 0 {
			m.stats.suppressed.Add(int64(suppressed))
		}
	}
	if m.perturb != nil && ctx.Node >= 0 {
		if cost := m.costs.PerFire.Scale(fires) + m.costs.PerPredicate.Scale(evals); cost > 0 {
			m.perturb(ctx.Node, cost)
		}
	}
}

// Instrumented reports whether any snippet is currently inserted at p.
func (m *Manager) Instrumented(p PointID) bool {
	i, ok := m.ids[p]
	return ok && len(m.lists[i]) > 0
}

// ActivePoints returns the currently instrumented points, sorted.
func (m *Manager) ActivePoints() []PointID {
	out := make([]PointID, 0, len(m.ids))
	for p, i := range m.ids {
		if len(m.lists[i]) > 0 {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Function != out[j].Function {
			return out[i].Function < out[j].Function
		}
		return out[i].Where < out[j].Where
	})
	return out
}

// managerStats is the internal atomic mirror of Stats. Perturbation is
// not stored: the cost model is fixed at NewManager, so it is exactly
// PerFire×fires + PerPredicate×evaluations.
type managerStats struct {
	inserted    atomic.Int64
	removed     atomic.Int64
	fires       atomic.Int64
	suppressed  atomic.Int64
	evaluations atomic.Int64 // predicate evaluations, pass or fail
}

// Stats returns a copy of the instrumentation statistics. Safe to call
// while the session runs.
func (m *Manager) Stats() Stats {
	fires := int(m.stats.fires.Load())
	evals := int(m.stats.evaluations.Load())
	return Stats{
		Inserted:     int(m.stats.inserted.Load()),
		Removed:      int(m.stats.removed.Load()),
		Fires:        fires,
		Suppressed:   int(m.stats.suppressed.Load()),
		Perturbation: m.costs.PerFire.Scale(fires) + m.costs.PerPredicate.Scale(evals),
	}
}
