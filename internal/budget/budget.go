// Package budget is the session's resource governor: hard ceilings on
// what one run may consume — virtual time, machine operations, daemon
// channel backlog, SAS active-set size, allocation bytes — with a
// graceful-degradation ladder that sheds measurement overhead before
// hard-failing. It exists for the multi-tenant direction on the
// roadmap: a service hosting many sessions needs each one bounded, and
// a bounded session needs to degrade (sample less, batch harder) before
// it is killed.
//
// Charging (ChargeOp, ChargeAlloc) is an atomic add so that an exporter
// can read the running totals (Ops, Stats) from another goroutine
// mid-run. Checking (Check) runs only on the session's driving
// goroutine, at machine operation boundaries outside node regions — so
// the instant a budget trips is a deterministic function of the
// program, the fault plan and the limits, never of host scheduling.
package budget

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"nvmap/internal/vtime"
)

// Limits are the ceilings a governor enforces. A zero field means
// unlimited; the zero Limits value governs nothing.
type Limits struct {
	// MaxVirtualTime caps the session's global virtual clock. The run
	// aborts at the first operation boundary at or past the ceiling.
	MaxVirtualTime vtime.Duration
	// MaxOps caps the total count of machine operations (compute,
	// send, collective) the run may issue.
	MaxOps int64
	// MaxChannelBacklog caps the daemon channel's undrained queue. The
	// backlog is sheddable: before failing, the governor asks the tool
	// to sample less often and drain in larger batches.
	MaxChannelBacklog int
	// MaxActiveSentences caps the summed active-set size across every
	// per-node SAS. Not sheddable — the active set tracks program
	// structure, not measurement frequency — so exceeding it fails at
	// the next probe.
	MaxActiveSentences int
	// MaxAllocBytes caps the estimated bytes of parallel-array payload
	// the program allocates. Allocation is program semantics, so it is
	// never shed: the allocating operation aborts.
	MaxAllocBytes int64
}

// Zero reports whether the limits govern nothing.
func (l Limits) Zero() bool { return l == Limits{} }

// ErrExceeded is the sentinel every budget failure unwraps to:
// errors.Is(err, budget.ErrExceeded) identifies an over-budget abort
// regardless of which ceiling tripped.
var ErrExceeded = errors.New("budget exceeded")

// Exceeded reports one ceiling violation: which resource, the limit,
// the actual value, and the virtual instant of the check that caught
// it. It unwraps to ErrExceeded.
type Exceeded struct {
	Resource string
	Limit    int64
	Actual   int64
	At       vtime.Time
}

func (e *Exceeded) Error() string {
	return fmt.Sprintf("budget exceeded: %s %d > limit %d at %v", e.Resource, e.Actual, e.Limit, e.At)
}

func (e *Exceeded) Unwrap() error { return ErrExceeded }

// MaxShedLevel bounds the degradation ladder. Each level doubles the
// tool's effective sampling interval and its drain batch floor; past
// the last level an over-limit backlog hard-fails.
const MaxShedLevel = 3

// probeEvery is how many driving-goroutine checks pass between the
// expensive probes (channel backlog, SAS active-set size). Operation
// and virtual-time ceilings are checked every time — they are plain
// comparisons — but the probes walk shared structures under their own
// locks, so they are sampled. Deterministic: the check counter advances
// only on the driving goroutine.
const probeEvery = 8

// Stats is the governor's ledger, surfaced in the degradation report.
type Stats struct {
	// Ops and AllocBytes are the charged totals.
	Ops        int64
	AllocBytes int64
	// Checks counts driving-goroutine check points.
	Checks int64
	// MaxBacklog and MaxActiveSet are high-water marks over the sampled
	// probes (zero when the corresponding ceiling is unset).
	MaxBacklog   int
	MaxActiveSet int
	// ShedLevel is the final degradation level; Sheds counts the
	// escalations that reached it.
	ShedLevel int
	Sheds     int
}

// Governor enforces one session's Limits.
type Governor struct {
	lim Limits

	// Atomic for concurrent readers (Ops, Stats) of a live run.
	ops   atomic.Int64
	alloc atomic.Int64

	// Everything below is written under mu. Check holds it for the
	// whole check so exporters reading Stats mid-run see a consistent
	// snapshot.
	mu        sync.Mutex
	checks    int64
	maxBack   int
	maxActive int
	shedLevel int
	sheds     int
	backlog   func() int
	activeSet func() int
	onShed    func(level int)
}

// New builds a governor over the limits.
func New(lim Limits) *Governor { return &Governor{lim: lim} }

// Limits returns the configured ceilings.
func (g *Governor) Limits() Limits { return g.lim }

// SetProbes installs the backlog and active-set probes. Either may be
// nil, disabling that ceiling's enforcement.
func (g *Governor) SetProbes(backlog, activeSet func() int) {
	g.mu.Lock()
	g.backlog, g.activeSet = backlog, activeSet
	g.mu.Unlock()
}

// OnShed installs the degradation hook, called (under the governor's
// lock, on the driving goroutine) each time the shed level escalates.
func (g *Governor) OnShed(fn func(level int)) {
	g.mu.Lock()
	g.onShed = fn
	g.mu.Unlock()
}

// ChargeOp records one machine operation.
func (g *Governor) ChargeOp() {
	if g == nil {
		return
	}
	g.ops.Add(1)
}

// Ops returns the charged operation total.
func (g *Governor) Ops() int64 {
	if g == nil {
		return 0
	}
	return g.ops.Load()
}

// ChargeAlloc records an allocation estimate and enforces the
// allocation ceiling immediately — allocation cannot be shed or
// deferred to the next boundary, the memory is about to exist.
func (g *Governor) ChargeAlloc(bytes int64, now vtime.Time) error {
	if g == nil {
		return nil
	}
	total := g.alloc.Add(bytes)
	if l := g.lim.MaxAllocBytes; l > 0 && total > l {
		return &Exceeded{Resource: "allocation bytes", Limit: l, Actual: total, At: now}
	}
	return nil
}

// Check enforces every ceiling at a machine operation boundary. It must
// run only on the session's driving goroutine, outside node regions.
// A non-nil return is the abort verdict; the caller converts
// it into the session's typed error with the boundary's op/node/instant.
func (g *Governor) Check(now vtime.Time) error {
	if g == nil {
		return nil
	}
	ops := g.ops.Load()
	g.mu.Lock()
	defer g.mu.Unlock()
	g.checks++
	if l := g.lim.MaxOps; l > 0 && ops > l {
		return &Exceeded{Resource: "machine operations", Limit: l, Actual: ops, At: now}
	}
	if l := g.lim.MaxVirtualTime; l > 0 && now.Sub(0) > l {
		return &Exceeded{Resource: "virtual time (ns)", Limit: int64(l), Actual: int64(now.Sub(0)), At: now}
	}
	if g.checks%probeEvery != 1 && probeEvery > 1 {
		return nil
	}
	if l := g.lim.MaxChannelBacklog; l > 0 && g.backlog != nil {
		b := g.backlog()
		if b > g.maxBack {
			g.maxBack = b
		}
		switch {
		case b > l && g.shedLevel >= MaxShedLevel:
			return &Exceeded{Resource: "daemon-channel backlog", Limit: int64(l), Actual: int64(b), At: now}
		case 4*b >= 3*l:
			// At 75% pressure (or past the limit with shed headroom
			// left) climb the ladder instead of failing.
			g.escalate()
		}
	}
	if l := g.lim.MaxActiveSentences; l > 0 && g.activeSet != nil {
		a := g.activeSet()
		if a > g.maxActive {
			g.maxActive = a
		}
		if a > l {
			return &Exceeded{Resource: "SAS active sentences", Limit: int64(l), Actual: int64(a), At: now}
		}
	}
	return nil
}

// escalate climbs one shed level and notifies the hook. Caller holds mu.
func (g *Governor) escalate() {
	if g.shedLevel >= MaxShedLevel {
		return
	}
	g.shedLevel++
	g.sheds++
	if g.onShed != nil {
		g.onShed(g.shedLevel)
	}
}

// Stats snapshots the ledger.
func (g *Governor) Stats() Stats {
	if g == nil {
		return Stats{}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return Stats{
		Ops:          g.ops.Load(),
		AllocBytes:   g.alloc.Load(),
		Checks:       g.checks,
		MaxBacklog:   g.maxBack,
		MaxActiveSet: g.maxActive,
		ShedLevel:    g.shedLevel,
		Sheds:        g.sheds,
	}
}
