package machine

import (
	"fmt"

	"nvmap/internal/vtime"
)

// Runtime governance. A Governor, when installed, is consulted at every
// machine operation boundary — the same choke points crash enactment
// uses (Engage) — so a session can be cancelled, deadlined or budgeted
// with deterministic cut points and exact cut-time accounting. The
// machine has no opinion about policy; it charges, checks, and throws a
// typed Abort when the governor says stop. With no governor installed
// every operation pays one pointer test.
//
// Determinism contract: charges and checks run on the driving
// goroutine, in operation order. Checks are suppressed inside a
// ParallelNodes body and run once at its end, so a deterministic
// governor always trips at the same boundary of the same run.

// Governor is consulted at machine operation boundaries.
type Governor interface {
	// ChargeOp records one operation; must be cheap.
	ChargeOp()
	// Check decides whether execution may continue past a boundary. It
	// never runs inside a ParallelNodes body. A non-nil error aborts the
	// run via a thrown Abort.
	Check(op string, node int, now vtime.Time) error
	// ChargeAlloc records an allocation estimate; a non-nil error
	// aborts the allocating operation.
	ChargeAlloc(bytes int64, now vtime.Time) error
}

// Abort is the panic payload thrown when the governor stops a run. The
// session's containment barrier recovers it and converts it into a
// typed session error; it never escapes a governed Run. Op, Node and At
// pin the exact boundary: At is the global virtual clock before the
// aborted operation ran, so the partial answer's cut time is exact.
type Abort struct {
	Err  error
	Op   string
	Node int
	At   vtime.Time
	// Spans names the observability spans open at the throw, outermost
	// first (empty without an attached tracer).
	Spans []string
}

// Error renders the abort; Abort satisfies error so a stray recover
// can still log something sensible.
func (a Abort) Error() string {
	return fmt.Sprintf("machine: run aborted at %s (node %s, t=%v): %v", a.Op, nodeName(a.Node), a.At, a.Err)
}

// Unwrap exposes the governor's verdict to errors.Is/As.
func (a Abort) Unwrap() error { return a.Err }

func nodeName(node int) string {
	if node == CP {
		return "CP"
	}
	return fmt.Sprintf("%d", node)
}

// SetGovernor installs (or, with nil, removes) the governor. Call from
// the driving goroutine, like Observe.
func (m *Machine) SetGovernor(g Governor) { m.gov = g }

// govern is the per-operation boundary: charge always, check only
// outside ParallelNodes bodies.
func (m *Machine) govern(op string, node int) {
	g := m.gov
	if g == nil {
		return
	}
	g.ChargeOp()
	if m.govQuiet > 0 {
		return
	}
	m.checkGovernor(g, op, node)
}

// checkGovernor runs one governor check and throws the Abort on a stop
// verdict.
func (m *Machine) checkGovernor(g Governor, op string, node int) {
	now := m.GlobalNow()
	if err := g.Check(op, node, now); err != nil {
		panic(Abort{Err: err, Op: op, Node: node, At: now, Spans: m.obsT.OpenSpans()})
	}
}

// ResetTransient clears the governor-quiet depth after a panic unwound
// through a ParallelNodes body. Clocks, stats and crash windows are
// untouched: the containment barrier calls this so end-of-run
// accounting (flush, crash finalisation, the degradation report) still
// runs its governor checks.
func (m *Machine) ResetTransient() { m.govQuiet = 0 }

// ChargeAlloc reports an allocation estimate to the governor; the
// runtime calls it when a parallel array materialises. Over-budget
// allocations abort exactly like any other governed boundary.
func (m *Machine) ChargeAlloc(bytes int64) {
	g := m.gov
	if g == nil {
		return
	}
	now := m.GlobalNow()
	if err := g.ChargeAlloc(bytes, now); err != nil {
		panic(Abort{Err: err, Op: "Allocate", Node: CP, At: now, Spans: m.obsT.OpenSpans()})
	}
}
