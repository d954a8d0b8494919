package nvmap

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nvmap/internal/budget"
	"nvmap/internal/machine"
	"nvmap/internal/vtime"
)

// This file is the session's runtime governance layer: context
// cancellation and deadlines, resource budgets, the stall watchdog, and
// the panic containment barrier that turns all of them — plus any
// escaped panic — into a typed *SessionError with an exact cut time and
// a best-effort partial degradation report.
//
// Governance is pay-for-use: with a Background context, no budget and
// no watchdog, RunContext installs nothing and every machine operation
// pays a single nil pointer test, so ungoverned outputs are
// byte-identical to pre-governance builds. Budget cut points are
// deterministic (the governor checks only at operation boundaries on
// the driving goroutine); deadline, cancellation and watchdog cuts are
// wall-clock driven and land at the first boundary after the verdict.

// Budget is the set of resource ceilings WithBudget enforces on a run.
// The zero value of any field means unlimited. See the field docs on
// the underlying type for the shed-before-fail semantics of the
// backlog ceiling.
type Budget = budget.Limits

// BudgetStats is the budget governor's end-of-run accounting, surfaced
// in DegradationReport.Budget.
type BudgetStats = budget.Stats

// ErrBudgetExceeded is the sentinel under every over-budget session
// error: errors.Is(err, nvmap.ErrBudgetExceeded) identifies a run the
// budget governor cut.
var ErrBudgetExceeded = budget.ErrExceeded

// ErrorKind classifies why a governed run was cut short.
type ErrorKind int

const (
	// ErrorCancelled: the RunContext context was cancelled.
	ErrorCancelled ErrorKind = iota
	// ErrorDeadline: the context's deadline expired.
	ErrorDeadline
	// ErrorOverBudget: a WithBudget ceiling was exceeded (after the
	// shed ladder was exhausted, for sheddable resources).
	ErrorOverBudget
	// ErrorStalled: the watchdog saw no progress (no operation boundary
	// crossed, or virtual time frozen) for the configured timeout.
	ErrorStalled
	// ErrorPanic: a panic escaped the run and was contained.
	ErrorPanic
)

func (k ErrorKind) String() string {
	switch k {
	case ErrorCancelled:
		return "cancelled"
	case ErrorDeadline:
		return "deadline exceeded"
	case ErrorOverBudget:
		return "over budget"
	case ErrorStalled:
		return "stalled"
	case ErrorPanic:
		return "panicked"
	}
	return fmt.Sprintf("ErrorKind(%d)", int(k))
}

// Sentinel causes under stall and panic session errors, for errors.Is.
// Cancellation and deadline errors unwrap to context.Canceled and
// context.DeadlineExceeded; over-budget errors to ErrBudgetExceeded.
var (
	ErrStalled  = errors.New("session stalled")
	ErrPanicked = errors.New("session panicked")
)

// SessionError is the typed error a governed run returns when it is cut
// short: cancelled, deadlined, over budget, stalled, or recovered from
// a panic. The accompanying DegradationReport is still assembled
// (best-effort) and carries the same cut in its Cut field, so partial
// answers stay inspectable.
type SessionError struct {
	// Kind classifies the cut.
	Kind ErrorKind
	// Op and Node name the machine operation boundary the run was cut
	// at ("" / CP when the cut did not land on a boundary). At is the
	// global virtual clock before the aborted operation — the exact
	// instant up to which every metric and histogram is complete.
	Op   string
	Node int
	At   vtime.Time
	// Spans names the observability spans open at the cut, outermost
	// first (empty without WithObservability).
	Spans []string
	// Panic and Stack carry the original panic value and the goroutine
	// stack for ErrorPanic cuts.
	Panic any
	Stack []byte
	// Msg carries extra diagnostic context: watchdog progress
	// diagnostics.
	Msg   string
	cause error
}

func (e *SessionError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "nvmap: session %s at t=%v", e.Kind, e.At)
	if e.Op != "" {
		fmt.Fprintf(&b, " (boundary %s/%s)", e.Op, nodeLabel(e.Node))
	}
	if e.Msg != "" {
		fmt.Fprintf(&b, " [%s]", e.Msg)
	}
	if len(e.Spans) != 0 {
		fmt.Fprintf(&b, " [in %s]", strings.Join(e.Spans, " > "))
	}
	if e.Kind == ErrorPanic {
		fmt.Fprintf(&b, ": %v", e.Panic)
	} else if e.cause != nil {
		fmt.Fprintf(&b, ": %v", e.cause)
	}
	return b.String()
}

// Unwrap exposes the underlying cause: context.Canceled,
// context.DeadlineExceeded, ErrBudgetExceeded (and through it the
// specific budget.Exceeded), ErrStalled, or ErrPanicked.
func (e *SessionError) Unwrap() error { return e.cause }

func nodeLabel(node int) string {
	if node < 0 {
		return "CP"
	}
	return fmt.Sprintf("node%d", node)
}

// kindOf classifies a governor verdict error.
func kindOf(err error) ErrorKind {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return ErrorDeadline
	case errors.Is(err, budget.ErrExceeded):
		return ErrorOverBudget
	case errors.Is(err, ErrStalled):
		return ErrorStalled
	default:
		// context.Canceled and anything else a context produces.
		return ErrorCancelled
	}
}

// opMark snapshots the most recent governance boundary; the watchdog
// reads it to name the stuck operation and detect frozen virtual time.
type opMark struct {
	op   string
	node int
	at   vtime.Time
	ops  int64
}

// stopCause is the first abort verdict; later verdicts lose the race
// and are dropped, so the reported cause is stable.
type stopCause struct{ err error }

// runGov is the session's machine.Governor: it threads the budget
// governor through every boundary and injects asynchronous verdicts
// (context cancellation, watchdog stalls) at the next boundary check.
type runGov struct {
	bud  *budget.Governor // nil when no budget is configured
	ops  atomic.Int64
	mark atomic.Pointer[opMark]
	stop atomic.Pointer[stopCause]
	done chan struct{}
}

func (g *runGov) ChargeOp() {
	g.ops.Add(1)
	g.bud.ChargeOp()
}

func (g *runGov) Check(op string, node int, now vtime.Time) error {
	g.mark.Store(&opMark{op: op, node: node, at: now, ops: g.ops.Load()})
	if c := g.stop.Load(); c != nil {
		return c.err
	}
	return g.bud.Check(now)
}

func (g *runGov) ChargeAlloc(bytes int64, now vtime.Time) error {
	if c := g.stop.Load(); c != nil {
		return c.err
	}
	return g.bud.ChargeAlloc(bytes, now)
}

// abort injects an asynchronous stop verdict; the run cuts at the next
// operation boundary. First caller wins.
func (g *runGov) abort(err error) {
	g.stop.CompareAndSwap(nil, &stopCause{err: err})
}

// diag names the last boundary the run crossed, for stall diagnostics.
func (g *runGov) diag() string {
	m := g.mark.Load()
	if m == nil {
		return "no boundary reached"
	}
	return fmt.Sprintf("last boundary %s/%s at t=%v, op #%d", m.op, nodeLabel(m.node), m.at, m.ops)
}

// watch is the stall watchdog loop. Two conditions abort the run:
// no operation charged for the timeout (the driving goroutine is stuck
// between boundaries), or operations advancing while virtual time stays
// frozen for 4x the timeout (a virtual-time livelock; the grace factor
// tolerates long check-suppressed node regions). The abort is
// cooperative — it lands at the next boundary check — so a hard hang
// that never reaches another boundary is the caller's select-timeout to
// catch; the watchdog's job is naming the stuck node and stage.
func (g *runGov) watch(timeout time.Duration) {
	poll := timeout / 8
	if poll < time.Millisecond {
		poll = time.Millisecond
	}
	tick := time.NewTicker(poll)
	defer tick.Stop()
	lastOps := g.ops.Load()
	lastOpsAt := time.Now()
	lastMark := g.mark.Load()
	lastMarkAt := lastOpsAt
	for {
		select {
		case <-g.done:
			return
		case <-tick.C:
		}
		now := time.Now()
		if ops := g.ops.Load(); ops != lastOps {
			lastOps, lastOpsAt = ops, now
		} else if now.Sub(lastOpsAt) >= timeout {
			g.abort(fmt.Errorf("%w: no operation boundary crossed for %v (%s)", ErrStalled, timeout, g.diag()))
			return
		}
		if m := g.mark.Load(); m == nil || lastMark == nil || m.at != lastMark.at {
			lastMark, lastMarkAt = m, now
		} else if now.Sub(lastMarkAt) >= 4*timeout {
			g.abort(fmt.Errorf("%w: virtual time frozen at t=%v for %v (%s)", ErrStalled, m.at, 4*timeout, g.diag()))
			return
		}
	}
}

// armGovernance installs the run governor when the context, a budget or
// the watchdog asks for one, and returns the teardown. Nil teardown
// means governance is off and the run pays nothing.
func (s *Session) armGovernance(ctx context.Context) func() {
	if ctx.Done() == nil && s.budget == nil && s.watchdog <= 0 {
		return nil
	}
	g := &runGov{bud: s.budget, done: make(chan struct{})}
	g.mark.Store(&opMark{op: "Run", node: machine.CP, at: s.Now()})
	s.Machine.SetGovernor(g)
	var wg sync.WaitGroup
	if ctx.Done() != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			select {
			case <-ctx.Done():
				g.abort(ctx.Err())
			case <-g.done:
			}
		}()
	}
	if s.watchdog > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.watch(s.watchdog)
		}()
	}
	return func() {
		close(g.done)
		wg.Wait()
		s.Machine.SetGovernor(nil)
	}
}

// contain converts a recovered panic value into the session's typed
// error and settles the partial answer. The machine's transient state
// (the governor-quiet depth of an unwound region) is reset first so the
// accounting paths run governed.
func (s *Session) contain(v any) (*DegradationReport, error) {
	s.Machine.ResetTransient()
	return s.settle(s.toSessionError(v))
}

// toSessionError classifies a recovered panic value: a machine.Abort is
// a governed cut carrying its exact boundary; anything else is a
// contained panic.
func (s *Session) toSessionError(v any) *SessionError {
	if ab, ok := v.(machine.Abort); ok {
		return &SessionError{
			Kind:  kindOf(ab.Err),
			Op:    ab.Op,
			Node:  ab.Node,
			At:    ab.At,
			Spans: ab.Spans,
			cause: ab.Err,
		}
	}
	return &SessionError{
		Kind:  ErrorPanic,
		Node:  machine.CP,
		At:    s.Now(),
		Spans: s.obsTracer().OpenSpans(),
		Panic: v,
		Stack: debug.Stack(),
		cause: ErrPanicked,
	}
}

// settle records the cut and assembles the partial answer. Every
// accounting step is best-effort: a second failure while reporting must
// not mask the primary error, so each runs under its own recover.
func (s *Session) settle(serr *SessionError) (*DegradationReport, error) {
	s.cut = serr
	safely(func() { s.Tool.FlushChannel() })
	safely(func() { s.finalizeCrashes(s.Now()) })
	var rep *DegradationReport
	safely(func() { rep = s.degradation() })
	if rep == nil {
		rep = &DegradationReport{}
		rep.Cut = s.cutInfo()
	}
	return rep, serr
}

// cutInfo projects the session's cut record into report form.
func (s *Session) cutInfo() *CutInfo {
	if s.cut == nil {
		return nil
	}
	reason := s.cut.Msg
	if reason == "" && s.cut.cause != nil {
		reason = s.cut.cause.Error()
	}
	return &CutInfo{Kind: s.cut.Kind, Op: s.cut.Op, Node: s.cut.Node, At: s.cut.At, Reason: reason}
}

// safely runs f, swallowing any panic. Post-abort accounting only.
func safely(f func()) {
	defer func() { _ = recover() }()
	f()
}
