// Package fault provides deterministic, seeded fault injection for the
// measurement stack. The paper's architecture leans on two delivery
// assumptions that a reproduction on a perfect simulator never stresses:
// the single ordered channel carrying performance samples and dynamic
// mapping records from the instrumentation library to the daemon/Data
// Manager (Section 5), and the per-node SAS replication with explicit
// cross-node sentence forwarding (Section 4.2.3). A fault Plan lets an
// experiment break those assumptions on purpose — dropping, duplicating,
// reordering or delaying messages, slowing or stalling nodes, and
// bounding the daemon channel so it overflows — while staying perfectly
// reproducible: the same seed always yields the same fault schedule and
// therefore the same degradation report.
//
// The package is a leaf: it knows nothing about machines, channels or
// SASes. Each layer consults an Injector at its own decision points
// (machine.Send, daemon.Channel.Send, the SAS export transport) and the
// Injector draws from an independent deterministic stream per site, so
// enabling faults at one layer never perturbs the schedule of another.
package fault

import (
	"sync"

	"nvmap/internal/vtime"
)

// OverflowPolicy says what a bounded daemon channel does when full.
type OverflowPolicy int

// Overflow policies. Unbounded is the zero value: the channel grows
// without limit, exactly as before fault injection existed.
const (
	// Unbounded never overflows (the default).
	Unbounded OverflowPolicy = iota
	// DropOldest evicts the front of the queue to make room.
	DropOldest
	// DropNewest rejects the incoming message.
	DropNewest
	// Backpressure forces a synchronous drain before enqueuing, so no
	// message is lost at the cost of stalling the sender.
	Backpressure
)

// String names the policy.
func (p OverflowPolicy) String() string {
	switch p {
	case Unbounded:
		return "unbounded"
	case DropOldest:
		return "drop-oldest"
	case DropNewest:
		return "drop-newest"
	case Backpressure:
		return "backpressure"
	default:
		return "OverflowPolicy(?)"
	}
}

// MessageFaults perturb point-to-point sends on the simulated machine.
type MessageFaults struct {
	// DropProb is the probability a message never reaches its receiver.
	DropProb float64
	// DupProb is the probability a message is delivered twice.
	DupProb float64
	// DelayProb is the probability a message suffers extra latency,
	// drawn uniformly from (0, DelayMax].
	DelayProb float64
	DelayMax  vtime.Duration
}

// NodeFaults perturb node execution speed.
type NodeFaults struct {
	// Slowdown multiplies a node's per-element compute cost (2.0 = half
	// speed). Nodes absent from the map run at full speed.
	Slowdown map[int]float64
	// StallProb is the per-compute-operation probability that a node
	// stalls for StallFor before computing.
	StallProb float64
	StallFor  vtime.Duration
}

// ChannelFaults bound the daemon channel of Section 5.
type ChannelFaults struct {
	// Capacity is the maximum queue depth (0 = unbounded).
	Capacity int
	Policy   OverflowPolicy
}

// SASFaults perturb cross-node SAS event forwarding (Section 4.2.3).
type SASFaults struct {
	// DropProb is the probability an exported activation event is lost.
	DropProb float64
	// DupProb is the probability it is delivered twice.
	DupProb float64
	// ReorderProb is the probability it is held back and delivered after
	// the next event (a one-slot reorder).
	ReorderProb float64
	// Resync enables the snapshot-resync protocol on reliable links, so
	// cross-node questions converge to correct answers after losses.
	Resync bool
}

// Plan is a complete, seeded fault schedule. The zero value injects
// nothing; a Plan with only a Seed set injects nothing either.
type Plan struct {
	// Seed selects the deterministic fault schedule. Two runs with the
	// same plan produce byte-identical degradation reports.
	Seed int64

	Messages MessageFaults
	Nodes    NodeFaults
	Channel  ChannelFaults
	SAS      SASFaults

	// Crashes is the fail-stop schedule: explicit, not probabilistic.
	// Build it with CrashAt/RestartAfter; the machine normalizes and
	// validates it via NormalizeCrashes before the run.
	Crashes []CrashFault
}

// rng is a splitmix64 stream: tiny, fast, and stable across Go versions
// (math/rand's sequence is not part of its compatibility promise).
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float64 returns a uniform draw in [0, 1).
func (r *rng) float64() float64 { return float64(r.next()>>11) / (1 << 53) }

// Site salts keep each layer's decision stream independent: toggling SAS
// faults must not shift the machine-level schedule and vice versa.
const (
	saltMessages = 0x6D61636821 // "mach!"
	saltNodes    = 0x6E6F646521
	saltSAS      = 0x7361732121
)

// Injector is a compiled Plan: per-site deterministic streams plus the
// running Report. Safe for concurrent use.
type Injector struct {
	mu   sync.Mutex
	plan Plan

	msgRNG  rng
	nodeRNG rng
	sasRNG  rng

	report Report
}

// NewInjector compiles a plan. A nil plan yields a nil injector, which
// every consultation site treats as "no faults".
func NewInjector(p *Plan) *Injector {
	if p == nil {
		return nil
	}
	seed := uint64(p.Seed)
	return &Injector{
		plan:    *p,
		msgRNG:  rng{state: seed ^ saltMessages},
		nodeRNG: rng{state: seed ^ saltNodes},
		sasRNG:  rng{state: seed ^ saltSAS},
	}
}

// Plan returns a copy of the compiled plan.
func (in *Injector) Plan() Plan {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.plan
}

// MessageOutcome is the fate of one point-to-point message.
type MessageOutcome struct {
	Drop      bool
	Duplicate bool
	Delay     vtime.Duration
}

// Message decides the fate of a point-to-point send. The draw order is
// fixed (drop, duplicate, delay) so the schedule is reproducible.
func (in *Injector) Message(from, to int) MessageOutcome {
	if in == nil {
		return MessageOutcome{}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	var out MessageOutcome
	f := in.plan.Messages
	if f.DropProb > 0 && in.msgRNG.float64() < f.DropProb {
		out.Drop = true
		in.report.MessagesDropped++
		return out
	}
	if f.DupProb > 0 && in.msgRNG.float64() < f.DupProb {
		out.Duplicate = true
		in.report.MessagesDuplicated++
	}
	if f.DelayProb > 0 && f.DelayMax > 0 && in.msgRNG.float64() < f.DelayProb {
		// Uniform in (0, DelayMax], never zero so a "delayed" message is
		// always observably late.
		d := vtime.Duration(in.msgRNG.next()%uint64(f.DelayMax)) + 1
		out.Delay = d
		in.report.MessagesDelayed++
		in.report.ExtraLatency += d
	}
	return out
}

// ComputeFactor returns the compute-cost multiplier for a node (1.0 =
// unperturbed).
func (in *Injector) ComputeFactor(node int) float64 {
	if in == nil {
		return 1
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	f, ok := in.plan.Nodes.Slowdown[node]
	if !ok || f <= 0 {
		return 1
	}
	if f != 1 {
		in.report.SlowedComputes++
	}
	return f
}

// Stall returns how long a node stalls before its next compute (usually
// zero).
func (in *Injector) Stall(node int) vtime.Duration {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	f := in.plan.Nodes
	if f.StallProb <= 0 || f.StallFor <= 0 {
		return 0
	}
	if in.nodeRNG.float64() >= f.StallProb {
		return 0
	}
	in.report.Stalls++
	in.report.StallTime += f.StallFor
	return f.StallFor
}

// SASOutcome is the fate of one exported SAS event.
type SASOutcome struct {
	Drop      bool
	Duplicate bool
	Reorder   bool
}

// SAS decides the fate of one exported activation event.
func (in *Injector) SAS() SASOutcome {
	if in == nil {
		return SASOutcome{}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	var out SASOutcome
	f := in.plan.SAS
	if f.DropProb > 0 && in.sasRNG.float64() < f.DropProb {
		out.Drop = true
		in.report.SASDropped++
		return out
	}
	if f.DupProb > 0 && in.sasRNG.float64() < f.DupProb {
		out.Duplicate = true
		in.report.SASDuplicated++
	}
	if f.ReorderProb > 0 && in.sasRNG.float64() < f.ReorderProb {
		out.Reorder = true
		in.report.SASReordered++
	}
	return out
}

// Report returns a copy of the injected-fault counters so far.
func (in *Injector) Report() Report {
	if in == nil {
		return Report{}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.report
}
