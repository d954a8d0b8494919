// Package obs is the self-observability plane of the measurement stack:
// the tool, pointed at itself. The paper's Sections 5 and 6 stress that
// dynamic instrumentation has a cost the tool must account for; this
// package makes that accounting concrete for our own pipeline.
//
// It provides three cooperating pieces, all zero-dependency (standard
// library plus internal/hist and internal/vtime only):
//
//   - A span Tracer recording (virtual-time, wall-time, node, stage)
//     intervals for every pipeline stage — machine collectives and
//     node regions, daemon channel sends and drains, SAS
//     activations and question matches, the sampler's read and commit
//     phases, checkpoint/restore, and PIF import — in a bounded ring
//     buffer with deterministic span IDs.
//
//   - A metrics Registry of counters, gauges and virtual-time histograms
//     (built on internal/hist), fed both by live instrumentation and by
//     pull-style collectors that read the components' existing stat
//     structures at export time.
//
//   - Exporters: Chrome trace_event JSON (loadable in Perfetto),
//     Prometheus text format, and an expvar-style HTTP debug handler.
//
// The plane is off by default and provably non-perturbing when disabled:
// every component holds a nil *Plane and every record site is a nil
// check. When enabled it never touches virtual clocks — observing the
// tool costs host time only, and the PerturbationReport attributes
// exactly that cost back to named pipeline stages, per stage and per
// abstraction level: the tool applying its own noun-verb mapping to
// itself.
package obs

import "nvmap/internal/vtime"

// Stage identifies one pipeline stage of the measurement stack. Stages
// are the "verbs" of the tool's self-description: every recorded span
// names the stage that spent the time.
type Stage int

// The pipeline stages, grouped by the layer (abstraction level) that
// executes them. The machine-event stages double as the span model for
// package trace's Gantt timelines.
const (
	// Machine level: simulator operations.
	StageCompute Stage = iota
	StageSend
	StageRecv
	StageDispatch
	StageBroadcast
	StageReduce
	StageBarrier
	StageIdle
	StageCrash
	StageRestart
	StageRegion // a ParallelNodes node-local region

	// Daemon level: the shared sample/mapping conduit.
	StageDaemonSend
	StageDaemonDrain

	// SAS level: the Set of Active Sentences hot path.
	StageSASActivate
	StageSASDeactivate
	StageSASMatch

	// Tool level: the data manager's sampling rounds.
	StageSampleRead
	StageSampleCommit

	// Recovery level: fail-stop crash machinery.
	StageCheckpoint
	StageRestore

	// Static level: mapping-information import.
	StagePIFImport

	// Application level: the program itself.
	StageExecute

	numStages
)

// NumStages is the number of defined stages (for exhaustive iteration).
const NumStages = int(numStages)

// String names the stage.
func (s Stage) String() string {
	switch s {
	case StageCompute:
		return "compute"
	case StageSend:
		return "send"
	case StageRecv:
		return "recv"
	case StageDispatch:
		return "dispatch"
	case StageBroadcast:
		return "broadcast"
	case StageReduce:
		return "reduce"
	case StageBarrier:
		return "barrier"
	case StageIdle:
		return "idle"
	case StageCrash:
		return "crash"
	case StageRestart:
		return "restart"
	case StageRegion:
		return "region"
	case StageDaemonSend:
		return "daemon_send"
	case StageDaemonDrain:
		return "daemon_drain"
	case StageSASActivate:
		return "sas_activate"
	case StageSASDeactivate:
		return "sas_deactivate"
	case StageSASMatch:
		return "sas_match"
	case StageSampleRead:
		return "sample_read"
	case StageSampleCommit:
		return "sample_commit"
	case StageCheckpoint:
		return "checkpoint"
	case StageRestore:
		return "restore"
	case StagePIFImport:
		return "pif_import"
	case StageExecute:
		return "execute"
	default:
		return "unknown"
	}
}

// Level is the abstraction level a stage belongs to — the same axis the
// paper's noun-verb model uses for application data, applied to the tool
// itself.
type Level string

// The abstraction levels of the tool's own pipeline.
const (
	LevelMachine     Level = "Machine"
	LevelDaemon      Level = "Daemon"
	LevelSAS         Level = "SAS"
	LevelTool        Level = "Tool"
	LevelRecovery    Level = "Recovery"
	LevelStatic      Level = "Static"
	LevelApplication Level = "Application"
)

// Level returns the stage's abstraction level.
func (s Stage) Level() Level {
	switch s {
	case StageDaemonSend, StageDaemonDrain:
		return LevelDaemon
	case StageSASActivate, StageSASDeactivate, StageSASMatch:
		return LevelSAS
	case StageSampleRead, StageSampleCommit:
		return LevelTool
	case StageCheckpoint, StageRestore:
		return LevelRecovery
	case StagePIFImport:
		return LevelStatic
	case StageExecute:
		return LevelApplication
	default:
		return LevelMachine
	}
}

// Sentence renders the stage as a noun-verb sentence in the paper's
// notation — the tool describing its own activity the way it describes
// the application's: "{Daemon daemon_drain}".
func (s Stage) Sentence() string {
	return "{" + string(s.Level()) + " " + s.String() + "}"
}

// Options configures a Plane.
type Options struct {
	// TraceCapacity bounds the span ring buffer (0 selects
	// DefaultTraceCapacity; negative selects unbounded storage, which
	// package trace uses for full Gantt timelines).
	TraceCapacity int
	// HistBins sets the bin count of the per-stage virtual-time
	// histograms (0 = hist.DefaultBins).
	HistBins int
}

// Plane bundles one session's tracer and metrics registry. A nil *Plane
// is the disabled state: every method on its components is safe to skip
// behind a nil check, and the facade guarantees no component ever
// observes a partially initialised plane.
type Plane struct {
	Tracer  *Tracer
	Metrics *Registry
}

// New builds an enabled plane.
func New(o Options) *Plane {
	return &Plane{
		Tracer:  NewTracer(o.TraceCapacity),
		Metrics: NewRegistry(),
	}
}

// Enabled reports whether the plane is live (nil receivers are the
// disabled state).
func (p *Plane) Enabled() bool { return p != nil }

// Trace returns the plane's tracer, nil when the plane is disabled.
// Components store the result once and nil-check it on the hot path.
func (p *Plane) Trace() *Tracer {
	if p == nil {
		return nil
	}
	return p.Tracer
}

// Span is one recorded activity interval: stage, an optional name (the
// operation tag, sentence key or batch label), the acting node (NodeCP
// for the control processor / driver), the virtual-time interval, and
// the wall-clock self cost.
type Span struct {
	// ID is the span's deterministic identity: the 1-based sequence
	// number of its Begin in recording order.
	ID uint64
	// Stage is the pipeline stage that spent the time.
	Stage Stage
	// Name carries the high-level operation tag (may be empty).
	Name string
	// Node is the acting node, or NodeCP for control-processor / driver
	// work.
	Node int
	// Start and End are the span's virtual-time interval. Instant spans
	// have Start == End.
	Start, End vtime.Time
	// Wall is the span's wall-clock duration in host nanoseconds,
	// including time spent in nested spans. Zero for instant events.
	Wall int64
	// Self is Wall minus the wall time of spans nested inside this one:
	// the stage's exclusive self cost.
	Self int64
}

// Duration returns the span's virtual-time extent.
func (s Span) Duration() vtime.Duration { return s.End.Sub(s.Start) }

// NodeCP is the pseudo-node for control-processor / driver spans,
// mirroring machine.CP without importing it.
const NodeCP = -1
