package nvmap

import (
	"io"
	"time"

	"nvmap/internal/dyninst"
	"nvmap/internal/fault"
	"nvmap/internal/machine"
	"nvmap/internal/vtime"
)

// Option configures a Session under construction. Options are applied in
// order to a zero Config, so later options override earlier ones; the
// defaults (8 nodes, default cost models, no faults) are whatever a zero
// Config means. Config remains the full-struct form — WithConfig adopts
// one wholesale, which is also the migration path for existing callers:
//
//	s, err := nvmap.NewSession(source, nvmap.WithNodes(4), nvmap.WithFuse())
//	s, err := nvmap.NewSession(source, nvmap.WithConfig(legacyCfg))
type Option func(*Config)

// WithConfig replaces the whole configuration with cfg. Options after it
// modify cfg; options before it are discarded.
func WithConfig(cfg Config) Option {
	return func(c *Config) { *c = cfg }
}

// WithNodes sets the partition size. n must be positive: WithNodes(0)
// is a *UsageError from NewSession, not a request for the default.
func WithNodes(n int) Option {
	return func(c *Config) { c.Nodes = n; c.nodesExplicit = true }
}

// WithMachine overrides the machine cost model. The node count still
// comes from WithNodes (or its default), and a topology given by
// WithTopology overrides any carried inside mc.
func WithMachine(mc machine.Config) Option {
	return func(c *Config) { c.Machine = &mc }
}

// WithTopology gives the machine a hardware topology — a grid or torus
// of hardware nodes, optionally with sockets and cores — registered as
// the session's bottom abstraction levels and charged per hop on every
// message. Options apply in order: a later WithTopology overrides an
// earlier one (and the Topology field of an earlier WithConfig or
// WithMachine), while WithConfig placed after it discards it. See
// Config.Topology.
func WithTopology(t machine.Topology) Option {
	return func(c *Config) { c.Topology = &t }
}

// WithPlacement assigns logical node i to topology leaf leaves[i],
// overriding the identity default. The placement is emitted as ordinary
// PIF mapping records, so the where axis and the SAS see it as mapping
// information. Requires a topology (from WithTopology, WithConfig or
// WithMachine); ordering follows the same rule as WithTopology: later
// options win, a later WithConfig discards it. See Config.Placement.
func WithPlacement(leaves []int) Option {
	return func(c *Config) { c.Placement = leaves }
}

// WithFuse enables the compiler's fusion of adjacent elementwise
// statements (producing one-to-many mappings).
func WithFuse() Option {
	return func(c *Config) { c.Fuse = true }
}

// WithSourceFile names the program in listings and descriptions.
func WithSourceFile(name string) Option {
	return func(c *Config) { c.SourceFile = name }
}

// WithOutput directs PRINT output to w.
func WithOutput(w io.Writer) Option {
	return func(c *Config) { c.Output = w }
}

// WithInstCosts overrides the instrumentation perturbation model.
func WithInstCosts(cm dyninst.CostModel) Option {
	return func(c *Config) { c.InstCosts = &cm }
}

// WithSampleEvery overrides the tool's histogram sampling interval.
func WithSampleEvery(d vtime.Duration) Option {
	return func(c *Config) { c.SampleEvery = d }
}

// WithNoPerturbation disconnects instrumentation overhead from the node
// clocks (for experiments isolating application cost).
func WithNoPerturbation() Option {
	return func(c *Config) { c.NoPerturbation = true }
}

// WithFaults injects a deterministic fault plan into the run. See
// Config.Faults.
func WithFaults(p *fault.Plan) Option {
	return func(c *Config) { c.Faults = p }
}

// WithRecovery tunes the crash-recovery machinery. It takes effect only
// when the fault plan schedules crashes.
func WithRecovery(rc RecoveryConfig) Option {
	return func(c *Config) { c.Recovery = rc }
}

// WithObservability enables the self-observability plane with default
// settings: pipeline-stage span tracing, the metrics registry, the
// exporters, and the perturbation report on Run. See
// Session.Observability and Session.PerturbationReport.
func WithObservability() Option {
	return func(c *Config) { c.Observability = &ObservabilityConfig{} }
}

// WithBudget enforces resource ceilings on the run — virtual time,
// operation count, daemon-channel backlog, SAS active-set size and
// allocation estimate. Sheddable ceilings (the channel backlog) degrade
// measurement fidelity first — the tool doubles its sampling interval
// and batches channel drains harder, up to three times — before the run
// is cut with a typed over-budget *SessionError. Budget cut points are
// deterministic. See Config.Budget.
func WithBudget(b Budget) Option {
	return func(c *Config) { c.Budget = &b }
}

// WithWatchdog arms the stall watchdog: a run that crosses no machine
// operation boundary for timeout of wall clock, or whose virtual clock
// stays frozen for 4x timeout while operations keep flowing, aborts
// with a typed stall *SessionError naming the last boundary crossed.
// See Config.StallTimeout.
func WithWatchdog(timeout time.Duration) Option {
	return func(c *Config) { c.StallTimeout = timeout }
}
