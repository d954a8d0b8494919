package nvmap

import (
	"nvmap/internal/checkpoint"
	"nvmap/internal/fault"
	"nvmap/internal/machine"
	"nvmap/internal/nv"
	"nvmap/internal/obs"
	"nvmap/internal/sas"
)

// This file wires the self-observability plane (internal/obs) through
// the session: the measurement tool pointed at itself. When enabled,
// every pipeline stage — machine collectives and node regions,
// daemon channel traffic, SAS notifications, sampling rounds,
// checkpoint/restore, PIF import and the run itself — records
// (virtual-time, wall-time, node, stage) spans on one tracer, and the
// components' existing statistics become pull-model collectors on one
// metrics registry. The plane is off by default; disabled, every record
// site is a single nil pointer test and no output changes by a byte.

// ObservabilityConfig tunes the self-observability plane.
type ObservabilityConfig struct {
	// TraceCapacity bounds the span ring buffer (0 selects the default;
	// negative keeps every span).
	TraceCapacity int
	// HistBins sets the resolution of the plane's virtual-time
	// histograms (0 = default).
	HistBins int
}

// Observability returns the session's observability plane, nil when the
// session was built without WithObservability.
func (s *Session) Observability() *obs.Plane { return s.obsPlane }

// obsTracer is the nil-safe tracer accessor the session's own record
// sites use.
func (s *Session) obsTracer() *obs.Tracer { return s.obsPlane.Trace() }

// PerturbationReport attributes the run's wall-clock self-cost to named
// pipeline stages and abstraction levels — the tool applying the
// paper's mapping mechanisms to its own overhead. It covers the most
// recent Run; nil before Run or when observability is disabled.
func (s *Session) PerturbationReport() *obs.PerturbationReport {
	if s.obsPlane == nil || !s.runMeasured {
		return nil
	}
	r := obs.BuildPerturbation(s.runBase, s.obsPlane.Tracer.Totals(), s.runWall)
	return &r
}

// wireObs attaches the plane's span recording and metric collectors to
// a freshly built session. The machine's collective operations and
// node regions record bracketing spans directly (SetObs); node-side
// events — compute, idle, receive, crash, restart — arrive through the
// observer stream in event order, so the span sequence is byte-stable.
func wireObs(s *Session, p *obs.Plane) {
	s.obsPlane = p
	tr := p.Tracer
	s.Machine.SetObs(tr)
	s.Machine.Observe(func(e machine.Event) {
		switch e.Kind {
		case machine.EvCompute, machine.EvIdle, machine.EvRecv,
			machine.EvCrash, machine.EvRestart:
			// Collective kinds are excluded: Send/Dispatch/Broadcast/
			// Reduce/Barrier already recorded a Begin/End span on the
			// driving goroutine; recording their events too would
			// double-count the stage.
			tr.Record(machine.StageFor(e.Kind), e.Tag, e.Node, e.Start, e.End)
		}
	})
	registerSessionCollectors(s, p.Metrics)
}

// registerSessionCollectors publishes the stack's existing statistics
// structures as pull-model collectors: the registry reads them at
// snapshot time, so the legacy accessors and the metrics view can never
// disagree. Values that depend on process-wide history or wall clock
// are registered unstable and excluded from byte-stable exports.
func registerSessionCollectors(s *Session, r *obs.Registry) {
	machTotal := func(read func(machine.NodeStats) float64) func() float64 {
		return func() float64 {
			var sum float64
			for n := 0; n < s.Machine.Nodes(); n++ {
				sum += read(s.Machine.Stats(n))
			}
			return sum
		}
	}
	r.Func("nvmap_machine_compute_ops_total", "Elemental operations computed across all nodes.",
		obs.KindCounter, false, machTotal(func(st machine.NodeStats) float64 { return float64(st.ComputeOps) }))
	r.Func("nvmap_machine_sends_total", "Point-to-point sends across all nodes.",
		obs.KindCounter, false, machTotal(func(st machine.NodeStats) float64 { return float64(st.Sends) }))
	r.Func("nvmap_machine_send_bytes_total", "Point-to-point bytes sent across all nodes.",
		obs.KindCounter, false, machTotal(func(st machine.NodeStats) float64 { return float64(st.SendBytes) }))
	r.Func("nvmap_machine_recvs_total", "Point-to-point deliveries across all nodes.",
		obs.KindCounter, false, machTotal(func(st machine.NodeStats) float64 { return float64(st.Recvs) }))
	r.Func("nvmap_machine_dispatches_total", "Node code block activations across all nodes.",
		obs.KindCounter, false, machTotal(func(st machine.NodeStats) float64 { return float64(st.Dispatches) }))
	r.Func("nvmap_machine_compute_vtime_ns", "Virtual time spent computing across all nodes.",
		obs.KindCounter, false, machTotal(func(st machine.NodeStats) float64 { return float64(st.ComputeTime) }))
	r.Func("nvmap_machine_idle_vtime_ns", "Virtual time spent idle across all nodes.",
		obs.KindCounter, false, machTotal(func(st machine.NodeStats) float64 { return float64(st.IdleTime) }))
	r.Func("nvmap_machine_crashes_total", "Fail-stop crashes enacted across all nodes.",
		obs.KindCounter, false, machTotal(func(st machine.NodeStats) float64 { return float64(st.Crashes) }))
	r.Func("nvmap_machine_restarts_total", "Node reboots enacted across all nodes.",
		obs.KindCounter, false, machTotal(func(st machine.NodeStats) float64 { return float64(st.Restarts) }))
	// Interconnect counters, live only when the machine has a topology
	// (all zeros otherwise — NetStats on a flat machine is a nil check).
	if s.Machine.Topology() != nil {
		netStat := func(read func(machine.NetStats) float64) func() float64 {
			return func() float64 { return read(s.Machine.NetStats()) }
		}
		r.Func("nvmap_machine_net_messages_total", "Point-to-point messages routed over the topology.",
			obs.KindCounter, false, netStat(func(st machine.NetStats) float64 { return float64(st.Messages) }))
		r.Func("nvmap_machine_net_cross_messages_total", "Messages that crossed at least one interconnect link.",
			obs.KindCounter, false, netStat(func(st machine.NetStats) float64 { return float64(st.CrossMessages) }))
		r.Func("nvmap_machine_net_link_hops_total", "Total links crossed by all messages (dilation numerator).",
			obs.KindCounter, false, netStat(func(st machine.NetStats) float64 { return float64(st.LinkHops) }))
		r.Func("nvmap_machine_net_socket_crossings_total", "Messages that crossed a socket without leaving their node.",
			obs.KindCounter, false, netStat(func(st machine.NetStats) float64 { return float64(st.SocketCrossings) }))
		r.Func("nvmap_machine_net_max_link_bytes", "Heaviest directed link's byte load (congestion).",
			obs.KindGauge, false, netStat(func(st machine.NetStats) float64 { return float64(st.MaxLinkBytes) }))
		r.Func("nvmap_machine_net_max_link_msgs", "Heaviest directed link's message load.",
			obs.KindGauge, false, netStat(func(st machine.NetStats) float64 { return float64(st.MaxLinkMsgs) }))
	}

	registerSASCollectors(r, s.Tool.SASes)

	r.Func("nvmap_dyninst_inserted_total", "Instrumentation snippets inserted.",
		obs.KindCounter, false, func() float64 { return float64(s.Inst.Stats().Inserted) })
	r.Func("nvmap_dyninst_removed_total", "Instrumentation snippets removed.",
		obs.KindCounter, false, func() float64 { return float64(s.Inst.Stats().Removed) })
	r.Func("nvmap_dyninst_fires_total", "Snippet actions executed.",
		obs.KindCounter, false, func() float64 { return float64(s.Inst.Stats().Fires) })
	r.Func("nvmap_dyninst_suppressed_total", "Snippet fires suppressed by focus predicates.",
		obs.KindCounter, false, func() float64 { return float64(s.Inst.Stats().Suppressed) })
	r.Func("nvmap_dyninst_perturbation_vtime_ns", "Virtual time charged to nodes by instrumentation.",
		obs.KindCounter, false, func() float64 { return float64(s.Inst.Stats().Perturbation) })

	// The intern table is process-wide: it accumulates vocabulary across
	// every session in the process, so its growth is history-dependent.
	r.Func("nvmap_intern_nouns", "Nouns in the process-wide intern table.",
		obs.KindGauge, true, func() float64 { return float64(nv.DefaultInterner.Stats().Nouns) })
	r.Func("nvmap_intern_verbs", "Verbs in the process-wide intern table.",
		obs.KindGauge, true, func() float64 { return float64(nv.DefaultInterner.Stats().Verbs) })
	r.Func("nvmap_intern_sentences", "Sentences in the process-wide intern table.",
		obs.KindGauge, true, func() float64 { return float64(nv.DefaultInterner.Stats().Sentences) })

	ckpt := func(read func(checkpoint.Stats) float64) func() float64 {
		return func() float64 { return read(s.Checkpoints()) }
	}
	r.Func("nvmap_checkpoint_saves_total", "Node state snapshots captured.",
		obs.KindCounter, false, ckpt(func(st checkpoint.Stats) float64 { return float64(st.Saves) }))
	r.Func("nvmap_checkpoint_restores_total", "Node state snapshots restored.",
		obs.KindCounter, false, ckpt(func(st checkpoint.Stats) float64 { return float64(st.Restores) }))
	r.Func("nvmap_checkpoint_corrupt_total", "Snapshots that failed verification on restore.",
		obs.KindCounter, false, ckpt(func(st checkpoint.Stats) float64 { return float64(st.Corrupt) }))
	r.Func("nvmap_checkpoint_bytes", "Snapshot payload volume currently retained.",
		obs.KindGauge, false, ckpt(func(st checkpoint.Stats) float64 { return float64(st.Bytes) }))

	fr := func(read func(st fault.Report) float64) func() float64 {
		return func() float64 {
			if s.faults == nil {
				return 0
			}
			return read(s.faults.Report())
		}
	}
	r.Func("nvmap_fault_messages_dropped_total", "Point-to-point messages dropped by fault injection.",
		obs.KindCounter, false, fr(func(st fault.Report) float64 { return float64(st.MessagesDropped) }))
	r.Func("nvmap_fault_sas_dropped_total", "Cross-node SAS events dropped by fault injection.",
		obs.KindCounter, false, fr(func(st fault.Report) float64 { return float64(st.SASDropped) }))
	r.Func("nvmap_fault_node_crashes_total", "Fail-stop crashes injected.",
		obs.KindCounter, false, fr(func(st fault.Report) float64 { return float64(st.NodeCrashes) }))
	r.Func("nvmap_fault_node_restarts_total", "Node reboots injected.",
		obs.KindCounter, false, fr(func(st fault.Report) float64 { return float64(st.NodeRestarts) }))
	r.Func("nvmap_fault_dead_vtime_ns", "Virtual time lost to dead node windows.",
		obs.KindCounter, false, fr(func(st fault.Report) float64 { return float64(st.DeadTime) }))
}

// registerSASCollectors publishes the session's SAS registry — one SAS
// per node, holding the tool's gating sentences and the monitor's — as
// aggregate notification statistics, question-index posting sizes and
// column occupancy. Every collector sums over Nodes(), which is empty
// until something needs a SAS, so a scrape never creates one.
func registerSASCollectors(r *obs.Registry, reg *sas.Registry) {
	stat := func(read func(sas.Stats) float64) func() float64 {
		return func() float64 { return read(reg.TotalStats()) }
	}
	r.Func("nvmap_sas_notifications_total", "Activation/deactivation notifications received.",
		obs.KindCounter, false, stat(func(st sas.Stats) float64 { return float64(st.Notifications) }))
	r.Func("nvmap_sas_ignored_total", "Notifications dropped by the relevance filter.",
		obs.KindCounter, false, stat(func(st sas.Stats) float64 { return float64(st.Ignored) }))
	r.Func("nvmap_sas_stored_total", "Notifications applied to the active sets.",
		obs.KindCounter, false, stat(func(st sas.Stats) float64 { return float64(st.Stored) }))
	r.Func("nvmap_sas_evaluations_total", "Question re-evaluations triggered.",
		obs.KindCounter, false, stat(func(st sas.Stats) float64 { return float64(st.Evaluations) }))
	r.Func("nvmap_sas_events_total", "Measured events recorded against active sentences.",
		obs.KindCounter, false, stat(func(st sas.Stats) float64 { return float64(st.Events) }))
	r.Func("nvmap_sas_candidates_scanned_total", "Question states consulted for measured events.",
		obs.KindCounter, false, stat(func(st sas.Stats) float64 { return float64(st.CandidatesScanned) }))
	r.Func("nvmap_sas_matches_evaluated_total", "Term-pattern match tests run.",
		obs.KindCounter, false, stat(func(st sas.Stats) float64 { return float64(st.MatchesEvaluated) }))
	idx := func(read func(sas.IndexStats) float64) func() float64 {
		return func() float64 {
			var sum float64
			for _, s := range reg.Nodes() {
				sum += read(s.Index())
			}
			return sum
		}
	}
	r.Func("nvmap_sas_questions", "Registered questions summed over the partition's SASes.",
		obs.KindGauge, false, idx(func(st sas.IndexStats) float64 { return float64(st.Questions) }))
	r.Func("nvmap_sas_verb_postings", "Verb-index postings summed over the partition's SASes.",
		obs.KindGauge, false, idx(func(st sas.IndexStats) float64 { return float64(st.VerbPostings) }))
	r.Func("nvmap_sas_noun_postings", "Noun-index postings summed over the partition's SASes.",
		obs.KindGauge, false, idx(func(st sas.IndexStats) float64 { return float64(st.NounPostings) }))
	r.Func("nvmap_sas_wildcard_postings", "Wildcard question postings summed over the partition's SASes.",
		obs.KindGauge, false, idx(func(st sas.IndexStats) float64 { return float64(st.WildcardPostings) }))
	col := func(read func(sas.ColumnStats) float64) func() float64 {
		return func() float64 {
			var sum float64
			for _, s := range reg.Nodes() {
				sum += read(s.Columns())
			}
			return sum
		}
	}
	r.Func("nvmap_sas_column_rows", "Live columnar rows summed over the partition's SASes.",
		obs.KindGauge, false, col(func(st sas.ColumnStats) float64 { return float64(st.Rows) }))
	// Capacity and compaction counts describe the storage layout, not the
	// program — resizing the carved window moves both with every answer
	// unchanged — so they stay out of the byte-stable export (the row
	// total does not).
	r.Func("nvmap_sas_column_capacity", "Columnar row capacity summed over the partition's SASes.",
		obs.KindGauge, true, col(func(st sas.ColumnStats) float64 { return float64(st.Capacity) }))
	r.Func("nvmap_sas_column_compactions_total", "Swap-remove compactions summed over the partition's SASes.",
		obs.KindCounter, true, col(func(st sas.ColumnStats) float64 { return float64(st.Compactions) }))
}
