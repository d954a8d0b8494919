package nvmap

import (
	"fmt"
	"sort"
	"strings"

	"nvmap/internal/checkpoint"
	"nvmap/internal/daemon"
	"nvmap/internal/fault"
	"nvmap/internal/machine"
	"nvmap/internal/sas"
	"nvmap/internal/vtime"
)

// This file wires the deterministic fault injector (internal/fault)
// through the session: message-level faults on the simulated machine,
// bounded-capacity overflow on the daemon channel, and lossy cross-node
// SAS links. The paper's architecture assumes all three paths are
// reliable; Config.Faults lets an experiment relax that assumption and
// measure how the mapping mechanisms degrade — deterministically, so a
// degraded run is as reproducible as a clean one.

// maxReportDetail bounds every per-entry detail slice in the report
// (crashes, links, dropped-sample metrics, degraded metrics, lost
// nodes). A chaotic long run can accumulate thousands of crash windows;
// the report keeps the first maxReportDetail of each in deterministic
// order and records exactly how many were elided in Truncated. All
// aggregate fields (recovered/lost time, resync totals) are computed
// over the full set before truncation, so bounding loses detail rows,
// never accounting.
const maxReportDetail = 64

// TruncationCounts records, per detail section, how many entries the
// report elided to stay bounded. Zero everywhere means nothing was cut.
type TruncationCounts struct {
	Crashes         int
	Links           int
	DroppedSamples  int
	DegradedMetrics int
	LostNodes       int
}

// CutInfo records why and where a governed run was cut short. At is the
// global virtual clock before the aborted operation — the exact instant
// up to which every metric and histogram is complete.
type CutInfo struct {
	Kind   ErrorKind
	Op     string
	Node   int
	At     vtime.Time
	Reason string
}

// DegradationReport summarises what a faulted run lost and what the
// recovery machinery did about it. Session.Run returns one (never nil);
// with no fault plan configured it is all zeros.
type DegradationReport struct {
	// Injected is the fault injector's own ledger: what the plan made
	// happen (drops, duplicates, delays, stalls, SAS perturbations).
	Injected fault.Report
	// Channel is the daemon conduit's traffic accounting, including
	// overflow drops and mapping-record retries.
	Channel daemon.Stats
	// DroppedSamples counts histogram samples lost to channel overflow,
	// per metric ID.
	DroppedSamples map[string]int
	// DegradedMetrics lists (sorted) the metric IDs whose histograms
	// have holes. Aggregate metric values are unaffected — they read
	// the instrumentation counters directly.
	DegradedMetrics []string
	// MappingRetries counts dynamic mapping records that overflow
	// parked and redelivered instead of dropping (unrecoverable state
	// is never lost).
	MappingRetries int
	// Links reports the reliability protocol of each cross-node SAS
	// link created with Monitor.ExportReliable, in creation order.
	Links []sas.LinkStats
	// Resyncs totals the snapshot resynchronisations across all links.
	Resyncs int
	// Crashes lists every fail-stop window, in enactment order. A
	// recovered window accounts Up-Down of dead time; an unrecovered
	// one ran dead from Down to the end of the run.
	Crashes []machine.CrashWindow
	// RecoveredTime sums the dead time of windows that rebooted;
	// LostTime sums end-of-run minus Down over windows that never did.
	// Their sum equals Injected.DeadTime exactly.
	RecoveredTime vtime.Duration
	LostTime      vtime.Duration
	// LostNodes lists nodes that were still dead when the run ended —
	// every metric-focus answer covering them is annotated partial.
	LostNodes []int
	// Supervisor is the daemon watchdog's activity (detection, journal
	// replay, definition re-registration); Checkpoints is the snapshot
	// store's ledger. Both stay zero when recovery is disabled.
	Supervisor  daemon.SupervisorStats
	Checkpoints checkpoint.Stats
	// Cut records why the run was cut short (cancellation, deadline,
	// budget, stall, contained panic); nil for runs that finished on
	// their own.
	Cut *CutInfo
	// Budget is the budget governor's accounting — charged operations,
	// high-water backlog and active-set readings, shed escalations.
	// All zero when no budget was configured.
	Budget BudgetStats
	// Truncated records how many detail entries each bounded slice
	// elided (see maxReportDetail).
	Truncated TruncationCounts
}

// Zero reports whether the run suffered no degradation at all. A cut
// run or one the governor shed fidelity from is never zero; a budgeted
// run that finished under every ceiling without shedding still is.
func (r *DegradationReport) Zero() bool {
	if r.Cut != nil || r.Budget.Sheds != 0 {
		return false
	}
	if !r.Injected.Zero() || r.Channel.Dropped != 0 || r.MappingRetries != 0 ||
		len(r.DroppedSamples) != 0 || len(r.DegradedMetrics) != 0 ||
		len(r.Crashes) != 0 {
		return false
	}
	for _, l := range r.Links {
		if l.Retransmits != 0 || l.Resyncs != 0 || l.DuplicatesDropped != 0 || l.Gaps != 0 {
			return false
		}
	}
	return true
}

// String renders the report deterministically (map keys sorted, zero
// sections omitted).
func (r *DegradationReport) String() string {
	if r.Zero() {
		return "no degradation\n"
	}
	var b strings.Builder
	if r.Cut != nil {
		fmt.Fprintf(&b, "cut: %s at t=%v", r.Cut.Kind, r.Cut.At)
		if r.Cut.Op != "" {
			fmt.Fprintf(&b, " (boundary %s/%s)", r.Cut.Op, nodeLabel(r.Cut.Node))
		}
		if r.Cut.Reason != "" {
			fmt.Fprintf(&b, ": %s", r.Cut.Reason)
		}
		b.WriteString("\n")
	}
	if r.Budget.Sheds != 0 {
		fmt.Fprintf(&b, "budget: shed to level %d (%d escalations); backlog high-water %d, active-set high-water %d\n",
			r.Budget.ShedLevel, r.Budget.Sheds, r.Budget.MaxBacklog, r.Budget.MaxActiveSet)
	}
	if !r.Injected.Zero() {
		b.WriteString("injected:\n")
		for _, line := range strings.Split(strings.TrimRight(r.Injected.String(), "\n"), "\n") {
			fmt.Fprintf(&b, "  %s\n", line)
		}
	}
	if r.Channel.Dropped != 0 || r.MappingRetries != 0 || r.Channel.Backpressured != 0 {
		b.WriteString("channel:\n")
		if r.Channel.Dropped != 0 {
			fmt.Fprintf(&b, "  samples dropped: %d\n", r.Channel.Dropped)
		}
		if r.MappingRetries != 0 {
			fmt.Fprintf(&b, "  mapping records retried: %d\n", r.MappingRetries)
		}
		if r.Channel.Backpressured != 0 {
			fmt.Fprintf(&b, "  backpressure stalls: %d\n", r.Channel.Backpressured)
		}
	}
	if len(r.DroppedSamples) != 0 {
		b.WriteString("dropped samples by metric:\n")
		ids := make([]string, 0, len(r.DroppedSamples))
		for id := range r.DroppedSamples {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			fmt.Fprintf(&b, "  %s: %d\n", id, r.DroppedSamples[id])
		}
		if r.Truncated.DroppedSamples != 0 {
			fmt.Fprintf(&b, "  (+%d more metrics)\n", r.Truncated.DroppedSamples)
		}
	}
	if len(r.DegradedMetrics) != 0 {
		fmt.Fprintf(&b, "degraded metrics: %s", strings.Join(r.DegradedMetrics, ", "))
		if r.Truncated.DegradedMetrics != 0 {
			fmt.Fprintf(&b, " (+%d more)", r.Truncated.DegradedMetrics)
		}
		b.WriteString("\n")
	}
	for i, l := range r.Links {
		if l.Retransmits == 0 && l.Resyncs == 0 && l.DuplicatesDropped == 0 && l.Gaps == 0 {
			continue
		}
		fmt.Fprintf(&b, "sas link %d: sent %d acked %d retransmits %d resyncs %d dups-dropped %d gaps %d\n",
			i, l.Sent, l.Acked, l.Retransmits, l.Resyncs, l.DuplicatesDropped, l.Gaps)
	}
	if r.Truncated.Links != 0 {
		fmt.Fprintf(&b, "sas links: (+%d more)\n", r.Truncated.Links)
	}
	if len(r.Crashes) != 0 {
		b.WriteString("crashes:\n")
		for _, w := range r.Crashes {
			if w.Recovered {
				fmt.Fprintf(&b, "  node %d down at %v, recovered at %v (%v dead)\n",
					w.Node, w.Down, w.Up, w.Up.Sub(w.Down))
			} else {
				fmt.Fprintf(&b, "  node %d down at %v, never recovered\n", w.Node, w.Down)
			}
		}
		if r.Truncated.Crashes != 0 {
			fmt.Fprintf(&b, "  (+%d more windows)\n", r.Truncated.Crashes)
		}
		fmt.Fprintf(&b, "  recovered time: %v, lost time: %v\n", r.RecoveredTime, r.LostTime)
		if len(r.LostNodes) != 0 {
			nodes := make([]string, len(r.LostNodes))
			for i, n := range r.LostNodes {
				nodes[i] = fmt.Sprintf("%d", n)
			}
			extra := ""
			if r.Truncated.LostNodes != 0 {
				extra = fmt.Sprintf(" +%d more", r.Truncated.LostNodes)
			}
			fmt.Fprintf(&b, "  lost nodes: %s%s (answers are partial)\n", strings.Join(nodes, ", "), extra)
		}
		sv := r.Supervisor
		if sv != (daemon.SupervisorStats{}) {
			fmt.Fprintf(&b, "supervision: %d checkpoints, %d suspicions (%d false alarms), %d detections",
				sv.Checkpoints, sv.Suspicions, sv.FalseAlarms, sv.Detections)
			if sv.Detections > 0 {
				fmt.Fprintf(&b, " (lag %v)", sv.DetectionLag)
			}
			fmt.Fprintf(&b, "\n  recoveries: %d from checkpoint, %d cold; replayed %d sas + %d probe records; defs replayed %d, suppressed %d\n",
				sv.Recoveries, sv.ColdRecoveries, sv.SASReplayed, sv.ProbesReplayed, sv.DefsReplayed, sv.DefsSuppressed)
		}
		if r.Checkpoints.Saves != 0 || r.Checkpoints.Corrupt != 0 {
			fmt.Fprintf(&b, "checkpoints: %d saved (%d bytes), %d restored, %d corrupt\n",
				r.Checkpoints.Saves, r.Checkpoints.Bytes, r.Checkpoints.Restores, r.Checkpoints.Corrupt)
		}
	}
	return b.String()
}

// Faults returns the session's fault injector (nil when Config.Faults
// was unset). Experiments read its Report for the raw injection ledger.
func (s *Session) Faults() *fault.Injector { return s.faults }

// degradation assembles the end-of-run report from every layer's
// accounting.
func (s *Session) degradation() *DegradationReport {
	rep := &DegradationReport{
		Injected:       s.faults.Report(),
		Channel:        s.Tool.Channel().Stats(),
		DroppedSamples: s.Tool.DroppedSamples(),
	}
	rep.MappingRetries = rep.Channel.Retried
	for _, em := range s.Tool.Enabled() {
		if em.Degraded() {
			rep.DegradedMetrics = append(rep.DegradedMetrics, em.Metric.ID)
		}
	}
	sort.Strings(rep.DegradedMetrics)
	rep.DegradedMetrics = dedupSorted(rep.DegradedMetrics)
	if s.monitor != nil {
		for _, l := range s.monitor.links {
			st := l.Stats()
			rep.Links = append(rep.Links, st)
			rep.Resyncs += st.Resyncs
		}
	}
	s.finalizeCrashes(s.Now())
	end := s.Now()
	for _, w := range s.Machine.CrashWindows() {
		rep.Crashes = append(rep.Crashes, w)
		if w.Recovered {
			rep.RecoveredTime += w.Up.Sub(w.Down)
		} else {
			rep.LostTime += end.Sub(w.Down)
			rep.LostNodes = append(rep.LostNodes, w.Node)
		}
	}
	sort.Ints(rep.LostNodes)
	if s.recovery != nil {
		rep.Supervisor = s.recovery.sv.Stats()
		rep.Checkpoints = s.recovery.store.Stats()
	}
	rep.Cut = s.cutInfo()
	if s.budget != nil {
		rep.Budget = s.budget.Stats()
	}
	boundReport(rep)
	return rep
}

// boundReport truncates the report's detail slices to maxReportDetail
// entries each, recording the exact elided counts. Aggregates were
// already computed over the full sets, and the kept prefixes are
// deterministic (enactment order for crashes and links, sorted order
// for metric IDs and nodes), so a bounded report is still byte-stable.
func boundReport(r *DegradationReport) {
	if n := len(r.Crashes) - maxReportDetail; n > 0 {
		r.Crashes = r.Crashes[:maxReportDetail]
		r.Truncated.Crashes = n
	}
	if n := len(r.Links) - maxReportDetail; n > 0 {
		r.Links = r.Links[:maxReportDetail]
		r.Truncated.Links = n
	}
	if n := len(r.DegradedMetrics) - maxReportDetail; n > 0 {
		r.DegradedMetrics = r.DegradedMetrics[:maxReportDetail]
		r.Truncated.DegradedMetrics = n
	}
	if n := len(r.LostNodes) - maxReportDetail; n > 0 {
		r.LostNodes = r.LostNodes[:maxReportDetail]
		r.Truncated.LostNodes = n
	}
	if n := len(r.DroppedSamples) - maxReportDetail; n > 0 {
		ids := make([]string, 0, len(r.DroppedSamples))
		for id := range r.DroppedSamples {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids[maxReportDetail:] {
			delete(r.DroppedSamples, id)
		}
		r.Truncated.DroppedSamples = n
	}
}

func dedupSorted(xs []string) []string {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || xs[i-1] != x {
			out = append(out, x)
		}
	}
	return out
}

// ExportReliable forwards SAS sentences matching pattern from one
// node's SAS to another's over a sequenced, retransmitting link
// (Section 4.2.3's cross-node forwarding, hardened per the fault
// model). When the session has a fault plan with SAS faults, the link
// runs over a lossy transport driven by the session injector; resync
// enables snapshot recovery on persistent gaps. The link's Flush models
// the sender's retransmit timer; the session report collects its stats.
// Both nodes must be nodes of the session's machine.
func (m *Monitor) ExportReliable(fromNode, toNode int, pattern sas.Term) (*sas.ReliableLink, error) {
	for _, n := range []int{fromNode, toNode} {
		if n < 0 || n >= m.session.Machine.Nodes() {
			return nil, fmt.Errorf("nvmap: export node %d outside the machine's %d nodes", n, m.session.Machine.Nodes())
		}
	}
	reg := m.session.Tool.SASes
	from, to := reg.Node(fromNode), reg.Node(toNode)
	var inner sas.Transport
	resync := true
	if inj := m.session.faults; inj != nil {
		inner = &sas.LossyTransport{Inj: inj}
		if p := m.session.plan; p != nil {
			resync = p.SAS.Resync
		}
	}
	link, err := from.ExportReliable(pattern, to, inner, resync)
	if err != nil {
		return nil, err
	}
	m.links = append(m.links, link)
	return link, nil
}
