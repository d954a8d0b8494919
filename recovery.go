package nvmap

import (
	"encoding/json"

	"nvmap/internal/checkpoint"
	"nvmap/internal/daemon"
	"nvmap/internal/machine"
	"nvmap/internal/mdl"
	"nvmap/internal/obs"
	"nvmap/internal/sas"
	"nvmap/internal/vtime"
)

// This file wires the fail-stop crash/recovery subsystem through the
// session. A crash plan (fault.Plan.Crashes) schedules node deaths; the
// machine enacts them at operation boundaries, wiping the node's
// measurement state. Recovery rebuilds it from three daemon-side
// sources that survive the crash:
//
//   - periodic checkpoints of the node's SAS and enabled metric
//     primitives (versioned, checksummed snapshots in
//     internal/checkpoint), each carrying the journal cursors at capture
//     time;
//   - journals of every SAS record and probe fire since — the
//     "retransmitted post-checkpoint records";
//   - the supervisor's definition ledger, re-registering the node's
//     dynamic nouns/verbs with the Data Manager while suppressing nouns
//     whose removal notices it has seen.
//
// A node that never reboots stays dead: the tool annotates every answer
// its focus covered as partial, and the degradation report accounts the
// lost virtual time exactly.

// RecoveryConfig tunes the crash-recovery machinery. It only takes
// effect when the session's fault plan schedules crashes.
type RecoveryConfig struct {
	// CheckpointEvery is the virtual-time interval between checkpoints
	// of per-node measurement state. Zero selects the default
	// (DefaultCheckpointEvery); negative disables periodic checkpoints,
	// in which case a reboot replays the full journals from the start of
	// the run (slower recovery, same answers).
	CheckpointEvery vtime.Duration
	// Timeout is the supervisor's heartbeat silence threshold (zero =
	// daemon.DefaultSupervisorTimeout).
	Timeout vtime.Duration
	// Probes is the supervisor's backoff probe count before declaring a
	// node dead (zero = daemon.DefaultSupervisorProbes).
	Probes int
	// Disable turns the recovery machinery off entirely: crashes still
	// happen (and lost nodes are still annotated), but rebooted nodes
	// come back with whatever state the wipe left — nothing, since
	// without recovery nobody wipes or restores them. For ablation
	// experiments only.
	Disable bool
}

// DefaultCheckpointEvery is the checkpoint interval when
// RecoveryConfig.CheckpointEvery is zero.
const DefaultCheckpointEvery = 100 * vtime.Microsecond

// instFire tags a journaled probe fire with its enabled-metric index.
type instFire struct {
	Inst int
	Fire mdl.ProbeFire
}

// nodeCheckpoint is the serialized per-node snapshot payload. The
// cursors index the session journals at capture time: recovery restores
// the snapshot and replays everything after the cursors. The store is
// in memory and lives for one session, so a payload is only ever read
// back by the code that wrote it; the shape carries no version.
type nodeCheckpoint struct {
	SAS         sas.State
	Metrics     []mdl.PrimState
	SASCursor   int
	ProbeCursor int
}

// recovery is the session's crash-recovery state: the checkpoint store,
// the supervisor, and the post-checkpoint journals.
type recovery struct {
	s     *Session
	store *checkpoint.Store
	sv    *daemon.Supervisor

	checkpointEvery vtime.Duration
	lastCkpt        vtime.Time
	armed           bool

	// Per-node journals of records since the start of the run. Never
	// truncated; checkpoints carry cursors into them.
	sasJournal   map[int][]sas.Record
	probeJournal map[int][]instFire
}

// newRecovery builds and wires the recovery machinery onto a session
// whose fault plan schedules crashes.
func newRecovery(s *Session, cfg RecoveryConfig) *recovery {
	rc := &recovery{
		s:               s,
		store:           checkpoint.NewStore(),
		checkpointEvery: cfg.CheckpointEvery,
		sasJournal:      make(map[int][]sas.Record),
		probeJournal:    make(map[int][]instFire),
	}
	if rc.checkpointEvery == 0 {
		rc.checkpointEvery = DefaultCheckpointEvery
	}
	rc.sv = daemon.NewSupervisor(s.Machine.Nodes(), daemon.SupervisorConfig{
		Timeout: cfg.Timeout,
		Probes:  cfg.Probes,
	}, s.Tool.Channel(), rc)

	// The supervisor's definition ledger taps the daemon channel.
	s.Tool.Channel().OnMessage(rc.sv.RecordDef)

	// The crash wipes the node's measurement state in place; pointers
	// held by links and snippets stay valid. Questions are re-registered
	// immediately so their IDs remain stable for restore.
	s.Machine.OnCrash(func(node int, at vtime.Time) {
		s.wipeNode(node)
		rc.sv.NodeDown(node, at)
	})
	// The reboot restores checkpoint + journals and re-registers the
	// node's dynamic definitions, before the EvRestart event reaches
	// observers (they sample recovered state).
	s.Machine.OnRestart(func(node int, at vtime.Time) {
		rc.sv.NodeUp(node, at)
	})

	// Heartbeats and the failure detector ride the machine event stream;
	// the checkpoint cadence runs in global virtual time against the
	// machine's ground-truth liveness.
	s.Machine.Observe(func(e machine.Event) {
		if e.Node >= 0 && s.Machine.Alive(e.Node) {
			rc.sv.Beat(e.Node, e.End)
		}
		now := s.Machine.GlobalNow()
		rc.sv.Tick(now)
		if rc.armed && rc.checkpointEvery > 0 && now.Sub(rc.lastCkpt) >= rc.checkpointEvery {
			rc.lastCkpt = now
			rc.sv.CheckpointAll(now, s.Machine.Alive)
		}
	})
	return rc
}

// arm installs the journaling hooks on every node's SAS and enabled
// metric instance. Run calls it once, after the experiment has set up
// its monitors and metrics.
func (rc *recovery) arm() {
	if rc.armed {
		return
	}
	rc.armed = true
	s := rc.s
	for n := 0; n < s.Machine.Nodes(); n++ {
		node := n
		s.Tool.SASes.Node(node).SetRecorder(func(r sas.Record) {
			rc.sasJournal[node] = append(rc.sasJournal[node], r)
		})
	}
	for i, em := range s.Tool.Enabled() {
		idx := i
		em.Instance.SetJournal(func(node int, f mdl.ProbeFire) {
			rc.probeJournal[node] = append(rc.probeJournal[node], instFire{Inst: idx, Fire: f})
		})
	}
}

// wipeNode is the crash: the node's SAS and metric primitives are
// cleared in place. The journals and checkpoints — daemon-side state —
// survive.
func (s *Session) wipeNode(node int) {
	s.Tool.SASes.ResetNode(node)
	for _, em := range s.Tool.Enabled() {
		em.Instance.ResetNode(node)
	}
}

// CheckpointNode implements daemon.Recoverer: serialize the node's
// measurement state with the current journal cursors into the
// versioned, checksummed store.
func (rc *recovery) CheckpointNode(node int, at vtime.Time) {
	s := rc.s
	if tr := s.obsTracer(); tr != nil {
		ref := tr.Begin(obs.StageCheckpoint, "", node, at)
		defer tr.End(ref, at)
	}
	ck := nodeCheckpoint{
		SAS:         s.Tool.SASes.Node(node).ExportState(),
		Metrics:     make([]mdl.PrimState, 0, len(s.Tool.Enabled())),
		SASCursor:   len(rc.sasJournal[node]),
		ProbeCursor: len(rc.probeJournal[node]),
	}
	for _, em := range s.Tool.Enabled() {
		ck.Metrics = append(ck.Metrics, em.Instance.ExportNode(node))
	}
	payload, err := json.Marshal(ck)
	if err != nil {
		return // unreachable: the state types are plain data
	}
	rc.store.Save(node, at, payload)
}

// RestoreNode implements daemon.Recoverer: rebuild a rebooted node from
// the latest intact checkpoint plus the journals past its cursors. With
// no usable checkpoint the recovery is cold — the whole journals replay
// onto the empty node.
func (rc *recovery) RestoreNode(node int, at vtime.Time) daemon.RestoreOutcome {
	s := rc.s
	if tr := s.obsTracer(); tr != nil {
		ref := tr.Begin(obs.StageRestore, "", node, at)
		defer tr.End(ref, at)
	}
	var out daemon.RestoreOutcome
	var ck nodeCheckpoint
	if snap, ok := rc.store.Latest(node); ok {
		if err := json.Unmarshal(snap.Payload, &ck); err == nil {
			out.FromCheckpoint = true
			out.CheckpointAt = snap.At
		} else {
			ck = nodeCheckpoint{}
		}
	}
	nodeSAS := s.Tool.SASes.Node(node)
	if out.FromCheckpoint {
		nodeSAS.RestoreState(ck.SAS)
		for i, em := range s.Tool.Enabled() {
			if i < len(ck.Metrics) {
				em.Instance.RestoreNode(node, ck.Metrics[i])
			}
		}
	}

	for _, r := range rc.sasJournal[node][min(ck.SASCursor, len(rc.sasJournal[node])):] {
		nodeSAS.Replay(r)
		out.SASReplayed++
	}
	enabled := s.Tool.Enabled()
	for _, f := range rc.probeJournal[node][min(ck.ProbeCursor, len(rc.probeJournal[node])):] {
		if f.Inst < len(enabled) {
			enabled[f.Inst].Instance.ReplayNode(node, []mdl.ProbeFire{f.Fire})
			out.ProbesReplayed++
		}
	}
	return out
}

// Supervisor exposes the session's crash supervisor (nil when the fault
// plan schedules no crashes or recovery is disabled).
func (s *Session) Supervisor() *daemon.Supervisor {
	if s.recovery == nil {
		return nil
	}
	return s.recovery.sv
}

// Checkpoints exposes the checkpoint store statistics (zero value when
// recovery is not armed).
func (s *Session) Checkpoints() checkpoint.Stats {
	if s.recovery == nil {
		return checkpoint.Stats{}
	}
	return s.recovery.store.Stats()
}

// finalizeCrashes settles end-of-run crash accounting exactly once:
// nodes still down are permanently lost — the supervisor, the injector
// ledger and the tool's partial-answer annotations all learn about it.
func (s *Session) finalizeCrashes(end vtime.Time) {
	if s.crashFinal {
		return
	}
	s.crashFinal = true
	for _, w := range s.Machine.CrashWindows() {
		if w.Recovered {
			continue
		}
		s.Tool.NoteLostNode(w.Node, w.Down)
		if s.faults != nil {
			s.faults.NoteLost(end.Sub(w.Down))
		}
		if s.recovery != nil {
			s.recovery.sv.MarkLost(w.Node, w.Down)
		}
	}
}
