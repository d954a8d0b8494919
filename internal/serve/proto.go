// Package serve is the multi-tenant profiling service: a long-running
// HTTP daemon that accepts concurrent tenant Sessions (compile → run →
// answer questions) over the nvmap facade, sharing the process-wide
// interner and the per-(source, options) compile/PIF memo across
// tenants, and streaming answers and degradation reports as they
// materialise.
//
// Robustness is the package's contract, built on the PR6 governance
// primitives:
//
//   - admission control: a fixed set of run slots plus a bounded wait
//     queue; when the queue is full the daemon fast-rejects with 429
//     and a Retry-After estimate instead of building unbounded backlog;
//   - per-tenant quotas: concurrent-session caps and cumulative
//     virtual-time / allocation budgets, enforced per request by
//     mapping the tenant's remaining allowance onto nvmap.WithBudget;
//   - a shed ladder: under load the daemon admits sessions at a
//     degraded fidelity level (the budget governor's own ladder —
//     coarser sampling, harder batching) before it starts rejecting;
//   - panic containment: a tenant's run that dies with a *SessionError
//     (or any contained panic) becomes an error event on that tenant's
//     stream, never a process death;
//   - graceful drain: Drain stops admissions, gives in-flight runs a
//     grace window, then cuts stragglers at an exact virtual-time
//     operation boundary via context cancellation, flushing their
//     partial reports before the daemon exits.
package serve

import (
	"nvmap/internal/vtime"
)

// SessionRequest is the POST /v1/sessions body. Either Source carries
// an explicit mini CM Fortran program, or Scenario+Seed name a
// deterministic generated workload (see scenario.go); both may be set,
// in which case Source supplies the program and Scenario the fault
// composition.
type SessionRequest struct {
	// Tenant identifies the quota bucket; empty selects the anonymous
	// tenant "".
	Tenant string `json:"tenant,omitempty"`
	// Source is the program text (optional when Scenario is set).
	Source string `json:"source,omitempty"`
	// Scenario selects a canned deterministic workload composition:
	// "plain", "faulty", "crashy" or "parallel". Empty with Source set
	// runs the source fault-free.
	Scenario string `json:"scenario,omitempty"`
	// Seed drives every randomized choice in the scenario (program
	// shape, fault schedule). The same (scenario, seed, nodes) is the
	// same run, byte for byte.
	Seed int64 `json:"seed,omitempty"`
	// Nodes sizes the partition (default 8, clamped by the server's
	// per-request cap).
	Nodes int  `json:"nodes,omitempty"`
	Fuse  bool `json:"fuse,omitempty"`
	// Metrics are metric-library IDs enabled at the whole-program focus
	// and answered after the run.
	Metrics []string `json:"metrics,omitempty"`
	// Questions are SAS performance questions in the paper's notation,
	// registered on every node before the run.
	Questions []QuestionSpec `json:"questions,omitempty"`
	// DeadlineMS bounds the run in wall-clock milliseconds; 0 adopts
	// the server's default. The deadline maps onto Session.RunContext,
	// so an expired run is cut at an exact virtual-time boundary.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// MaxVirtualTimeNS optionally caps the run's virtual clock below
	// what the tenant's quota would allow.
	MaxVirtualTimeNS int64 `json:"max_virtual_time_ns,omitempty"`
}

// QuestionSpec is one SAS question: a display label and the question
// text, e.g. "{A Sums}, {? Sends}".
type QuestionSpec struct {
	Label string `json:"label"`
	Text  string `json:"text"`
}

// DiagnoseRequest is the POST /v1/diagnose body: run the Performance
// Consultant's budget-bounded why/where search over a program and
// stream every probe's finding back as it is evaluated. Source and
// Scenario compose exactly as in SessionRequest; admission, quotas and
// drain apply the same way — a diagnosis holds one run slot for its
// whole search (base run plus replays), runs each of the search's
// sessions under the tenant allowance left after the ones before it,
// and charges the tenant every session's virtual time and allocation
// bytes.
type DiagnoseRequest struct {
	Tenant   string `json:"tenant,omitempty"`
	Source   string `json:"source,omitempty"`
	Scenario string `json:"scenario,omitempty"`
	Seed     int64  `json:"seed,omitempty"`
	Nodes    int    `json:"nodes,omitempty"`
	Fuse     bool   `json:"fuse,omitempty"`
	// Budget caps probe evaluations (0 selects the engine default;
	// negative is a bad request).
	Budget int `json:"budget,omitempty"`
	// Threshold, when positive, overrides every hypothesis's own
	// confirmation threshold; must be in [0, 1).
	Threshold float64 `json:"threshold,omitempty"`
	// MaxDepth bounds where-axis refinement depth (0 = engine default).
	MaxDepth int `json:"max_depth,omitempty"`
	// DeadlineMS bounds the whole search in wall-clock milliseconds;
	// 0 adopts the server's default. Expiry (or drain) cuts the
	// in-flight replay at a virtual-time boundary and ends the stream
	// with an error event.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// Event is one NDJSON line on a session response stream. Exactly one
// of the payload pointers is set, matching Event.
type Event struct {
	// Event is "admitted", "answer", "question", "report", "finding",
	// "diagnosis", "done" or "error".
	Event     string         `json:"event"`
	Admitted  *AdmittedInfo  `json:"admitted,omitempty"`
	Answer    *AnswerInfo    `json:"answer,omitempty"`
	Question  *QuestionInfo  `json:"question,omitempty"`
	Report    *ReportInfo    `json:"report,omitempty"`
	Finding   *FindingInfo   `json:"finding,omitempty"`
	Diagnosis *DiagnosisInfo `json:"diagnosis,omitempty"`
	Done      *DoneInfo      `json:"done,omitempty"`
	Error     *ErrorInfo     `json:"error,omitempty"`
}

// AdmittedInfo opens every accepted stream: how long the request
// queued and at what fidelity it was admitted.
type AdmittedInfo struct {
	// ShedLevel is the fidelity the admission controller granted: 0 is
	// full fidelity; 1–3 climb the budget governor's shed ladder
	// (sampling interval doubled per level, drains batched harder).
	ShedLevel int `json:"shed_level"`
	// QueueNS is the wall-clock time the request waited for a run slot.
	QueueNS int64 `json:"queue_ns"`
}

// AnswerInfo is one metric's final value.
type AnswerInfo struct {
	Metric string  `json:"metric"`
	Value  float64 `json:"value"`
	Units  string  `json:"units,omitempty"`
	// Degraded marks a histogram with overflow holes; Partial carries
	// the lost-node annotation ("(partial: lost node N at T)") when a
	// permanently dead node should have contributed.
	Degraded bool   `json:"degraded,omitempty"`
	Partial  string `json:"partial,omitempty"`
}

// QuestionInfo is one SAS question's aggregated answer.
type QuestionInfo struct {
	Label           string  `json:"label"`
	Count           float64 `json:"count"`
	EventTimeNS     int64   `json:"event_time_ns"`
	SatisfiedTimeNS int64   `json:"satisfied_time_ns"`
	Satisfied       bool    `json:"satisfied,omitempty"`
}

// ReportInfo carries the run's degradation report.
type ReportInfo struct {
	// Text is DegradationReport.String() — byte-stable for a fixed
	// scenario and seed.
	Text string `json:"text"`
	// Zero mirrors DegradationReport.Zero().
	Zero bool `json:"zero"`
	// Cut is set when the run was cut short (deadline, budget, drain,
	// contained panic).
	Cut *CutInfo `json:"cut,omitempty"`
	// ShedLevel is the budget governor's final degradation level.
	ShedLevel int `json:"shed_level,omitempty"`
	// LostNodes lists permanently dead nodes (answers covering them
	// are partial).
	LostNodes []int `json:"lost_nodes,omitempty"`
	// LostTimeNS is the virtual time lost to never-recovered windows.
	LostTimeNS int64 `json:"lost_time_ns,omitempty"`
}

// CutInfo mirrors nvmap.CutInfo in wire form.
type CutInfo struct {
	Kind   string `json:"kind"`
	Op     string `json:"op,omitempty"`
	Node   int    `json:"node"`
	AtNS   int64  `json:"at_ns"`
	Reason string `json:"reason,omitempty"`
}

// FindingInfo is one consultant probe's outcome, streamed the moment
// the probe is evaluated (probe order, not display order — Seq gives
// the order, Depth the refinement level).
type FindingInfo struct {
	Hypothesis string  `json:"hypothesis"`
	Focus      string  `json:"focus"`
	Fraction   float64 `json:"fraction"`
	Threshold  float64 `json:"threshold"`
	Confirmed  bool    `json:"confirmed"`
	// Source is "sampled" (answered from the base run) or "re-run"
	// (the probe replayed the program under focused instrumentation).
	Source string `json:"source"`
	Depth  int    `json:"depth"`
	Seq    int    `json:"seq"`
	CostNS int64  `json:"cost_ns"`
}

// DiagnosisInfo summarises a finished search: the byte-stable text
// report plus the search's own cost accounting.
type DiagnosisInfo struct {
	// Text is Report.Text() — byte-stable for a fixed program.
	Text          string `json:"text"`
	Confirmed     int    `json:"confirmed"`
	ProbesRun     int    `json:"probes_run"`
	Pruned        int    `json:"pruned"`
	Budget        int    `json:"budget"`
	MaxDepth      int    `json:"max_depth"`
	SearchVTimeNS int64  `json:"search_vtime_ns"`
}

// DoneInfo closes a successful stream.
type DoneInfo struct {
	ElapsedVirtualNS int64 `json:"elapsed_virtual_ns"`
	WallNS           int64 `json:"wall_ns"`
}

// ErrorInfo closes a failed stream (or is the whole body of a
// rejection). Kind is a stable machine-readable class.
type ErrorInfo struct {
	// Kind: "rejected_busy", "rejected_quota", "draining",
	// "bad_request", "deadline exceeded", "cancelled", "over budget",
	// "stalled", "panicked", "internal".
	Kind    string `json:"kind"`
	Message string `json:"message"`
	// RetryAfterSec echoes the Retry-After header on 429/503 bodies.
	RetryAfterSec int `json:"retry_after_sec,omitempty"`
}

// nsOf converts a vtime quantity to wire nanoseconds.
func nsOf(d vtime.Duration) int64 { return int64(d) }
