package diagnose

import (
	"encoding/json"
	"fmt"
	"strings"
)

// FormatFraction renders a fraction in the report's fixed-width form:
// always 4 decimal places padded to 8 columns, so golden reports never
// churn with float formatting and columns stay aligned.
func FormatFraction(f float64) string { return fmt.Sprintf("%8.4f", f) }

// Line renders one finding as a fixed-width report line, including the
// probe source so a reader can tell a sampled answer from a replayed
// one:
//
//	CommBound     at /Machine/node2                   0.7100 (threshold   0.3000) CONFIRMED [sampled]
func (f *Finding) Line() string {
	verdict := "rejected "
	if f.Confirmed {
		verdict = "CONFIRMED"
	}
	return fmt.Sprintf("%-13s at %-36s %s (threshold %s) %s [%s]",
		f.Hypothesis, f.Focus, FormatFraction(f.Fraction), FormatFraction(f.Threshold),
		verdict, f.Source)
}

// Text renders the full report as an indented findings tree plus the
// search's own cost. The rendering is byte-stable for a deterministic
// evaluator: it includes the virtual-time search cost and the replay
// count (omitted when the base run answered every probe) but not the
// wall-clock cost.
func (r *Report) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "diagnosis: %d/%d hypotheses confirmed\n", r.Confirmed(), len(r.Roots))
	fmt.Fprintf(&b, "probes: %d run, %d pruned (budget %d); refinement depth %d; search vtime %v",
		r.ProbesRun, r.Pruned, r.Budget, r.MaxDepth, r.SearchVTime)
	if r.Replays > 0 {
		fmt.Fprintf(&b, "; replays %d", r.Replays)
	}
	b.WriteByte('\n')
	var rec func(fs []*Finding, indent string)
	rec = func(fs []*Finding, indent string) {
		for _, f := range fs {
			b.WriteString(indent)
			b.WriteString(f.Line())
			b.WriteByte('\n')
			rec(f.Children, indent+"  ")
		}
	}
	rec(r.Roots, "  ")
	return b.String()
}

// JSON renders the report as indented JSON. The Wall field rides along;
// callers that need byte-stable output zero it first (the corpus golden
// tests do).
func (r *Report) JSON() ([]byte, error) {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// ChromeTrace renders the search as a Chrome trace_event overlay: one
// complete ("X") event per probe on a per-depth track, laid out on the
// virtual-time axis by cumulative probe cost, plus a counter track of
// probes run. Load it alongside a session trace to see where the
// consultant spent its search budget. The rendering is deterministic —
// wall time never appears.
func (r *Report) ChromeTrace() []byte {
	type traceEvent struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	// Probes in evaluation order, so the timeline reads as the search ran.
	ordered := make([]*Finding, 0, r.ProbesRun)
	r.Walk(func(f *Finding) { ordered = append(ordered, f) })
	for i := 1; i < len(ordered); i++ {
		for j := i; j > 0 && ordered[j-1].Seq > ordered[j].Seq; j-- {
			ordered[j-1], ordered[j] = ordered[j], ordered[j-1]
		}
	}
	var evs []traceEvent
	ts := 0.0
	for _, f := range ordered {
		// Re-run probes occupy their replay's virtual cost on the axis;
		// sampled probes get a minimum visible width.
		width := float64(f.Cost) / 1e3 // vtime ns -> µs
		if width < 1 {
			width = 1
		}
		evs = append(evs, traceEvent{
			Name: f.Hypothesis + " " + f.Focus,
			Ph:   "X", Ts: ts, Dur: width,
			Pid: 0, Tid: f.Depth,
			Args: map[string]any{
				"fraction":  f.Fraction,
				"threshold": f.Threshold,
				"confirmed": f.Confirmed,
				"source":    f.Source.String(),
				"seq":       f.Seq,
			},
		})
		evs = append(evs, traceEvent{
			Name: "consultant_probes", Ph: "C", Ts: ts, Pid: 0, Tid: 0,
			Args: map[string]any{"run": f.Seq + 1},
		})
		ts += width
	}
	out, _ := json.MarshalIndent(struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}{evs}, "", "  ")
	return append(out, '\n')
}
