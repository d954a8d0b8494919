package mdl

import (
	"fmt"

	"nvmap/internal/dyninst"
	"nvmap/internal/vtime"
)

// Instance is one enabled metric-focus pair: the primitives allocated for
// it (one counter or timer per node, plus one for the control processor)
// and the snippets inserted into the running application. Paradyn
// "compiles the descriptions into code that is inserted into running
// applications at precisely the moment when the particular metric is
// requested" — Instantiate is that moment.
type Instance struct {
	Metric *Metric

	nodes    int
	width    int // nodes covered by the focus; divisor for aggregate avg
	counters []dyninst.Counter
	timers   []dyninst.Timer
	handles  []dyninst.Handle
	mgr      *dyninst.Manager
	removed  bool
	// journal, when set, records worker-node probe fires for crash
	// recovery (see recover.go).
	journal func(node int, f ProbeFire)
}

// SetWidth declares how many nodes the instance's focus covers. Metrics
// declared "aggregate avg" divide by this width: a collective operation
// fires once on every participating node, so the average over the focus
// counts each operation exactly once. The default is the full partition.
func (inst *Instance) SetWidth(w int) {
	if w > 0 {
		inst.width = w
	}
}

// slot maps a context node (CP = -1) to a primitive index.
func slot(node int) int { return node + 1 }

// Instantiate allocates primitives and inserts the metric's probes,
// guarded by pred (nil = unconstrained). The predicate is how a metric is
// constrained to a focus: node selection, an array's SAS flag, a
// statement's block, or any conjunction the tool builds.
func (m *Metric) Instantiate(mgr *dyninst.Manager, nodes int, pred dyninst.Predicate) (*Instance, error) {
	if mgr == nil {
		return nil, fmt.Errorf("mdl: nil instrumentation manager")
	}
	if nodes < 1 {
		return nil, fmt.Errorf("mdl: need at least one node")
	}
	inst := &Instance{Metric: m, nodes: nodes, width: nodes, mgr: mgr}
	// One slice per instance, slot 0 being the control processor (node
	// -1); each primitive renders its "ID[node]" label only when asked.
	if m.Kind == Count {
		inst.counters = dyninst.NewCounters(m.ID, -1, nodes+1)
	} else {
		inst.timers = dyninst.NewTimers(m.ID, m.Timer, -1, nodes+1)
	}

	for i, probe := range m.Probes {
		action := inst.actionFor(i, probe)
		h := mgr.Insert(probe.Point, dyninst.Snippet{
			Name: m.ID + ":" + probe.Action.String(),
			When: pred,
			Do:   action,
		})
		inst.handles = append(inst.handles, h)
	}
	return inst, nil
}

func (inst *Instance) actionFor(i int, probe Probe) dyninst.Action {
	return func(ctx dyninst.Context) {
		inst.apply(probe, ctx.Node, ctx.Now)
		if inst.journal != nil && ctx.Node >= 0 {
			inst.journal(ctx.Node, ProbeFire{Probe: i, At: ctx.Now})
		}
	}
}

// Value reads the metric's aggregate value as of now: event counts for
// count metrics, seconds for time metrics. Per-node primitives are
// aggregated per the metric's declaration (sum or avg over nodes).
func (inst *Instance) Value(now vtime.Time) float64 {
	var total float64
	if inst.Metric.Kind == Count {
		for i := range inst.counters {
			total += inst.counters[i].Value()
		}
	} else {
		for i := range inst.timers {
			total += inst.timers[i].Value(now).Seconds()
		}
	}
	if inst.Metric.Agg == AggAvg {
		total /= float64(inst.width)
	}
	return total
}

// NodeValue reads one node's primitive (CP = -1).
func (inst *Instance) NodeValue(node int, now vtime.Time) float64 {
	if inst.Metric.Kind == Count {
		return inst.counters[slot(node)].Value()
	}
	return inst.timers[slot(node)].Value(now).Seconds()
}

// Remove deletes the instance's snippets from the application. The
// primitives retain their final values.
func (inst *Instance) Remove() error {
	if inst.removed {
		return fmt.Errorf("mdl: instance %s already removed", inst.Metric.ID)
	}
	inst.removed = true
	for _, h := range inst.handles {
		if err := inst.mgr.Remove(h); err != nil {
			return err
		}
	}
	return nil
}
