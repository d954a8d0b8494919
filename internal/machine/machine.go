// Package machine simulates the parallel hardware substrate of the
// paper's case study: a CM-5-like distributed-memory machine with a
// control processor and a partition of worker nodes connected by a data
// network.
//
// The simulator is deterministic and runs on virtual time. Each node (and
// the control processor) carries its own virtual clock; computation
// advances a node's clock by a parametric per-element cost, and
// communication synchronises clocks through latency/bandwidth-modelled
// transfers. Collective operations (control-processor broadcast, global
// reduction, barriers) use logarithmic tree models like the CM-5 control
// network.
//
// The paper's mechanisms need the *structure* of execution — which node
// did what, when, on whose behalf — rather than cycle-accurate hardware,
// so the model favours clarity and reproducibility: every experiment in
// EXPERIMENTS.md produces identical numbers on every run.
package machine

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"nvmap/internal/fault"
	"nvmap/internal/obs"
	"nvmap/internal/vtime"
)

// Config holds the machine's cost model. All costs are virtual durations.
type Config struct {
	// Nodes is the number of worker nodes in the partition (power of two
	// recommended; anything >= 1 works).
	Nodes int
	// ComputePerElem is the cost of one elemental arithmetic operation on
	// a node's vector units.
	ComputePerElem vtime.Duration
	// MessageLatency is the network injection-to-delivery latency of a
	// point-to-point message, excluding payload serialisation.
	MessageLatency vtime.Duration
	// PerByte is the serialisation cost per payload byte.
	PerByte vtime.Duration
	// SendOverhead is the processor-side cost of posting a send.
	SendOverhead vtime.Duration
	// DispatchLatency is the control-network cost for the control
	// processor to activate a node code block on the partition.
	DispatchLatency vtime.Duration
	// TreeStep is the per-level cost of combining/broadcast trees used by
	// reductions, broadcasts and barriers on the control network.
	TreeStep vtime.Duration
	// Topology, when non-nil, models the hardware hierarchy beneath the
	// logical nodes (see topology.go): messages between logical nodes
	// are routed over the interconnect, charged per link crossed, and
	// accounted in the per-link load counters. Nil keeps the historical
	// flat machine — one nil check on the send path, nothing else.
	Topology *Topology
	// Placement assigns each logical node to a topology leaf (core).
	// Nil selects the identity placement (logical node i on leaf i).
	// Entries must be distinct and within [0, Topology.Leaves()).
	// Meaningless (and rejected) without a Topology.
	Placement []int
}

// DefaultConfig returns a cost model loosely shaped like a CM-5 partition:
// microsecond-scale network costs and tens-of-nanoseconds element ops.
func DefaultConfig(nodes int) Config {
	return Config{
		Nodes:           nodes,
		ComputePerElem:  30 * vtime.Nanosecond,
		MessageLatency:  5 * vtime.Microsecond,
		PerByte:         10 * vtime.Nanosecond,
		SendOverhead:    1 * vtime.Microsecond,
		DispatchLatency: 8 * vtime.Microsecond,
		TreeStep:        2 * vtime.Microsecond,
	}
}

// EventKind classifies simulator events.
type EventKind int

// The event kinds emitted by the simulator.
const (
	EvCompute EventKind = iota
	EvSend
	EvRecv
	EvDispatch // control processor activates a node code block
	EvBroadcast
	EvReduce
	EvBarrier
	EvIdle // a node waited (for the control processor or a message)
	// EvCrash marks a node fail-stopping; EvRestart marks its reboot
	// (Start is the crash instant, End the reboot instant).
	EvCrash
	EvRestart
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EvCompute:
		return "compute"
	case EvSend:
		return "send"
	case EvRecv:
		return "recv"
	case EvDispatch:
		return "dispatch"
	case EvBroadcast:
		return "broadcast"
	case EvReduce:
		return "reduce"
	case EvBarrier:
		return "barrier"
	case EvIdle:
		return "idle"
	case EvCrash:
		return "crash"
	case EvRestart:
		return "restart"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// CP is the pseudo-node id of the control processor in events.
const CP = -1

// Event is one observable simulator action. Start and End are in virtual
// time on the acting node's clock; Peer identifies the other side of a
// transfer (CP for control-processor interactions).
type Event struct {
	Kind  EventKind
	Node  int
	Peer  int
	Bytes int
	Elems int
	Start vtime.Time
	End   vtime.Time
	// Tag carries the high-level operation name that caused the event
	// (e.g. the node code block or runtime routine), for instrumentation.
	Tag string
}

// Duration returns the event's span.
func (e Event) Duration() vtime.Duration { return e.End.Sub(e.Start) }

// Observer receives every emitted event. Observers run synchronously on
// the simulation path; the dynamic-instrumentation layer uses them as its
// probe transport.
type Observer func(Event)

// NodeStats aggregates per-node activity, matching the verbs of the
// paper's Figure 9 CMRTS-level metrics.
type NodeStats struct {
	ComputeTime vtime.Duration
	ComputeOps  int
	Sends       int
	SendBytes   int
	SendTime    vtime.Duration
	Recvs       int
	IdleTime    vtime.Duration
	Dispatches  int
	// Fail-stop accounting: LostRecvs counts deliveries that arrived
	// inside one of the node's dead windows.
	Crashes   int
	Restarts  int
	LostRecvs int
}

// nodeStats is the internal mirror of NodeStats with atomic fields, so
// a metrics scrape (the obs registry's collectors, a profiling
// service's /metrics endpoint) can read a node's counters while the run
// is still mutating them. Each counter has exactly one writer (the
// driving goroutine), so plain Add/Load never lose updates; the atomics
// exist for the concurrent reader, not for write contention.
type nodeStats struct {
	computeTime atomic.Int64
	computeOps  atomic.Int64
	sends       atomic.Int64
	sendBytes   atomic.Int64
	sendTime    atomic.Int64
	recvs       atomic.Int64
	idleTime    atomic.Int64
	dispatches  atomic.Int64
	crashes     atomic.Int64
	restarts    atomic.Int64
	lostRecvs   atomic.Int64
}

// Machine is one simulated partition.
type Machine struct {
	cfg       Config
	nodeClock []vtime.Time
	cpClock   vtime.Time
	stats     []nodeStats
	observers []Observer
	// faults, when non-nil, perturbs point-to-point sends and node
	// compute speed with the injector's deterministic schedule.
	faults *fault.Injector
	// crash, when non-nil, tracks fail-stop state (see crash.go).
	crash     *crashState
	onCrash   []func(node int, at vtime.Time)
	onRestart []func(node int, at vtime.Time)

	// obsT, when non-nil, records spans for collective operations and
	// node regions on the observability plane. Nil (the default) costs
	// one pointer test per operation.
	obsT *obs.Tracer

	// gov, when non-nil, is consulted at every operation boundary (see
	// governor.go). govQuiet is the ParallelNodes nesting depth: while it
	// is non-zero operations charge but do not check, so a budget abort
	// cuts at a region's end, never between two of its nodes.
	gov      Governor
	govQuiet int

	// Topology state (see topology.go, net.go): the hardware hierarchy,
	// the resolved logical-node-to-leaf placement, the interconnect
	// accounting, and the route callbacks. All nil/empty on the flat
	// machine.
	topo    *Topology
	place   []int
	net     *netState
	onRoute []func(from, to, bytes int, links []Link, at vtime.Time)
}

// New builds a machine from the config.
func New(cfg Config) (*Machine, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("machine: need at least 1 node, got %d", cfg.Nodes)
	}
	if cfg.ComputePerElem < 0 || cfg.MessageLatency < 0 || cfg.PerByte < 0 ||
		cfg.SendOverhead < 0 || cfg.DispatchLatency < 0 || cfg.TreeStep < 0 {
		return nil, fmt.Errorf("machine: negative cost in config %+v", cfg)
	}
	m := &Machine{
		cfg:       cfg,
		nodeClock: make([]vtime.Time, cfg.Nodes),
		stats:     make([]nodeStats, cfg.Nodes),
	}
	if cfg.Topology != nil {
		t := cfg.Topology
		if err := t.Validate(); err != nil {
			return nil, err
		}
		if t.Leaves() < cfg.Nodes {
			return nil, fmt.Errorf("machine: topology %v has %d leaves for %d logical nodes",
				t, t.Leaves(), cfg.Nodes)
		}
		place := cfg.Placement
		if place == nil {
			place = make([]int, cfg.Nodes)
			for i := range place {
				place[i] = i
			}
		} else {
			if len(place) != cfg.Nodes {
				return nil, fmt.Errorf("machine: placement has %d entries for %d logical nodes",
					len(place), cfg.Nodes)
			}
			place = append([]int(nil), place...)
			seen := make(map[int]int, len(place))
			for i, leaf := range place {
				if leaf < 0 || leaf >= t.Leaves() {
					return nil, fmt.Errorf("machine: placement assigns node %d to leaf %d outside [0,%d)",
						i, leaf, t.Leaves())
				}
				if prev, dup := seen[leaf]; dup {
					return nil, fmt.Errorf("machine: placement assigns nodes %d and %d to the same leaf %d",
						prev, i, leaf)
				}
				seen[leaf] = i
			}
		}
		m.topo = t
		m.place = place
		m.net = newNetState(cfg.Nodes)
	} else if cfg.Placement != nil {
		return nil, fmt.Errorf("machine: placement given without a topology")
	}
	return m, nil
}

// Config returns the cost model.
func (m *Machine) Config() Config { return m.cfg }

// Nodes returns the partition size.
func (m *Machine) Nodes() int { return m.cfg.Nodes }

// Observe registers an observer for all subsequent events. Registration
// is not synchronised with execution: call it from the goroutine that
// drives the machine (normally before the run starts), never from
// another goroutine. Observers never need to be re-entrant: every
// observer call happens on the driving goroutine, in event order.
func (m *Machine) Observe(o Observer) {
	m.observers = append(m.observers, o)
}

// SetObs attaches an observability tracer. Collective operations,
// point-to-point sends and node regions record spans bracketing their
// execution — including any observer-driven measurement work, so the
// tracer's nesting attributes that work to its own stages rather than
// to the machine. A nil tracer (the default) disables recording. Call
// from the driving goroutine, like Observe.
func (m *Machine) SetObs(t *obs.Tracer) {
	m.obsT = t
}

// StageFor maps a simulator event kind to its observability stage.
func StageFor(k EventKind) obs.Stage {
	switch k {
	case EvCompute:
		return obs.StageCompute
	case EvSend:
		return obs.StageSend
	case EvRecv:
		return obs.StageRecv
	case EvDispatch:
		return obs.StageDispatch
	case EvBroadcast:
		return obs.StageBroadcast
	case EvReduce:
		return obs.StageReduce
	case EvBarrier:
		return obs.StageBarrier
	case EvIdle:
		return obs.StageIdle
	case EvCrash:
		return obs.StageCrash
	case EvRestart:
		return obs.StageRestart
	default:
		return obs.StageCompute
	}
}

// KindFor maps an observability stage back to the simulator event kind
// that produced it — the inverse of StageFor over the machine-event
// stages (package trace stores its timelines in the obs span model and
// converts back when rendering). Non-machine stages map to EvCompute,
// mirroring StageFor's default.
func KindFor(s obs.Stage) EventKind {
	switch s {
	case obs.StageSend:
		return EvSend
	case obs.StageRecv:
		return EvRecv
	case obs.StageDispatch:
		return EvDispatch
	case obs.StageBroadcast:
		return EvBroadcast
	case obs.StageReduce:
		return EvReduce
	case obs.StageBarrier:
		return EvBarrier
	case obs.StageIdle:
		return EvIdle
	case obs.StageCrash:
		return EvCrash
	case obs.StageRestart:
		return EvRestart
	default:
		return EvCompute
	}
}

// SetFaults attaches a fault injector to the network and the node
// vector units. A nil injector (the default) leaves the machine exactly
// as fast and as reliable as before: every fault consultation is a
// single nil check on the hot path.
func (m *Machine) SetFaults(in *fault.Injector) { m.faults = in }

// Faults returns the attached injector (nil when fault-free).
func (m *Machine) Faults() *fault.Injector { return m.faults }

// emit delivers an event to the observers.
func (m *Machine) emit(e Event) {
	for _, o := range m.observers {
		o(e)
	}
}

// Now returns a node's virtual clock.
func (m *Machine) Now(node int) vtime.Time { return m.nodeClock[node] }

// CPNow returns the control processor's virtual clock.
func (m *Machine) CPNow() vtime.Time { return m.cpClock }

// GlobalNow returns the latest clock in the system — the virtual
// wall-clock the tool's data manager timestamps samples with.
func (m *Machine) GlobalNow() vtime.Time {
	t := m.cpClock
	for _, c := range m.nodeClock {
		if c.After(t) {
			t = c
		}
	}
	return t
}

// Stats returns a copy of a node's accumulated statistics. It is safe
// to call while the machine runs — each counter is loaded atomically —
// though a mid-run reading is a point-in-time snapshot, not a
// consistent cut across counters.
func (m *Machine) Stats(node int) NodeStats {
	st := &m.stats[node]
	return NodeStats{
		ComputeTime: vtime.Duration(st.computeTime.Load()),
		ComputeOps:  int(st.computeOps.Load()),
		Sends:       int(st.sends.Load()),
		SendBytes:   int(st.sendBytes.Load()),
		SendTime:    vtime.Duration(st.sendTime.Load()),
		Recvs:       int(st.recvs.Load()),
		IdleTime:    vtime.Duration(st.idleTime.Load()),
		Dispatches:  int(st.dispatches.Load()),
		Crashes:     int(st.crashes.Load()),
		Restarts:    int(st.restarts.Load()),
		LostRecvs:   int(st.lostRecvs.Load()),
	}
}

// treeDepth is the number of combining-tree levels for the partition.
func (m *Machine) treeDepth() int {
	if m.cfg.Nodes <= 1 {
		return 1
	}
	return bits.Len(uint(m.cfg.Nodes - 1))
}

// ParallelNodes runs f(node) for every node of the partition in node-id
// order — the node-local phase between two collective operations. The
// loop is bracketed by one region span, and governor checks are
// suppressed inside it (operations still charge) and run once at its
// end, so a budget abort cuts at the region boundary.
func (m *Machine) ParallelNodes(f func(node int)) {
	if m.obsT != nil {
		ref := m.obsT.Begin(obs.StageRegion, "", obs.NodeCP, m.GlobalNow())
		defer func() { m.obsT.End(ref, m.GlobalNow()) }()
	}
	m.govQuiet++
	for node := 0; node < m.cfg.Nodes; node++ {
		f(node)
	}
	m.govQuiet--
	if g := m.gov; g != nil && m.govQuiet == 0 {
		m.checkGovernor(g, "ParallelNodes", CP)
	}
}

// AdvanceNode spends d of plain (unclassified) time on a node. Used by
// the instrumentation layer to model probe perturbation. A dead node's
// clock is frozen: the advance is discarded.
func (m *Machine) AdvanceNode(node int, d vtime.Duration) {
	if m.crash != nil && m.crash.dead[node] {
		return
	}
	m.nodeClock[node] = m.nodeClock[node].Add(d)
}

// AdvanceCP spends d on the control processor.
func (m *Machine) AdvanceCP(d vtime.Duration) {
	m.govern("AdvanceCP", CP)
	m.cpClock = m.cpClock.Add(d)
}

// Compute performs elems elemental operations on a node. A permanently
// dead node computes nothing.
func (m *Machine) Compute(node, elems int, tag string) {
	m.govern("Compute", node)
	if !m.Engage(node) {
		return
	}
	if m.faults != nil {
		if stall := m.faults.Stall(node); stall > 0 {
			before := m.nodeClock[node]
			m.nodeClock[node] = before.Add(stall)
			m.stats[node].idleTime.Add(int64(stall))
			m.emit(Event{Kind: EvIdle, Node: node, Peer: node, Start: before, End: m.nodeClock[node], Tag: tag})
		}
	}
	start := m.nodeClock[node]
	d := m.cfg.ComputePerElem.Scale(elems)
	if m.faults != nil {
		if f := m.faults.ComputeFactor(node); f != 1 {
			d = vtime.Duration(float64(d)*f + 0.5)
		}
	}
	end := start.Add(d)
	m.nodeClock[node] = end
	st := &m.stats[node]
	st.computeTime.Add(int64(d))
	st.computeOps.Add(int64(elems))
	m.emit(Event{Kind: EvCompute, Node: node, Peer: node, Elems: elems, Start: start, End: end, Tag: tag})
}

// Send transfers bytes from one node to another. The sender pays the send
// overhead plus serialisation; the receiver's clock advances to the
// arrival instant (waiting is recorded as idle time if the receiver's
// clock was behind the arrival).
//
// With a fault injector attached the message may be dropped (the sender
// still pays its costs, the receiver never sees a recv event), delivered
// twice (a second recv one latency later), or delayed. The returned
// arrival instant is always the sender's expectation — a sender cannot
// observe that the network lost its message.
func (m *Machine) Send(from, to, bytes int, tag string) vtime.Time {
	m.govern("Send", from)
	if !m.Engage(from) {
		return m.nodeClock[from]
	}
	if m.obsT != nil {
		ref := m.obsT.Begin(obs.StageSend, tag, from, m.nodeClock[from])
		defer func() { m.obsT.End(ref, m.nodeClock[from]) }()
	}
	start := m.nodeClock[from]
	serial := m.cfg.PerByte.Scale(bytes)
	sendEnd := start.Add(m.cfg.SendOverhead + serial)
	m.nodeClock[from] = sendEnd
	arrival := sendEnd.Add(m.cfg.MessageLatency)
	if m.topo != nil && from != to {
		arrival = arrival.Add(m.routeCharge(from, to, bytes, sendEnd))
	}

	var outcome fault.MessageOutcome
	if m.faults != nil {
		outcome = m.faults.Message(from, to)
		arrival = arrival.Add(outcome.Delay)
	}

	st := &m.stats[from]
	st.sends.Add(1)
	st.sendBytes.Add(int64(bytes))
	st.sendTime.Add(int64(sendEnd.Sub(start)))
	m.emit(Event{Kind: EvSend, Node: from, Peer: to, Bytes: bytes, Start: start, End: sendEnd, Tag: tag})

	if from != to && !outcome.Drop {
		m.deliver(from, to, bytes, arrival, tag)
		if outcome.Duplicate {
			m.deliver(from, to, bytes, arrival.Add(m.cfg.MessageLatency), tag)
		}
	}
	return arrival
}

// deliver lands one copy of a message on the receiver at the arrival
// instant, accounting wait as idle time. Deliveries into a dead window
// are lost (see admitDelivery).
func (m *Machine) deliver(from, to, bytes int, arrival vtime.Time, tag string) {
	if !m.admitDelivery(to, arrival) {
		return
	}
	rst := &m.stats[to]
	rst.recvs.Add(1)
	before := m.nodeClock[to]
	if arrival.After(before) {
		rst.idleTime.Add(int64(arrival.Sub(before)))
		m.emit(Event{Kind: EvIdle, Node: to, Peer: from, Start: before, End: arrival, Tag: tag})
		m.nodeClock[to] = arrival
	}
	m.emit(Event{Kind: EvRecv, Node: to, Peer: from, Bytes: bytes, Start: m.nodeClock[to], End: m.nodeClock[to], Tag: tag})
}

// Dispatch models the control processor activating a node code block on
// every node: the CP pays the dispatch latency once, and each node begins
// the block no earlier than the activation reaches it. Argument bytes are
// broadcast with the activation (the paper's "Argument Processing Time"
// measures nodes receiving arguments from the CM-5 control processor).
// It returns the per-node argument-processing spans via the emitted
// events; the runtime layers instrumentation on top.
func (m *Machine) Dispatch(tag string, argBytes int) {
	m.govern("Dispatch", CP)
	if m.obsT != nil {
		ref := m.obsT.Begin(obs.StageDispatch, tag, obs.NodeCP, m.cpClock)
		defer func() { m.obsT.End(ref, m.GlobalNow()) }()
	}
	cpStart := m.cpClock
	m.cpClock = m.cpClock.Add(m.cfg.DispatchLatency)
	arrival := m.cpClock.Add(m.cfg.TreeStep.Scale(m.treeDepth()))
	m.emit(Event{Kind: EvDispatch, Node: CP, Peer: CP, Bytes: argBytes, Start: cpStart, End: m.cpClock, Tag: tag})
	argCost := m.cfg.PerByte.Scale(argBytes)
	for n := 0; n < m.cfg.Nodes; n++ {
		if !m.Engage(n) {
			continue
		}
		before := m.nodeClock[n]
		if arrival.After(before) {
			m.stats[n].idleTime.Add(int64(arrival.Sub(before)))
			m.emit(Event{Kind: EvIdle, Node: n, Peer: CP, Start: before, End: arrival, Tag: tag})
			m.nodeClock[n] = arrival
		}
		start := m.nodeClock[n]
		m.nodeClock[n] = start.Add(argCost)
		m.stats[n].dispatches.Add(1)
		m.emit(Event{Kind: EvDispatch, Node: n, Peer: CP, Bytes: argBytes, Start: start, End: m.nodeClock[n], Tag: tag})
	}
}

// Broadcast models a data broadcast from the control processor to all
// nodes over the tree network.
func (m *Machine) Broadcast(bytes int, tag string) {
	m.govern("Broadcast", CP)
	if m.obsT != nil {
		ref := m.obsT.Begin(obs.StageBroadcast, tag, obs.NodeCP, m.cpClock)
		defer func() { m.obsT.End(ref, m.GlobalNow()) }()
	}
	cpStart := m.cpClock
	serial := m.cfg.PerByte.Scale(bytes)
	m.cpClock = m.cpClock.Add(m.cfg.SendOverhead + serial)
	arrival := m.cpClock.Add(m.cfg.TreeStep.Scale(m.treeDepth()))
	m.emit(Event{Kind: EvBroadcast, Node: CP, Peer: CP, Bytes: bytes, Start: cpStart, End: m.cpClock, Tag: tag})
	for n := 0; n < m.cfg.Nodes; n++ {
		if !m.Engage(n) {
			continue
		}
		before := m.nodeClock[n]
		if arrival.After(before) {
			m.stats[n].idleTime.Add(int64(arrival.Sub(before)))
			m.emit(Event{Kind: EvIdle, Node: n, Peer: CP, Start: before, End: arrival, Tag: tag})
			m.nodeClock[n] = arrival
		}
		start := m.nodeClock[n]
		end := start.Add(serial)
		m.nodeClock[n] = end
		m.stats[n].recvs.Add(1)
		m.emit(Event{Kind: EvBroadcast, Node: n, Peer: CP, Bytes: bytes, Start: start, End: end, Tag: tag})
	}
}

// Reduce models a global combining-tree reduction of bytes-sized partial
// results from every node to the control processor. Each node contributes
// when it reaches the operation; the tree completes after the slowest
// contribution plus the tree traversal. Per-node reduce events cover each
// node's participation; the CP event covers the tree completion.
func (m *Machine) Reduce(bytes int, tag string) {
	m.govern("Reduce", CP)
	if m.obsT != nil {
		ref := m.obsT.Begin(obs.StageReduce, tag, obs.NodeCP, m.GlobalNow())
		defer func() { m.obsT.End(ref, m.GlobalNow()) }()
	}
	serial := m.cfg.PerByte.Scale(bytes)
	var slowest vtime.Time
	for n := 0; n < m.cfg.Nodes; n++ {
		if !m.Engage(n) {
			continue
		}
		start := m.nodeClock[n]
		end := start.Add(m.cfg.SendOverhead + serial)
		m.nodeClock[n] = end
		m.stats[n].sends.Add(1)
		m.stats[n].sendBytes.Add(int64(bytes))
		m.stats[n].sendTime.Add(int64(end.Sub(start)))
		m.emit(Event{Kind: EvReduce, Node: n, Peer: CP, Bytes: bytes, Start: start, End: end, Tag: tag})
		if end.After(slowest) {
			slowest = end
		}
	}
	done := slowest.Add(m.cfg.TreeStep.Scale(m.treeDepth()))
	cpStart := m.cpClock
	if done.After(cpStart) {
		m.cpClock = done
	}
	m.emit(Event{Kind: EvReduce, Node: CP, Peer: CP, Bytes: bytes, Start: cpStart, End: m.cpClock, Tag: tag})
}

// Barrier synchronises every node (not the CP) at the latest clock plus
// one tree traversal, accounting the wait as idle time.
func (m *Machine) Barrier(tag string) {
	m.govern("Barrier", CP)
	if m.obsT != nil {
		ref := m.obsT.Begin(obs.StageBarrier, tag, obs.NodeCP, m.GlobalNow())
		defer func() { m.obsT.End(ref, m.GlobalNow()) }()
	}
	var latest vtime.Time
	for n := 0; n < m.cfg.Nodes; n++ {
		if !m.Engage(n) {
			continue
		}
		if c := m.nodeClock[n]; c.After(latest) {
			latest = c
		}
	}
	done := latest.Add(m.cfg.TreeStep.Scale(m.treeDepth()))
	for n := 0; n < m.cfg.Nodes; n++ {
		if !m.Alive(n) {
			continue
		}
		before := m.nodeClock[n]
		if done.After(before) {
			m.stats[n].idleTime.Add(int64(done.Sub(before)))
			m.emit(Event{Kind: EvIdle, Node: n, Peer: CP, Start: before, End: done, Tag: tag})
		}
		m.emit(Event{Kind: EvBarrier, Node: n, Peer: CP, Start: before, End: done, Tag: tag})
		m.nodeClock[n] = done
	}
}

// WaitCPForNodes advances the control processor to the latest node clock;
// used when the CP blocks on completion of a node code block.
func (m *Machine) WaitCPForNodes() {
	var latest vtime.Time
	for _, c := range m.nodeClock {
		if c.After(latest) {
			latest = c
		}
	}
	if latest.After(m.cpClock) {
		m.cpClock = latest
	}
}
