package machine

import (
	"sort"
	"sync"

	"nvmap/internal/vtime"
)

// This file holds the interconnect accounting that exists only when the
// machine has a Topology: per-link loads, congestion/dilation counters,
// and the logical traffic matrix placement algorithms consume. All
// writes happen on the driving goroutine; the mutex exists for
// concurrent metric scrapes, mirroring the atomic per-node stats.

// NetStats summarises interconnect activity since the run began. All
// zeros on a machine without a topology.
type NetStats struct {
	// Messages counts point-to-point messages routed (self-sends
	// excluded, like the router itself).
	Messages int
	// CrossMessages counts messages that crossed at least one
	// interconnect link — traffic between hardware nodes.
	CrossMessages int
	// LinkHops is the total links crossed by all messages: the
	// dilation numerator (dilation = LinkHops / Messages).
	LinkHops int
	// SocketCrossings counts messages that crossed a socket boundary
	// without leaving their hardware node.
	SocketCrossings int
	// Links is the number of distinct directed links that carried
	// traffic.
	Links int
	// MaxLinkMsgs and MaxLinkBytes are the heaviest directed link's
	// loads — the congestion measures.
	MaxLinkMsgs  int
	MaxLinkBytes int
}

// LinkLoad is one directed link's accumulated traffic.
type LinkLoad struct {
	Link  Link
	Msgs  int
	Bytes int
}

type netState struct {
	mu        sync.Mutex
	linkMsgs  map[Link]int
	linkBytes map[Link]int
	stats     NetStats
	// traffic[from*nodes+to] accumulates payload bytes between logical
	// nodes — the measured matrix placement algorithms optimise.
	traffic []int64
	nodes   int
	// routeBuf is reused across sends on the driving goroutine.
	routeBuf []Link
}

func newNetState(nodes int) *netState {
	return &netState{
		linkMsgs:  make(map[Link]int),
		linkBytes: make(map[Link]int),
		traffic:   make([]int64, nodes*nodes),
		nodes:     nodes,
	}
}

// Topology returns the machine's hardware topology (nil for the flat
// machine).
func (m *Machine) Topology() *Topology { return m.topo }

// Placement returns the logical-node-to-leaf assignment, nil for the
// flat machine. The caller must not modify the slice.
func (m *Machine) Placement() []int { return m.place }

// OnRoute registers a callback invoked for every routed point-to-point
// message with the directed links it crossed (empty for intra-node
// traffic). The links slice is only valid during the call. Like Observe,
// register from the driving goroutine before the run starts; callbacks
// run on the driving goroutine. No-op without a topology.
func (m *Machine) OnRoute(fn func(from, to, bytes int, links []Link, at vtime.Time)) {
	m.onRoute = append(m.onRoute, fn)
}

// NetStats returns a snapshot of the interconnect counters. Safe to call
// while the machine runs.
func (m *Machine) NetStats() NetStats {
	if m.net == nil {
		return NetStats{}
	}
	m.net.mu.Lock()
	defer m.net.mu.Unlock()
	return m.net.stats
}

// LinkLoads returns every directed link that carried traffic with its
// accumulated load, sorted by (From, To) so reports are deterministic.
func (m *Machine) LinkLoads() []LinkLoad {
	if m.net == nil {
		return nil
	}
	m.net.mu.Lock()
	out := make([]LinkLoad, 0, len(m.net.linkMsgs))
	for l, n := range m.net.linkMsgs {
		out = append(out, LinkLoad{Link: l, Msgs: n, Bytes: m.net.linkBytes[l]})
	}
	m.net.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Link.From != out[j].Link.From {
			return out[i].Link.From < out[j].Link.From
		}
		return out[i].Link.To < out[j].Link.To
	})
	return out
}

// TrafficMatrix returns the bytes exchanged between logical node pairs
// ([from][to]), the measured input for placement algorithms. Nil without
// a topology.
func (m *Machine) TrafficMatrix() [][]int64 {
	if m.net == nil {
		return nil
	}
	m.net.mu.Lock()
	defer m.net.mu.Unlock()
	out := make([][]int64, m.net.nodes)
	for i := range out {
		out[i] = append([]int64(nil), m.net.traffic[i*m.net.nodes:(i+1)*m.net.nodes]...)
	}
	return out
}

// routeCharge routes one message over the topology, updates the
// interconnect counters, notifies OnRoute callbacks, and returns the
// virtual-time hop delay the sender's message pays in flight. at is the
// send-completion instant on the sender's clock.
func (m *Machine) routeCharge(from, to, bytes int, at vtime.Time) vtime.Duration {
	t := m.topo
	leafFrom, leafTo := m.place[from], m.place[to]
	links := t.Route(leafFrom, leafTo, m.net.routeBuf[:0])
	m.net.routeBuf = links[:0]
	_, socketCross := t.Hops(leafFrom, leafTo)

	n := m.net
	n.mu.Lock()
	n.stats.Messages++
	n.stats.LinkHops += len(links)
	if len(links) > 0 {
		n.stats.CrossMessages++
	} else if socketCross {
		n.stats.SocketCrossings++
	}
	n.traffic[from*n.nodes+to] += int64(bytes)
	for _, l := range links {
		n.linkMsgs[l]++
		n.linkBytes[l] += bytes
		if n.linkMsgs[l] > n.stats.MaxLinkMsgs {
			n.stats.MaxLinkMsgs = n.linkMsgs[l]
		}
		if n.linkBytes[l] > n.stats.MaxLinkBytes {
			n.stats.MaxLinkBytes = n.linkBytes[l]
		}
	}
	n.stats.Links = len(n.linkMsgs)
	n.mu.Unlock()

	for _, fn := range m.onRoute {
		fn(from, to, bytes, links, at)
	}
	return t.HopDelay(len(links), socketCross)
}
