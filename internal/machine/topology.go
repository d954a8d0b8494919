package machine

import (
	"fmt"

	"nvmap/internal/vtime"
)

// Topology describes the hardware hierarchy beneath the partition's
// logical nodes: a grid (optionally a torus) of hardware nodes joined by
// an interconnect, each hardware node holding sockets, each socket
// holding cores. A logical node is placed on one *leaf* — one core — and
// point-to-point messages between logical nodes are charged per
// interconnect link their route crosses (plus a socket-crossing cost for
// traffic between sockets of one hardware node).
//
// The zero Config.Topology (nil) keeps the historical flat machine:
// every message costs the same regardless of endpoints, and no
// hardware-level records exist. A Topology whose costs are all zero is
// behaviourally identical to the flat machine too — routes are computed
// only for accounting.
//
// Routing is deterministic: dimension-ordered (X first, then Y), and on
// a torus each dimension travels the shorter way around, breaking exact
// ties toward the positive direction. Determinism here is load-bearing —
// per-link loads, congestion and dilation counters, and every derived
// report must be byte-identical across runs.
type Topology struct {
	// GridX and GridY are the interconnect dimensions; the topology has
	// GridX*GridY hardware nodes. A linear array is GridY = 1.
	GridX, GridY int
	// Torus adds wrap-around links in each dimension with more than one
	// hardware node.
	Torus bool
	// Sockets is the number of sockets per hardware node (0 = 1).
	Sockets int
	// Cores is the number of cores per socket (0 = 1). Each core is one
	// placement leaf.
	Cores int
	// LinkHop is the virtual-time cost added per interconnect link a
	// message crosses.
	LinkHop vtime.Duration
	// SocketHop is the virtual-time cost added when a message crosses a
	// socket boundary inside one hardware node. Messages that also cross
	// the interconnect pay LinkHop costs only: the link charge dominates.
	SocketHop vtime.Duration
}

// Link is one directed interconnect channel between adjacent hardware
// nodes, identified by their indices (y*GridX + x).
type Link struct {
	From, To int
}

// String renders the link as "hwA->hwB".
func (l Link) String() string { return fmt.Sprintf("hw%d->hw%d", l.From, l.To) }

// Validate checks the topology's shape and costs.
func (t *Topology) Validate() error {
	if t.GridX < 1 || t.GridY < 1 {
		return fmt.Errorf("machine: topology grid %dx%d must be at least 1x1", t.GridX, t.GridY)
	}
	if t.Sockets < 0 {
		return fmt.Errorf("machine: topology has negative socket count %d", t.Sockets)
	}
	if t.Cores < 0 {
		return fmt.Errorf("machine: topology has negative core count %d", t.Cores)
	}
	if t.LinkHop < 0 || t.SocketHop < 0 {
		return fmt.Errorf("machine: topology has negative hop cost (link %v, socket %v)", t.LinkHop, t.SocketHop)
	}
	return nil
}

// HWNodes returns the number of hardware nodes in the grid.
func (t *Topology) HWNodes() int { return t.GridX * t.GridY }

// SocketsPerNode returns the normalised socket count (zero means one).
func (t *Topology) SocketsPerNode() int {
	if t.Sockets <= 0 {
		return 1
	}
	return t.Sockets
}

// CoresPerSocket returns the normalised core count (zero means one).
func (t *Topology) CoresPerSocket() int {
	if t.Cores <= 0 {
		return 1
	}
	return t.Cores
}

// Leaves returns the number of placement leaves (cores) in the topology.
func (t *Topology) Leaves() int {
	return t.HWNodes() * t.SocketsPerNode() * t.CoresPerSocket()
}

// LeafNode returns the hardware node holding a leaf.
func (t *Topology) LeafNode(leaf int) int {
	return leaf / (t.SocketsPerNode() * t.CoresPerSocket())
}

// LeafSocket returns the global socket index holding a leaf.
func (t *Topology) LeafSocket(leaf int) int { return leaf / t.CoresPerSocket() }

// Coord returns the grid coordinates of a hardware node.
func (t *Topology) Coord(hw int) (x, y int) { return hw % t.GridX, hw / t.GridX }

// HWAt returns the hardware node at grid coordinates (x, y).
func (t *Topology) HWAt(x, y int) int { return y*t.GridX + x }

// Links returns every interconnect link once, in hardware-node order:
// each node's link to its +x and then its +y neighbour, wrapping around
// on a torus dimension wider than two.
func (t *Topology) Links() []Link {
	var out []Link
	for hw := 0; hw < t.HWNodes(); hw++ {
		x, y := t.Coord(hw)
		if x+1 < t.GridX {
			out = append(out, Link{From: hw, To: t.HWAt(x+1, y)})
		} else if t.Torus && t.GridX > 2 {
			out = append(out, Link{From: hw, To: t.HWAt(0, y)})
		}
		if y+1 < t.GridY {
			out = append(out, Link{From: hw, To: t.HWAt(x, y+1)})
		} else if t.Torus && t.GridY > 2 {
			out = append(out, Link{From: hw, To: t.HWAt(x, 0)})
		}
	}
	return out
}

// steps returns the signed number of unit steps to travel d positions
// along a dimension of the given size. On a torus the shorter direction
// wins; an exact tie (d == size/2 on an even ring) goes positive, so
// routes are deterministic.
func (t *Topology) steps(d, size int) int {
	if !t.Torus || size <= 1 {
		return d
	}
	d = ((d % size) + size) % size
	if 2*d > size {
		return d - size
	}
	return d
}

// Hops returns the number of interconnect links a message between two
// leaves crosses and whether it crosses a socket boundary without
// leaving its hardware node.
func (t *Topology) Hops(a, b int) (links int, socketCross bool) {
	na, nb := t.LeafNode(a), t.LeafNode(b)
	if na == nb {
		return 0, t.LeafSocket(a) != t.LeafSocket(b)
	}
	ax, ay := t.Coord(na)
	bx, by := t.Coord(nb)
	dx := t.steps(bx-ax, t.GridX)
	dy := t.steps(by-ay, t.GridY)
	return abs(dx) + abs(dy), false
}

// HopDelay returns the virtual-time network charge for a route with the
// given link count and socket-crossing flag.
func (t *Topology) HopDelay(links int, socketCross bool) vtime.Duration {
	if links > 0 {
		return t.LinkHop.Scale(links)
	}
	if socketCross {
		return t.SocketHop
	}
	return 0
}

// Route appends the directed links a message from leaf a to leaf b
// crosses to buf (dimension-ordered: X first, then Y) and returns the
// extended slice. Same-node traffic appends nothing.
func (t *Topology) Route(a, b int, buf []Link) []Link {
	na, nb := t.LeafNode(a), t.LeafNode(b)
	if na == nb {
		return buf
	}
	ax, ay := t.Coord(na)
	bx, by := t.Coord(nb)
	cx, cy := ax, ay
	for _, dim := range [2]struct{ d, size, sx, sy int }{
		{t.steps(bx-ax, t.GridX), t.GridX, 1, 0},
		{t.steps(by-ay, t.GridY), t.GridY, 0, 1},
	} {
		step := 1
		if dim.d < 0 {
			step = -1
		}
		for i := 0; i < abs(dim.d); i++ {
			nx := cx + step*dim.sx
			ny := cy + step*dim.sy
			nx = ((nx % t.GridX) + t.GridX) % t.GridX
			ny = ((ny % t.GridY) + t.GridY) % t.GridY
			buf = append(buf, Link{From: t.HWAt(cx, cy), To: t.HWAt(nx, ny)})
			cx, cy = nx, ny
		}
	}
	return buf
}

// String summarises the topology shape, e.g. "4x2 torus, 2 sockets x 2
// cores (32 leaves)".
func (t *Topology) String() string {
	kind := "grid"
	if t.Torus {
		kind = "torus"
	}
	return fmt.Sprintf("%dx%d %s, %d sockets x %d cores (%d leaves)",
		t.GridX, t.GridY, kind, t.SocketsPerNode(), t.CoresPerSocket(), t.Leaves())
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
