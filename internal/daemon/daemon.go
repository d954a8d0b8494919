// Package daemon models the communication path of Section 5 of the
// paper: "The Paradyn dynamic instrumentation library sends dynamic
// mapping information to the Paradyn daemon process using the same
// communication channel used for performance data. [...] the daemons
// forward the mapping information to the Data Manager. The Data Manager
// uses the dynamic mapping information in exactly the same way as it
// uses static mapping information."
//
// A Channel is that shared, ordered conduit: the application-side
// instrumentation library enqueues messages (metric samples and dynamic
// mapping records, interleaved in emission order); the tool-side data
// manager drains them. On the simulator both sides live in one process,
// so delivery is a drain call rather than a socket — but ordering,
// queue-depth accounting and the single-channel property are preserved,
// which is what the architecture claims.
package daemon

import (
	"fmt"
	"sync"
	"sync/atomic"

	"nvmap/internal/fault"
	"nvmap/internal/obs"
	"nvmap/internal/pif"
	"nvmap/internal/vtime"
)

// Kind classifies channel messages.
type Kind int

// Message kinds: performance data and the three dynamic mapping record
// types share the channel (plus removal notices for deallocated nouns).
const (
	KindSample Kind = iota
	KindNounDef
	KindVerbDef
	KindMappingDef
	KindRemoval
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindSample:
		return "sample"
	case KindNounDef:
		return "noun"
	case KindVerbDef:
		return "verb"
	case KindMappingDef:
		return "mapping"
	case KindRemoval:
		return "removal"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Sample is one performance-data reading: Value accumulated over the
// virtual-time span [From, To). Enabled indexes the tool-side
// metric-focus pair the reading belongs to.
type Sample struct {
	MetricID string
	Focus    string
	Value    float64
	From, To vtime.Time
	Enabled  int
}

// Droppable reports whether channel overflow may discard a message of
// this kind. Only samples are droppable: a lost sample merely leaves a
// hole in a histogram, which the tool can annotate. Every other kind is
// unrecoverable tool state — a lost noun definition poisons every later
// sample that references it, and a lost removal notice lets a recovered
// node resurrect a deallocated noun — so overflow parks noun, verb and
// mapping definitions AND removal notices for redelivery (the retry
// half of the ack/retry protocol) instead of dropping them.
func (k Kind) Droppable() bool { return k == KindSample }

// Message is one channel record. Exactly one of the payload fields
// matching Kind is set. Sample is held by value: a KindSample message
// embeds its reading directly, so the sampling hot path enqueues
// messages without a per-sample heap allocation (other kinds leave it
// zero).
type Message struct {
	Kind Kind
	At   vtime.Time

	Sample  Sample
	Noun    *pif.NounRecord
	Verb    *pif.VerbRecord
	Mapping *pif.MappingRecord
	// Removal names a noun (by PIF name) whose resource is gone.
	Removal string
	// Attrs carries free-form attributes (e.g. the runtime array ID and
	// shape for an allocation).
	Attrs map[string]string
}

// Stats counts channel traffic by kind.
type Stats struct {
	Sent      int
	Delivered int
	ByKind    map[Kind]int
	// MaxQueue records the deepest the queue has been.
	MaxQueue int
	// Dropped counts messages lost to overflow (samples only — mapping
	// records are parked for retry instead).
	Dropped       int
	DroppedByKind map[Kind]int
	// Retried counts mapping-kind messages that overflow parked for
	// redelivery instead of dropping.
	Retried int
	// Backpressured counts sends that had to stall for a synchronous
	// drain under the Backpressure policy.
	Backpressured int
	// Batches counts SendBatch calls that enqueued their whole slice
	// under one lock acquisition; BatchesFlushed counts DrainBatch
	// deliveries. Together they expose how much of the traffic moved in
	// bulk rather than message-at-a-time.
	Batches        int
	BatchesFlushed int
}

// Channel is the shared, ordered conduit between the instrumentation
// library and the data manager. Safe for concurrent use.
//
// By default the queue is unbounded and lossless, exactly the perfect
// conduit the paper assumes. SetLimit bounds it, selecting what happens
// when the instrumentation library outruns the daemon: samples are
// dropped (and accounted by kind, and reported to the OnDrop observer)
// while dynamic mapping records are redelivered on a later drain — the
// ack/retry protocol. A delivery function returning an error is the nack
// path for the in-flight batch: the failed message and everything behind
// it stay queued, in order.
//
// There is one queue and one path through it: every send appends under
// the queue lock, every drain takes the whole backlog, and Stats and
// Pending are exact at every read.
type Channel struct {
	mu    sync.Mutex
	queue []Message
	// retry holds mapping-kind messages displaced by overflow; they are
	// redelivered ahead of the queue on the next drain, restoring the
	// "definitions before the samples that use them" ordering for all
	// subsequent traffic.
	retry    []Message
	stats    Stats
	capacity int
	policy   fault.OverflowPolicy
	onDrop   func(Message)
	onFull   func()
	onMsg    func(Message)
	// probeHW tracks the deepest the queue has been since the last
	// HighWaterSince call (the budget governor's backlog probe);
	// stats.MaxQueue stays the run-wide high water.
	probeHW int
	// qdepth mirrors len(queue)+len(retry), refreshed by syncDepthLocked
	// at the end of every critical section that changes either, so
	// Pending is one atomic load: the event pump polls for backlog after
	// every machine event and must not contend for the queue lock.
	qdepth atomic.Int64

	// drainMu serialises drains so two concurrent drains cannot
	// interleave deliveries out of order.
	drainMu sync.Mutex

	// obsT and occupancy, when non-nil, record send/drain spans and
	// batch-occupancy observations on the observability plane (see
	// SetObs in obs.go).
	obsT      *obs.Tracer
	occupancy *obs.VHist

	// spare is the backing array of the previous drain's batch, cleared
	// after delivery. A drain takes the queue's array as its batch and
	// hands the queue this one, so a steady send/drain cycle reuses two
	// arrays and allocates nothing. Guarded by drainMu; nil while a
	// batch is in flight.
	spare []Message
}

// NewChannel returns an empty, unbounded channel.
func NewChannel() *Channel {
	return &Channel{stats: Stats{ByKind: make(map[Kind]int), DroppedByKind: make(map[Kind]int)}}
}

// SetLimit bounds the queue depth. capacity <= 0 restores the unbounded
// default regardless of policy.
func (c *Channel) SetLimit(capacity int, policy fault.OverflowPolicy) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if capacity <= 0 {
		c.capacity, c.policy = 0, fault.Unbounded
	} else {
		c.capacity, c.policy = capacity, policy
	}
}

// OnDrop registers an observer for every message lost to overflow (the
// data manager uses it to account dropped samples per metric).
func (c *Channel) OnDrop(fn func(Message)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onDrop = fn
}

// OnBackpressure registers the synchronous drain hook the Backpressure
// policy invokes before enqueuing into a full channel. The hook must not
// call Send.
func (c *Channel) OnBackpressure(fn func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onFull = fn
}

// OnMessage registers a tap invoked for every message offered to the
// channel, before any overflow decision (the supervisor's definition
// ledger feeds from it). The tap must not call Send.
func (c *Channel) OnMessage(fn func(Message)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onMsg = fn
}

// Send enqueues a message. Mapping information and performance data
// interleave in emission order — the property the paper's design relies
// on so the data manager sees definitions before the samples that use
// them.
func (c *Channel) Send(m Message) {
	if c.obsT != nil {
		ref := c.obsT.Begin(obs.StageDaemonSend, m.Kind.String(), obs.NodeCP, m.At)
		defer c.obsT.End(ref, m.At)
	}
	c.mu.Lock()
	if tap := c.onMsg; tap != nil {
		c.mu.Unlock()
		tap(m)
		c.mu.Lock()
	}
	if c.capacity > 0 && len(c.queue) >= c.capacity && c.policy == fault.Backpressure && c.onFull != nil {
		// Stall the sender for a synchronous drain, then enqueue: the
		// lossless policy.
		hook := c.onFull
		c.stats.Backpressured++
		c.mu.Unlock()
		hook()
		c.mu.Lock()
	}
	c.stats.Sent++
	c.stats.ByKind[m.Kind]++
	var dropped *Message
	if c.capacity > 0 && len(c.queue) >= c.capacity {
		switch c.policy {
		case fault.DropOldest:
			evicted := c.queue[0]
			c.queue[0] = Message{} // the array outlives the drain; do not retain
			c.queue = c.queue[1:]
			dropped = c.overflowLocked(evicted)
		case fault.DropNewest:
			d := c.overflowLocked(m)
			onDrop := c.onDrop
			c.syncDepthLocked()
			c.mu.Unlock()
			if d != nil && onDrop != nil {
				onDrop(*d)
			}
			return
		}
	}
	c.queue = append(c.queue, m)
	if len(c.queue) > c.stats.MaxQueue {
		c.stats.MaxQueue = len(c.queue)
	}
	if len(c.queue) > c.probeHW {
		c.probeHW = len(c.queue)
	}
	onDrop := c.onDrop
	c.syncDepthLocked()
	c.mu.Unlock()
	if dropped != nil && onDrop != nil {
		onDrop(*dropped)
	}
}

// SendBatch enqueues a slice of messages in order under a single lock
// acquisition. When a message tap is registered or the batch would
// overflow a bounded queue it falls back to per-message Send, so the
// tap, overflow and backpressure semantics are exactly those of len(ms)
// individual sends; the fast path is purely a locking optimisation.
func (c *Channel) SendBatch(ms []Message) {
	if len(ms) == 0 {
		return
	}
	if c.obsT != nil {
		from, to := spanBounds(ms)
		ref := c.obsT.Begin(obs.StageDaemonSend, "batch", obs.NodeCP, from)
		defer c.obsT.End(ref, to)
	}
	c.mu.Lock()
	if c.onMsg == nil && (c.capacity == 0 || len(c.queue)+len(ms) <= c.capacity) {
		c.stats.Sent += len(ms)
		for i := range ms {
			c.stats.ByKind[ms[i].Kind]++
		}
		c.stats.Batches++
		c.queue = append(c.queue, ms...)
		if len(c.queue) > c.stats.MaxQueue {
			c.stats.MaxQueue = len(c.queue)
		}
		if len(c.queue) > c.probeHW {
			c.probeHW = len(c.queue)
		}
		c.syncDepthLocked()
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	for _, m := range ms {
		c.Send(m)
	}
}

// syncDepthLocked refreshes the lock-free queue-depth mirror; callers
// hold mu and call it after any change to queue or retry.
func (c *Channel) syncDepthLocked() {
	c.qdepth.Store(int64(len(c.queue) + len(c.retry)))
}

// overflowLocked routes one displaced message: mapping records and
// removal notices are parked for retry (never lost), samples are
// dropped and counted. It returns the message if it was truly dropped,
// for the OnDrop observer.
func (c *Channel) overflowLocked(m Message) *Message {
	if !m.Kind.Droppable() {
		c.retry = append(c.retry, m)
		c.stats.Retried++
		return nil
	}
	c.stats.Dropped++
	c.stats.DroppedByKind[m.Kind]++
	return &m
}

// Pending returns the queue depth, counting parked retries. It takes no
// lock (see qdepth).
func (c *Channel) Pending() int { return int(c.qdepth.Load()) }

// HighWaterSince returns the deepest the queue has been since the
// previous HighWaterSince call (at least the current depth) and resets
// the tracker. The budget governor's backlog probe uses it: the channel
// drains eagerly, so instantaneous depth hides the bursts that
// SendBatch and parked retries create between drains, while the
// interval high water captures them — and recovers when shedding
// actually relieves the pressure. Stats.MaxQueue is unaffected.
func (c *Channel) HighWaterSince() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	hw := c.probeHW
	if n := len(c.queue) + len(c.retry); n > hw {
		hw = n
	}
	c.probeHW = 0
	return hw
}

// takeBatch removes everything deliverable from the channel, in order:
// parked retries, then the queue. With nothing parked the queue's own
// array is the batch and the queue continues in the spare array, so
// sends made during delivery never touch the batch; parked retries are
// the one case that copies. The backlog depth feeds MaxQueue and the
// probe high water. Callers hold drainMu and pass a non-empty batch to
// finishLocked when delivery ends.
func (c *Channel) takeBatch() []Message {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.retry) + len(c.queue)
	if n == 0 {
		return nil
	}
	if n > c.stats.MaxQueue {
		c.stats.MaxQueue = n
	}
	if n > c.probeHW {
		c.probeHW = n
	}
	var batch []Message
	if len(c.retry) == 0 {
		batch, c.queue = c.queue, c.spare[:0]
	} else {
		batch = append(append(c.spare[:0], c.retry...), c.queue...)
		clear(c.queue)
		c.queue, c.retry = c.queue[:0], nil
	}
	c.spare = nil
	c.syncDepthLocked()
	return batch
}

// finishLocked ends a drain that delivered batch[:delivered]: the rest
// goes back to the head of the queue, ahead of anything sent meanwhile,
// and the batch's array, cleared so it retains no delivered record,
// becomes the spare. Callers hold drainMu and mu.
func (c *Channel) finishLocked(batch []Message, delivered int) {
	c.stats.Delivered += delivered
	if rest := batch[delivered:]; len(rest) > 0 {
		c.queue = append(append([]Message(nil), rest...), c.queue...)
		c.syncDepthLocked()
	}
	clear(batch)
	c.spare = batch[:0]
}

// Drain delivers every queued message, in order, to fn — parked mapping
// records first (their redelivery), then the live queue. Delivery stops
// at the first error; the failing message and everything behind it stay
// queued (in order) for a later retry. It returns how many messages were
// delivered.
func (c *Channel) Drain(fn func(Message) error) (int, error) {
	c.drainMu.Lock()
	defer c.drainMu.Unlock()

	pending := c.takeBatch()
	if len(pending) == 0 {
		return 0, nil
	}
	if c.obsT != nil {
		from, to := spanBounds(pending)
		ref := c.obsT.Begin(obs.StageDaemonDrain, "", obs.NodeCP, from)
		defer c.obsT.End(ref, to)
	}
	var err error
	delivered := 0
	for ; delivered < len(pending); delivered++ {
		if err = fn(pending[delivered]); err != nil {
			break
		}
	}
	c.mu.Lock()
	c.finishLocked(pending, delivered)
	c.mu.Unlock()
	return delivered, err
}

// DrainBatch delivers everything pending — parked retries first, then
// the live queue — to fn as one slice. On error the entire batch is
// requeued ahead of anything sent meanwhile, so a failed delivery is
// invisible except for the attempt: no partial consumption. The slice
// is only valid during the call.
func (c *Channel) DrainBatch(fn func([]Message) error) (int, error) {
	c.drainMu.Lock()
	defer c.drainMu.Unlock()

	pending := c.takeBatch()
	if len(pending) == 0 {
		return 0, nil
	}
	if c.obsT != nil {
		from, to := spanBounds(pending)
		ref := c.obsT.Begin(obs.StageDaemonDrain, "batch", obs.NodeCP, from)
		defer c.obsT.End(ref, to)
		c.occupancy.Observe(to, float64(len(pending)))
	}
	err := fn(pending)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		c.finishLocked(pending, 0)
		return 0, err
	}
	c.stats.BatchesFlushed++
	c.finishLocked(pending, len(pending))
	return len(pending), nil
}

// Stats returns a copy of the traffic statistics, exact at every read.
func (c *Channel) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.stats
	out.ByKind = make(map[Kind]int, len(c.stats.ByKind))
	for k, v := range c.stats.ByKind {
		out.ByKind[k] = v
	}
	out.DroppedByKind = make(map[Kind]int, len(c.stats.DroppedByKind))
	for k, v := range c.stats.DroppedByKind {
		out.DroppedByKind[k] = v
	}
	return out
}
