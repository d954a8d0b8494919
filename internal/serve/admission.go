package serve

// The admission controller: a fixed pool of run slots plus a bounded
// wait queue in front of it. The invariants the rest of the server
// leans on:
//
//   - at most MaxConcurrent sessions run at once (slot tokens);
//   - at most QueueDepth requests wait for a slot; request
//     MaxConcurrent+QueueDepth+1 is rejected immediately — the daemon
//     never builds unbounded backlog, so rejection latency stays flat
//     no matter how hard clients push;
//   - a queued request gives up after AdmitTimeout (or its own
//     context), converting a would-be slow failure into a fast 429;
//   - once draining, nothing is admitted and all queued waiters are
//     released at once.
//
// Admission also prices fidelity: the shed level granted to an admitted
// session climbs the budget governor's ladder with pool pressure, so a
// busy daemon first degrades sampling (cheaper sessions, same answers
// at coarser grain) and only rejects when the queue itself overflows —
// shed before reject, the robustness headline.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// ErrBusy is returned when the wait queue is full or the queue wait
// timed out; the caller maps it to 429 + Retry-After.
var ErrBusy = errors.New("serve: run queue full")

// ErrDraining is returned once Drain has begun; the caller maps it to
// 503 + Retry-After.
var ErrDraining = errors.New("serve: draining")

// admission is the slot pool.
type admission struct {
	slots    chan struct{} // buffered, capacity = MaxConcurrent
	capacity int
	depth    int // max queued waiters

	timeout time.Duration

	mu       sync.Mutex
	queued   int
	draining bool
	drainCh  chan struct{} // closed by beginDrain

	inflight atomic.Int64
	queuedG  atomic.Int64 // gauge mirror of queued for /metrics
}

func newAdmission(capacity, depth int, timeout time.Duration) *admission {
	a := &admission{
		slots:    make(chan struct{}, capacity),
		capacity: capacity,
		depth:    depth,
		timeout:  timeout,
		drainCh:  make(chan struct{}),
	}
	for i := 0; i < capacity; i++ {
		a.slots <- struct{}{}
	}
	return a
}

// admit blocks until a run slot is free (bounded by the queue depth,
// the admit timeout, ctx and drain), and returns the shed level the
// session must run at plus the slot release. The level is priced at
// grant time from pool pressure:
//
//	level 0  — slots free without waiting
//	level 1  — had to queue
//	level 2  — queue ≥ half full when this request joined
//	level 3  — queue full save one (the last admitted fidelity)
func (a *admission) admit(ctx context.Context) (level int, release func(), err error) {
	a.mu.Lock()
	if a.draining {
		a.mu.Unlock()
		return 0, nil, ErrDraining
	}
	// Fast path: slot free right now, full fidelity.
	select {
	case <-a.slots:
		a.inflight.Add(1)
		a.mu.Unlock()
		return 0, a.release, nil
	default:
	}
	if a.queued >= a.depth {
		a.mu.Unlock()
		return 0, nil, ErrBusy
	}
	a.queued++
	a.queuedG.Store(int64(a.queued))
	switch q := a.queued; {
	case q >= a.depth:
		level = 3
	case 2*q >= a.depth:
		level = 2
	default:
		level = 1
	}
	drainCh := a.drainCh
	a.mu.Unlock()

	timer := time.NewTimer(a.timeout)
	defer timer.Stop()
	defer func() {
		a.mu.Lock()
		a.queued--
		a.queuedG.Store(int64(a.queued))
		a.mu.Unlock()
	}()
	select {
	case <-a.slots:
		a.inflight.Add(1)
		return level, a.release, nil
	case <-timer.C:
		return 0, nil, ErrBusy
	case <-ctx.Done():
		return 0, nil, ctx.Err()
	case <-drainCh:
		return 0, nil, ErrDraining
	}
}

// release returns a slot to the pool.
func (a *admission) release() {
	a.inflight.Add(-1)
	a.slots <- struct{}{}
}

// beginDrain flips the gate: future admits fail fast, current waiters
// are released immediately. Idempotent.
func (a *admission) beginDrain() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.draining {
		a.draining = true
		close(a.drainCh)
	}
}

// retryAfter estimates, in whole seconds (minimum 1), when a rejected
// client should come back: the queue's worth of sessions divided over
// the pool, assuming avgRun per session.
func (a *admission) retryAfter(avgRun time.Duration) int {
	waiting := int(a.queuedG.Load()) + 1
	est := time.Duration(waiting) * avgRun / time.Duration(a.capacity)
	sec := int((est + time.Second - 1) / time.Second)
	if sec < 1 {
		sec = 1
	}
	return sec
}
