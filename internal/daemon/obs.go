package daemon

import (
	"nvmap/internal/obs"
	"nvmap/internal/vtime"
)

// SetObs attaches the observability plane to the channel. Send and
// drain operations record spans on the plane's tracer (virtual
// intervals from the message timestamps, wall self-cost from the host
// clock), batch occupancy feeds a virtual-time histogram, and the
// channel's traffic counters are registered on the metrics registry as
// pull-model collectors — the registry view and the Stats() accessor
// read the same underlying counters, so they can never disagree.
//
// A nil plane (the default) leaves the channel untouched: the hot path
// pays one pointer test per operation.
func (c *Channel) SetObs(p *obs.Plane) {
	if p == nil {
		return
	}
	c.mu.Lock()
	c.obsT = p.Tracer
	c.occupancy = p.Metrics.Histogram("nvmap_daemon_batch_occupancy",
		"Messages delivered per DrainBatch flush, over virtual time.", 0)
	c.mu.Unlock()
	c.RegisterMetrics(p.Metrics)
}

// RegisterMetrics registers the channel's traffic statistics on a
// metrics registry as pull-model collectors that read Stats() at
// snapshot time.
func (c *Channel) RegisterMetrics(r *obs.Registry) {
	reg := func(name, help string, kind obs.Kind, read func(Stats) float64) {
		r.Func(name, help, kind, false, func() float64 { return read(c.Stats()) })
	}
	reg("nvmap_daemon_sent_total", "Messages offered to the daemon channel.",
		obs.KindCounter, func(s Stats) float64 { return float64(s.Sent) })
	reg("nvmap_daemon_delivered_total", "Messages delivered to the data manager.",
		obs.KindCounter, func(s Stats) float64 { return float64(s.Delivered) })
	reg("nvmap_daemon_dropped_total", "Sample messages lost to channel overflow.",
		obs.KindCounter, func(s Stats) float64 { return float64(s.Dropped) })
	reg("nvmap_daemon_retried_total", "Mapping-kind messages parked for redelivery by overflow.",
		obs.KindCounter, func(s Stats) float64 { return float64(s.Retried) })
	reg("nvmap_daemon_backpressured_total", "Sends stalled for a synchronous drain.",
		obs.KindCounter, func(s Stats) float64 { return float64(s.Backpressured) })
	reg("nvmap_daemon_batches_total", "SendBatch calls enqueued under one lock acquisition.",
		obs.KindCounter, func(s Stats) float64 { return float64(s.Batches) })
	reg("nvmap_daemon_batches_flushed_total", "DrainBatch deliveries.",
		obs.KindCounter, func(s Stats) float64 { return float64(s.BatchesFlushed) })
	reg("nvmap_daemon_queue_max", "Deepest the channel queue has been.",
		obs.KindGauge, func(s Stats) float64 { return float64(s.MaxQueue) })
	r.Func("nvmap_daemon_pending", "Messages currently queued (including parked retries).",
		obs.KindGauge, false, func() float64 { return float64(c.Pending()) })
	for _, k := range []Kind{KindSample, KindNounDef, KindVerbDef, KindMappingDef, KindRemoval} {
		k := k
		reg("nvmap_daemon_sent_total{kind=\""+k.String()+"\"}",
			"Messages offered to the daemon channel.",
			obs.KindCounter, func(s Stats) float64 { return float64(s.ByKind[k]) })
	}
}

// spanBounds orders a message slice's first/last timestamps into a
// well-formed virtual interval (parked retries can carry older stamps
// than the live queue behind them).
func spanBounds(ms []Message) (vtime.Time, vtime.Time) {
	from, to := ms[0].At, ms[len(ms)-1].At
	if to.Before(from) {
		from, to = to, from
	}
	return from, to
}
