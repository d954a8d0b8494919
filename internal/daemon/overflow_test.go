package daemon

import (
	"fmt"
	"sync"
	"testing"

	"nvmap/internal/fault"
	"nvmap/internal/pif"
)

func sampleMsg(i int) Message {
	return Message{Kind: KindSample, Sample: Sample{MetricID: fmt.Sprintf("m%d", i), Value: float64(i)}}
}

func nounMsg(name string) Message {
	return Message{Kind: KindNounDef, Noun: &pif.NounRecord{Name: name}}
}

func drainAll(t *testing.T, c *Channel) []Message {
	t.Helper()
	var got []Message
	if _, err := c.Drain(func(m Message) error { got = append(got, m); return nil }); err != nil {
		t.Fatal(err)
	}
	return got
}

// DropOldest evicts from the front; evicted samples are lost and
// counted, and the OnDrop observer sees each one.
func TestDropOldestEvictsSamples(t *testing.T) {
	c := NewChannel()
	c.SetLimit(2, fault.DropOldest)
	var observed []string
	c.OnDrop(func(m Message) { observed = append(observed, m.Sample.MetricID) })

	for i := 0; i < 4; i++ {
		c.Send(sampleMsg(i))
	}
	got := drainAll(t, c)
	if len(got) != 2 || got[0].Sample.MetricID != "m2" || got[1].Sample.MetricID != "m3" {
		t.Fatalf("delivered %+v, want m2,m3", got)
	}
	st := c.Stats()
	if st.Dropped != 2 || st.DroppedByKind[KindSample] != 2 {
		t.Fatalf("stats %+v", st)
	}
	if len(observed) != 2 || observed[0] != "m0" || observed[1] != "m1" {
		t.Fatalf("observer saw %v", observed)
	}
}

// DropNewest rejects the incoming message when full.
func TestDropNewestRejectsIncoming(t *testing.T) {
	c := NewChannel()
	c.SetLimit(2, fault.DropNewest)
	for i := 0; i < 4; i++ {
		c.Send(sampleMsg(i))
	}
	got := drainAll(t, c)
	if len(got) != 2 || got[0].Sample.MetricID != "m0" || got[1].Sample.MetricID != "m1" {
		t.Fatalf("delivered %+v, want m0,m1", got)
	}
	if st := c.Stats(); st.Dropped != 2 || st.Sent != 4 {
		t.Fatalf("stats %+v", st)
	}
}

// Mapping records are unrecoverable state: overflow must never discard
// them. They are parked and redelivered ahead of the queue on the next
// drain, under either drop policy.
func TestMappingRecordsRetriedNotDropped(t *testing.T) {
	for _, policy := range []fault.OverflowPolicy{fault.DropOldest, fault.DropNewest} {
		c := NewChannel()
		c.SetLimit(1, policy)
		c.Send(nounMsg("A"))
		c.Send(nounMsg("B")) // overflows: one of the two is parked
		got := drainAll(t, c)
		if len(got) != 2 {
			t.Fatalf("%v: delivered %d messages, want both noun defs", policy, len(got))
		}
		names := map[string]bool{got[0].Noun.Name: true, got[1].Noun.Name: true}
		if !names["A"] || !names["B"] {
			t.Fatalf("%v: delivered %v", policy, got)
		}
		st := c.Stats()
		if st.Retried != 1 || st.Dropped != 0 {
			t.Fatalf("%v: stats %+v", policy, st)
		}
	}
}

// Parked mapping records are redelivered before the live queue, so the
// data manager sees the definition before any sample that follows it.
func TestRetryRedeliversBeforeQueue(t *testing.T) {
	c := NewChannel()
	c.SetLimit(1, fault.DropOldest)
	c.Send(nounMsg("A"))
	c.Send(sampleMsg(1)) // evicts the noun def into the retry park
	got := drainAll(t, c)
	if len(got) != 2 || got[0].Kind != KindNounDef || got[1].Kind != KindSample {
		t.Fatalf("delivery order %+v, want noun def first", got)
	}
}

// Backpressure invokes the registered drain hook instead of losing
// anything.
func TestBackpressureDrains(t *testing.T) {
	c := NewChannel()
	c.SetLimit(2, fault.Backpressure)
	var delivered []Message
	c.OnBackpressure(func() {
		if _, err := c.Drain(func(m Message) error { delivered = append(delivered, m); return nil }); err != nil {
			t.Error(err)
		}
	})
	for i := 0; i < 5; i++ {
		c.Send(sampleMsg(i))
	}
	delivered = append(delivered, drainAll(t, c)...)
	if len(delivered) != 5 {
		t.Fatalf("delivered %d, want all 5", len(delivered))
	}
	st := c.Stats()
	if st.Dropped != 0 || st.Backpressured == 0 {
		t.Fatalf("stats %+v", st)
	}
}

// A nack (delivery error) keeps the failing message and everything
// behind it, including a parked retry's relative order.
func TestNackKeepsOrder(t *testing.T) {
	c := NewChannel()
	for i := 0; i < 3; i++ {
		c.Send(sampleMsg(i))
	}
	n, err := c.Drain(func(m Message) error {
		if m.Sample.MetricID == "m1" {
			return fmt.Errorf("daemon busy")
		}
		return nil
	})
	if err == nil || n != 1 {
		t.Fatalf("drain = %d, %v", n, err)
	}
	got := drainAll(t, c)
	if len(got) != 2 || got[0].Sample.MetricID != "m1" || got[1].Sample.MetricID != "m2" {
		t.Fatalf("redelivery %+v", got)
	}
}

// The channel is the one concurrency boundary between the
// instrumentation library and the data manager; hammer it from both
// sides under -race — single and batched sends against plain, batched
// and nacking drains, so the array swap, the parked-retry copy and the
// requeue all run while senders append.
func TestChannelConcurrentSendDrain(t *testing.T) {
	c := NewChannel()
	c.SetLimit(8, fault.DropOldest)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				switch {
				case i%10 == 0:
					c.Send(nounMsg(fmt.Sprintf("g%d-%d", g, i)))
				case i%10 == 5:
					c.SendBatch([]Message{sampleMsg(i), sampleMsg(i)})
				default:
					c.Send(sampleMsg(i))
				}
				if i%17 == 0 {
					_ = c.Pending()
					_ = c.HighWaterSince()
					_ = c.Stats()
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			switch i % 3 {
			case 0:
				_, _ = c.Drain(func(Message) error { return nil })
			case 1:
				_, _ = c.DrainBatch(func([]Message) error { return nil })
			default:
				seen := 0
				_, _ = c.Drain(func(Message) error {
					if seen++; seen > 2 {
						return fmt.Errorf("daemon busy")
					}
					return nil
				})
			}
		}
	}()
	wg.Wait()
	<-done
	_, _ = c.Drain(func(Message) error { return nil })
	st := c.Stats()
	if st.Sent != 4*220 || st.Sent != st.Delivered+st.Dropped || c.Pending() != 0 {
		// Retried messages are eventually delivered, so they appear in
		// both Sent and Delivered exactly once.
		t.Fatalf("conservation violated: %+v pending %d", st, c.Pending())
	}
}

// Satellite regression: removal notices are unrecoverable tool state —
// losing one would let a recovered node resurrect a deallocated noun.
// Overflow must park them for redelivery, never drop them, under either
// drop policy and regardless of what displaces them.
func TestRemovalNoticesRetriedNotDropped(t *testing.T) {
	removalMsg := func(name string) Message {
		return Message{Kind: KindRemoval, Removal: name}
	}
	for _, policy := range []fault.OverflowPolicy{fault.DropOldest, fault.DropNewest} {
		c := NewChannel()
		c.SetLimit(1, policy)
		var dropped []Message
		c.OnDrop(func(m Message) { dropped = append(dropped, m) })

		c.Send(removalMsg("A"))
		c.Send(removalMsg("B")) // overflow: one removal is displaced
		c.Send(sampleMsg(0))    // overflow again: displaces into park or drops itself

		got := drainAll(t, c)
		var removals []string
		for _, m := range got {
			if m.Kind == KindRemoval {
				removals = append(removals, m.Removal)
			}
		}
		if len(removals) != 2 {
			t.Fatalf("%v: delivered removals %v, want both A and B", policy, removals)
		}
		st := c.Stats()
		if st.DroppedByKind[KindRemoval] != 0 {
			t.Fatalf("%v: removal notice dropped: %+v", policy, st)
		}
		if st.Retried == 0 {
			t.Fatalf("%v: overflow never parked anything: %+v", policy, st)
		}
		for _, m := range dropped {
			if m.Kind == KindRemoval {
				t.Fatalf("%v: OnDrop observed a removal notice", policy)
			}
		}
	}
}

// Droppable is the single authority overflow consults; everything but
// samples must be protected.
func TestOnlySamplesDroppable(t *testing.T) {
	for _, k := range []Kind{KindNounDef, KindVerbDef, KindMappingDef, KindRemoval} {
		if k.Droppable() {
			t.Fatalf("%v reported droppable", k)
		}
	}
	if !KindSample.Droppable() {
		t.Fatal("samples must be droppable")
	}
}
