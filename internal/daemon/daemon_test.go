package daemon

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"nvmap/internal/fault"
	"nvmap/internal/pif"
)

func sample(id string, v float64) Message {
	return Message{Kind: KindSample, Sample: Sample{MetricID: id, Value: v}}
}

func nounDef(name string) Message {
	return Message{Kind: KindNounDef, Noun: &pif.NounRecord{Name: name, Abstraction: "CMF"}}
}

func TestChannelOrderPreserved(t *testing.T) {
	c := NewChannel()
	// The crucial interleaving: a definition arrives before the samples
	// that reference it, over the same channel.
	c.Send(nounDef("A"))
	c.Send(sample("summations", 1))
	c.Send(sample("summations", 2))
	c.Send(Message{Kind: KindRemoval, Removal: "A"})

	var got []Kind
	n, err := c.Drain(func(m Message) error {
		got = append(got, m.Kind)
		return nil
	})
	if err != nil || n != 4 {
		t.Fatalf("Drain = %d, %v", n, err)
	}
	want := []Kind{KindNounDef, KindSample, KindSample, KindRemoval}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if c.Pending() != 0 {
		t.Fatalf("Pending = %d", c.Pending())
	}
}

func TestChannelErrorKeepsTail(t *testing.T) {
	c := NewChannel()
	for i := 0; i < 5; i++ {
		c.Send(sample("m", float64(i)))
	}
	n, err := c.Drain(func(m Message) error {
		if m.Sample.Value == 2 {
			return fmt.Errorf("boom")
		}
		return nil
	})
	if err == nil || n != 2 {
		t.Fatalf("Drain = %d, %v", n, err)
	}
	// The failing message (value 2) and the two behind it remain.
	if c.Pending() != 3 {
		t.Fatalf("Pending = %d, want 3", c.Pending())
	}
	var vals []float64
	if _, err := c.Drain(func(m Message) error {
		vals = append(vals, m.Sample.Value)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(vals) != 3 || vals[0] != 2 || vals[2] != 4 {
		t.Fatalf("retry saw %v", vals)
	}
}

func TestChannelStats(t *testing.T) {
	c := NewChannel()
	c.Send(nounDef("A"))
	c.Send(sample("m", 1))
	c.Send(sample("m", 2))
	st := c.Stats()
	if st.Sent != 3 || st.ByKind[KindSample] != 2 || st.ByKind[KindNounDef] != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.MaxQueue != 3 || st.Delivered != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if _, err := c.Drain(func(Message) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Delivered; got != 3 {
		t.Fatalf("Delivered = %d", got)
	}
}

func TestChannelConcurrentSends(t *testing.T) {
	c := NewChannel()
	var wg sync.WaitGroup
	const workers, per = 8, 100
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Send(sample("m", 1))
			}
		}()
	}
	wg.Wait()
	if c.Pending() != workers*per {
		t.Fatalf("Pending = %d", c.Pending())
	}
	n, err := c.Drain(func(Message) error { return nil })
	if err != nil || n != workers*per {
		t.Fatalf("Drain = %d, %v", n, err)
	}
}

func TestKindStrings(t *testing.T) {
	for k := KindSample; k <= KindRemoval; k++ {
		if k.String() == "" {
			t.Fatalf("kind %d unnamed", int(k))
		}
	}
	if Kind(99).String() == "" {
		t.Fatal("unknown kind unnamed")
	}
}

// Property: sent == delivered + pending across arbitrary send/drain
// interleavings, and delivery order matches send order.
func TestChannelConservationProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		c := NewChannel()
		var sent, delivered int
		next := 0.0
		expect := 0.0
		okOrder := true
		for _, op := range ops {
			if op%3 == 0 {
				if _, err := c.Drain(func(m Message) error {
					if m.Sample.Value != expect {
						okOrder = false
					}
					expect++
					delivered++
					return nil
				}); err != nil {
					return false
				}
			} else {
				c.Send(sample("m", next))
				next++
				sent++
			}
		}
		st := c.Stats()
		return okOrder && st.Sent == sent && st.Delivered == delivered &&
			c.Pending() == sent-delivered
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// The channel contract: one queue whose array a drain swaps with the
// previous batch's. A warmed send/drain cycle therefore allocates
// nothing, delivery order survives parked retries and a nack with a
// re-entrant send, and neither array keeps a delivered record alive.
func TestDrainSwapIsAllocFreeAndOrdered(t *testing.T) {
	nop := func(Message) error { return nil }
	nopBatch := func([]Message) error { return nil }
	msgs := make([]Message, 16)
	for i := range msgs {
		msgs[i] = sampleMsg(i)
	}
	msgs[0] = nounMsg("A")
	msgs[1] = Message{Kind: KindMappingDef, Mapping: &pif.MappingRecord{}, Attrs: map[string]string{"k": "v"}}

	c := NewChannel()
	cycle := func() {
		for _, m := range msgs {
			c.Send(m)
		}
		_, _ = c.Drain(nop)
	}
	batchCycle := func() {
		c.SendBatch(msgs)
		_, _ = c.DrainBatch(nopBatch)
	}
	cycle()
	cycle() // both arrays now sized
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("16 x Send + Drain allocates %v per cycle, want 0", n)
	}
	if n := testing.AllocsPerRun(100, batchCycle); n != 0 {
		t.Errorf("SendBatch + DrainBatch allocates %v per cycle, want 0", n)
	}

	retained := func(when string) {
		t.Helper()
		for _, arr := range [][]Message{c.spare[:cap(c.spare)], c.queue[len(c.queue):cap(c.queue)]} {
			for i, m := range arr {
				if m.Noun != nil || m.Mapping != nil || m.Attrs != nil {
					t.Fatalf("%s: slot %d still holds a delivered record: %+v", when, i, m)
				}
			}
		}
	}
	retained("after swap drains")

	// A nack at m1 with a send made from inside the delivery: the
	// undelivered tail goes back ahead of the re-entrant message.
	for i := 0; i < 3; i++ {
		c.Send(sampleMsg(i))
	}
	n, err := c.Drain(func(m Message) error {
		if m.Sample.MetricID == "m1" {
			c.Send(nounMsg("late"))
			return fmt.Errorf("daemon busy")
		}
		return nil
	})
	if err == nil || n != 1 || c.Pending() != 3 {
		t.Fatalf("nacked drain = %d, %v, pending %d", n, err, c.Pending())
	}
	got := drainAll(t, c)
	if len(got) != 3 || got[0].Sample.MetricID != "m1" || got[1].Sample.MetricID != "m2" || got[2].Kind != KindNounDef {
		t.Fatalf("after nack + re-entrant send: %+v", got)
	}
	retained("after nack")

	// Parked retries are delivered ahead of the queue (the copying
	// case), and the next cycle is back on the swap.
	c.SetLimit(2, fault.DropOldest)
	c.Send(nounMsg("B"))
	c.Send(nounMsg("C"))
	c.Send(sampleMsg(1))
	c.Send(sampleMsg(2)) // B and C are now parked, the samples queued
	got = drainAll(t, c)
	if len(got) != 4 || got[0].Noun.Name != "B" || got[1].Noun.Name != "C" ||
		got[2].Sample.MetricID != "m1" || got[3].Sample.MetricID != "m2" {
		t.Fatalf("parked retries out of order: %+v", got)
	}
	retained("after parked retries")
	c.SetLimit(0, fault.Unbounded)
	cycle()
	if st := c.Stats(); st.Sent != st.Delivered || c.Pending() != 0 {
		t.Fatalf("conservation: %+v pending %d", st, c.Pending())
	}
}

func BenchmarkSendDrain(b *testing.B) {
	c := NewChannel()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Send(sample("m", 1))
		if i%64 == 63 {
			_, _ = c.Drain(func(Message) error { return nil })
		}
	}
}
