package sas

import (
	"fmt"
	"sync"
	"testing"

	"nvmap/internal/nv"
	"nvmap/internal/vtime"
)

// TestConcurrentStatsReaders pins the contract behind the SAS lock:
// each SAS is notified from a single goroutine (the session's driving
// goroutine), but Stats, TotalStats, Size, Index and Columns may be read
// concurrently from other goroutines — an HTTP metrics handler, the
// registry's pull collectors — without torn reads. Run under -race this
// fails if any counter is touched outside the lock.
func TestConcurrentStatsReaders(t *testing.T) {
	const nodes, rounds = 4, 300
	r := NewRegistry(nodes, Options{})
	if _, err := r.AddQuestionAll(Q("busy", T("Busy", Any))); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	// Concurrent readers: the observability plane's view of the registry.
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = r.TotalStats()
				for n := 0; n < nodes; n++ {
					s := r.Node(n)
					_ = s.Stats()
					_ = s.Size()
					_ = s.Index()
					_ = s.Columns()
				}
			}
		}()
	}
	// One writer per SAS: the single-goroutine-per-node notification
	// discipline the session guarantees.
	var writers sync.WaitGroup
	for n := 0; n < nodes; n++ {
		writers.Add(1)
		go func(n int) {
			defer writers.Done()
			s := r.Node(n)
			for i := 0; i < rounds; i++ {
				sn := sent("Busy", fmt.Sprintf("n%d_%d", n, i%7))
				at := vtime.Time(i * 10)
				s.Activate(sn, at)
				s.RecordEvent(sn, at+1, 1)
				if err := s.Deactivate(sn, at+2); err != nil {
					t.Error(err)
				}
			}
		}(n)
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	st := r.TotalStats()
	wantNotifs := nodes * rounds * 2 // one activate + one deactivate each
	if st.Notifications != wantNotifs {
		t.Errorf("Notifications = %d, want %d", st.Notifications, wantNotifs)
	}
	if st.Events != nodes*rounds {
		t.Errorf("Events = %d, want %d", st.Events, nodes*rounds)
	}
}

// TestConcurrentNodeTableCreation drives the first creation of the
// node table from several goroutines at once — writers that each need
// their node's SAS, and readers of Nodes() and TotalStats() that must
// never create one — and pins that exactly one table is published:
// every goroutine sees the same SAS per node, and no notification lands
// on a table that lost the race. Run under -race it also fails if the
// table is published or read outside the atomic pointer.
func TestConcurrentNodeTableCreation(t *testing.T) {
	const nodes, rounds = 4, 50
	r := NewRegistry(nodes, Options{})
	start := make(chan struct{})
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			<-start
			for {
				select {
				case <-stop:
					return
				default:
				}
				if ns := r.Nodes(); ns != nil && len(ns) != nodes {
					t.Errorf("Nodes() = %d SASes, want %d", len(ns), nodes)
				}
				_ = r.TotalStats()
			}
		}()
	}
	got := make([]*SAS, nodes)
	var writers sync.WaitGroup
	for n := 0; n < nodes; n++ {
		writers.Add(1)
		go func(n int) {
			defer writers.Done()
			<-start
			s := r.Node(n)
			got[n] = s
			sn := sent("Busy", fmt.Sprintf("n%d", n))
			for i := 0; i < rounds; i++ {
				s.Activate(sn, vtime.Time(i*10))
				_ = s.Deactivate(sn, vtime.Time(i*10+5))
			}
		}(n)
	}
	close(start)
	writers.Wait()
	close(stop)
	readers.Wait()
	for n, s := range got {
		if s != r.Node(n) || s != r.Nodes()[n] || s.Node() != n {
			t.Fatalf("node %d: the writer's SAS is not the published one", n)
		}
	}
	if st := r.TotalStats(); st.Notifications != nodes*rounds*2 {
		t.Fatalf("Notifications = %d, want %d: a losing table took writes", st.Notifications, nodes*rounds*2)
	}
}

// TestBatchConcurrentWriters is the shared-memory case for notification
// batches (Section 4.2.3): several goroutines notify one SAS through
// ActivateAll/DeactivateAll while readers scrape it. Each batch runs
// under the one lock, so the counts come out exact and the set drains.
func TestBatchConcurrentWriters(t *testing.T) {
	const workers, rounds = 4, 200
	s := New(Options{})
	if _, err := s.AddQuestion(Q("q", T("Work", Any), T("Arg", Any))); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = s.Stats()
			_ = s.Snapshot()
			_ = s.Columns()
		}
	}()
	var writers sync.WaitGroup
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			batch := []nv.Sentence{
				sent("Work", fmt.Sprintf("w%d", w)),
				sent("Arg", fmt.Sprintf("a%d", w)),
				sent("Arg", "shared"),
			}
			for i := 0; i < rounds; i++ {
				at := vtime.Time(w*1_000_000 + i*10)
				s.ActivateAll(batch, at)
				if err := s.DeactivateAll(batch, at+5); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if s.Size() != 0 {
		t.Fatalf("Size = %d after balanced batches", s.Size())
	}
	if got, want := s.Stats().Notifications, workers*rounds*2*3; got != want {
		t.Fatalf("Notifications = %d, want %d", got, want)
	}
}
