package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestMixedLoadStreamContract drives concurrent mixed sessions — the
// four canned scenarios, some with a SAS question, every fifth one
// capped far below its run's virtual time so it must be cut — at a
// small pool (2 run slots, a queue of 4) from more clients than the
// pool and queue hold. Every response must meet the client contract: a
// 200 is an application/x-ndjson stream of well-formed events that
// opens with admitted and ends in done, or in the cut's error after its
// report was flushed; any other status is a typed 429/503 rejection
// carrying Retry-After, which the client retries. No run may panic.
// The overload burst and the drain probe of the same contract are
// TestOverloadShedsThenRejects and TestDrainCutsInflightAndFlushesReport.
func TestMixedLoadStreamContract(t *testing.T) {
	s := NewServer(Config{MaxConcurrent: 2, QueueDepth: 4, AdmitTimeout: time.Minute})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const sessions, clients = 40, 8
	var (
		next             atomic.Int64
		done, cut, retry atomic.Int64
		wg               sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= sessions {
					return
				}
				req := SessionRequest{
					Tenant:   fmt.Sprintf("load-%d", i%4),
					Scenario: ScenarioKinds[i%len(ScenarioKinds)],
					Seed:     int64(1 + i),
					Nodes:    []int{2, 4, 8}[i%3],
					Metrics:  []string{"computations", "summations", "point_to_point_ops"},
				}
				if i%3 == 1 {
					req.Questions = []QuestionSpec{{Label: "sums", Text: "{? Sums}"}}
				}
				want := "done"
				if i%5 == 4 {
					req.MaxVirtualTimeNS = 1000
					want = "cut"
				}
				for {
					class, err := postUnderLoad(ts, req)
					if err != nil {
						t.Errorf("session %d (%s, seed %d): %v", i, req.Scenario, req.Seed, err)
						break
					}
					if class == "rejected" {
						retry.Add(1)
						time.Sleep(5 * time.Millisecond)
						continue
					}
					if class != want {
						t.Errorf("session %d (%s, seed %d, cap %d ns): ended %s, want %s",
							i, req.Scenario, req.Seed, req.MaxVirtualTimeNS, class, want)
					}
					if class == "cut" {
						cut.Add(1)
					} else {
						done.Add(1)
					}
					break
				}
			}
		}()
	}
	wg.Wait()

	c := s.Counters()
	t.Logf("%d done, %d cut, %d retries; counters %+v", done.Load(), cut.Load(), retry.Load(), c)
	if c.Panics != 0 {
		t.Fatalf("%d panics contained under load", c.Panics)
	}
	if c.Admitted != done.Load()+cut.Load() || c.Completed != done.Load() || c.Cut != cut.Load() {
		t.Fatalf("counters %+v disagree with the clients: %d done, %d cut", c, done.Load(), cut.Load())
	}
}

// postUnderLoad sends one session request and checks the response
// against the client contract, classifying it as "done", "cut" or
// "rejected".
func postUnderLoad(ts *httptest.Server, req SessionRequest) (string, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return "", err
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", fmt.Errorf("transport: %w", err)
	}
	defer resp.Body.Close()
	events, err := readEvents(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "rejected", checkRejection(resp, events)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		return "", fmt.Errorf("stream Content-Type %q", ct)
	}
	if len(events) == 0 || events[0].Event != "admitted" {
		return "", fmt.Errorf("stream does not open with admitted: %+v", events)
	}
	last := events[len(events)-1]
	switch last.Event {
	case "done":
		return "done", nil
	case "error":
		rep := eventByKind(events, "report")
		if rep == nil || rep.Report.Cut == nil {
			return "", fmt.Errorf("stream ends in error %+v without a flushed cut report", *last.Error)
		}
		if rep.Report.Cut.Kind != last.Error.Kind {
			return "", fmt.Errorf("cut report kind %q, final error kind %q", rep.Report.Cut.Kind, last.Error.Kind)
		}
		return "cut", nil
	default:
		return "", fmt.Errorf("stream ends in %q, not done or a cut: %+v", last.Event, events)
	}
}

// checkRejection checks that a non-200 response is a typed 429/503
// rejection: Retry-After set, and a body of one error event whose kind
// names the rejection and whose retry hint echoes the header.
func checkRejection(resp *http.Response, events []Event) error {
	if resp.StatusCode != http.StatusTooManyRequests && resp.StatusCode != http.StatusServiceUnavailable {
		return fmt.Errorf("status %d: %+v", resp.StatusCode, events)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		return fmt.Errorf("status %d with Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if len(events) != 1 || events[0].Event != "error" {
		return fmt.Errorf("status %d body is not one error event: %+v", resp.StatusCode, events)
	}
	switch e := events[0].Error; {
	case e.Kind != "rejected_busy" && e.Kind != "rejected_quota" && e.Kind != "draining":
		return fmt.Errorf("status %d with untyped rejection kind %q", resp.StatusCode, e.Kind)
	case e.RetryAfterSec != ra:
		return fmt.Errorf("rejection body retry hint %d, header %d", e.RetryAfterSec, ra)
	}
	return nil
}
