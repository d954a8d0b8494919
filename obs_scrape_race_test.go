package nvmap

import (
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"nvmap/internal/obs"
	"nvmap/internal/paradyn"
)

// scrapeProgram is long enough (in virtual time and operation count)
// that concurrent scrapes genuinely overlap the run.
const scrapeProgram = `PROGRAM scrape
REAL A(256)
REAL B(256)
REAL S
FORALL (I = 1:256) A(I) = I
FORALL (I = 1:256) B(I) = 2 * I
DO K = 1, 20
B = A * 2.0 + B
S = SUM(B)
A = CSHIFT(A, 1)
S = DOT_PRODUCT(A, B)
END DO
S = SUM(A)
END
`

// TestScrapeDuringRun hammers every obs HTTP endpoint while a session
// executes under RunContext. Run with -race (the CI race job does) it
// proves a concurrent scrape cannot tear or race the run's own
// accounting: machine node stats, dyninst counters, SAS counters,
// the channel ledger and the span ring are all either atomic or locked.
// It also audits the handler contract: every endpoint answers 200 with
// the right Content-Type even mid-run.
func TestScrapeDuringRun(t *testing.T) {
	s, err := NewSession(scrapeProgram,
		WithNodes(8), WithSourceFile("scrape.fcm"), WithObservability())
	if err != nil {
		t.Fatal(err)
	}
	s.Tool.EnableDynamicMapping()
	s.Tool.EnableGating()
	for _, id := range []string{"computations", "summations", "point_to_point_ops", "idle_time"} {
		if _, err := s.Tool.EnableMetric(id, paradyn.WholeProgram()); err != nil {
			t.Fatal(err)
		}
	}
	h := obs.Handler(s.Observability())

	wantType := map[string]string{
		"/":           "text/plain; charset=utf-8",
		"/metrics":    "text/plain; version=0.0.4; charset=utf-8",
		"/trace":      "application/json",
		"/debug/vars": "application/json; charset=utf-8",
		"/stages":     "text/plain; charset=utf-8",
	}

	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		if _, err := s.Run(); err != nil {
			t.Errorf("run failed under scrape load: %v", err)
		}
	}()

	var wg sync.WaitGroup
	for path, ct := range wantType {
		wg.Add(1)
		go func(path, ct string) {
			defer wg.Done()
			for {
				select {
				case <-runDone:
					return
				default:
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
				if rec.Code != 200 {
					t.Errorf("GET %s mid-run: status %d", path, rec.Code)
					return
				}
				if got := rec.Header().Get("Content-Type"); got != ct {
					t.Errorf("GET %s: Content-Type %q, want %q", path, got, ct)
					return
				}
			}
		}(path, ct)
	}
	<-runDone
	wg.Wait()

	// A final post-run scrape must reflect the finished run: non-zero
	// compute ops in the Prometheus text.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body, _ := io.ReadAll(rec.Body)
	if !strings.Contains(string(body), "nvmap_machine_compute_ops_total") {
		t.Fatalf("post-run /metrics missing machine counters:\n%.400s", body)
	}
}
