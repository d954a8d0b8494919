// Command nvload is the load generator for nvprofd: it replays mixed
// scenarios (plain/faulty/crashy/parallel) against the daemon at high
// concurrency with a client-side retry policy — per-request timeouts,
// bounded retries, jittered backoff honoring Retry-After — and emits a
// throughput ledger: sessions/sec, p95 first-answer latency, and
// shed/reject/cut counts.
//
// With -addr empty (the default) nvload self-hosts: it starts the serve
// daemon in-process on a loopback port, drives the load over real HTTP,
// then drains it — which is also what the CI smoke job runs under
// -race. With -addr set it targets an external daemon and skips the
// drain phase.
//
// Usage:
//
//	nvload -smoke                      # CI: 50 mixed sessions + drain contract
//	nvload -sessions 400 -concurrency 32
//	nvload -addr host:9091 -sessions 1000
//
// Exit status 0 means every session satisfied the client contract:
// each ended in a done event, a cut-with-report, or a typed rejection —
// never a transport error, a malformed stream, or a daemon death.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nvmap/internal/serve"
)

// rng is a splitmix64 stream for jitter and mix shuffling (stable
// across Go releases, no math/rand).
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func main() {
	var (
		addr        = flag.String("addr", "", "daemon address (empty = self-host an in-process daemon)")
		sessions    = flag.Int("sessions", 200, "number of sessions to drive")
		concurrency = flag.Int("concurrency", 16, "concurrent client goroutines")
		seed        = flag.Int64("seed", 1, "base seed (session i uses seed+i)")
		mix         = flag.String("mix", strings.Join(serve.ScenarioKinds, ","), "comma-separated scenario mix")
		timeout     = flag.Duration("timeout", 30*time.Second, "per-request wall timeout")
		retries     = flag.Int("retries", 4, "max retries after 429/503")
		maxBackoff  = flag.Duration("max-backoff", 2*time.Second, "backoff ceiling between retries")
		deadlineMS  = flag.Int64("deadline-ms", 20000, "per-session run deadline sent to the daemon")
		smoke       = flag.Bool("smoke", false, "CI smoke: 50 mixed sessions on a tiny pool, then drain and verify the cut contract")
	)
	flag.Parse()
	if *sessions <= 0 || *concurrency <= 0 || *retries < 0 || *timeout <= 0 {
		fmt.Fprintln(os.Stderr, "nvload: -sessions, -concurrency and -timeout must be positive; -retries non-negative")
		flag.Usage()
		os.Exit(2)
	}
	kinds := strings.Split(*mix, ",")
	for _, k := range kinds {
		if !serve.ValidScenario(k) {
			fmt.Fprintf(os.Stderr, "nvload: unknown scenario %q in -mix (valid: %v)\n", k, serve.ScenarioKinds)
			os.Exit(2)
		}
	}
	if *smoke {
		// Fixed 50-session CI shape. The generous timeout keeps slow
		// hosts (and -race builds) from tripping the client-side clock:
		// smoke verifies the overflow ladder, which rejects on queue
		// depth, never on timers.
		*sessions = 50
		*timeout = 5 * time.Minute
	}

	// Self-host when no target was given: a deliberately small pool so
	// load actually exercises the queue, the shed ladder and fast
	// rejection, over real loopback HTTP.
	var daemon *serve.Server
	base := *addr
	var shutdown func()
	if base == "" {
		daemon = serve.NewServer(serve.Config{
			MaxConcurrent: 2,
			QueueDepth:    4,
			AdmitTimeout:  *timeout,
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fatal("listen: %v", err)
		}
		hs := &http.Server{Handler: daemon.Handler()}
		go func() { _ = hs.Serve(ln) }()
		base = "http://" + ln.Addr().String()
		shutdown = func() { _ = hs.Close() }
	} else if !strings.Contains(base, "://") {
		base = "http://" + base
	}

	cl := &client{
		base:       base,
		http:       &http.Client{Timeout: *timeout},
		retries:    *retries,
		maxBackoff: *maxBackoff,
	}

	var (
		tally   tally
		wg      sync.WaitGroup
		nextIdx atomic.Int64
	)
	started := time.Now()
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			r := &rng{state: uint64(*seed)*0x9E3779B9 + uint64(worker)}
			for {
				i := int(nextIdx.Add(1)) - 1
				if i >= *sessions {
					return
				}
				req := serve.SessionRequest{
					Tenant:     fmt.Sprintf("load-%d", i%4),
					Scenario:   kinds[i%len(kinds)],
					Seed:       *seed + int64(i),
					Nodes:      []int{2, 4, 8}[i%3],
					Metrics:    serve.ScenarioMetrics,
					DeadlineMS: *deadlineMS,
				}
				tally.add(cl.runSession(req, r))
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(started)

	violations := tally.violations.Load()
	if *smoke && daemon != nil {
		if err := overloadBurst(cl); err != nil {
			fmt.Fprintf(os.Stderr, "nvload: overload burst: %v\n", err)
			violations++
		}
		if err := drainContract(daemon, cl); err != nil {
			fmt.Fprintf(os.Stderr, "nvload: drain contract: %v\n", err)
			violations++
		}
	} else if daemon != nil {
		daemon.Drain(5 * time.Second)
	}
	if shutdown != nil {
		shutdown()
	}

	tally.print(os.Stdout, elapsed)
	if daemon != nil {
		c := daemon.Counters()
		fmt.Printf("nvload: daemon counters: admitted %d, completed %d, cut %d, shed %d, rejected busy %d / quota %d / draining %d, panics %d\n",
			c.Admitted, c.Completed, c.Cut, c.Shed, c.RejectedBusy, c.RejectedQuota, c.RejectedDraining, c.Panics)
		if c.Panics != 0 {
			fmt.Fprintf(os.Stderr, "nvload: daemon contained %d panics\n", c.Panics)
			violations++
		}
	}
	if violations > 0 {
		fmt.Fprintf(os.Stderr, "nvload: %d sessions violated the client contract\n", violations)
		os.Exit(1)
	}
}

// outcome classifies one driven session.
type outcome struct {
	class       string // "done", "cut", "rejected", "violation"
	shed        bool
	retries     int
	firstAnswer time.Duration // request start to first answer event; 0 if none
	err         error
}

// tally aggregates outcomes across client goroutines.
type tally struct {
	mu          sync.Mutex
	counts      map[string]int
	shed        int
	retries     int
	latencies   []time.Duration
	violations  atomic.Int64
	firstErrors []string
}

func (t *tally) add(o outcome) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.counts == nil {
		t.counts = map[string]int{}
	}
	t.counts[o.class]++
	if o.shed {
		t.shed++
	}
	t.retries += o.retries
	if o.firstAnswer > 0 {
		t.latencies = append(t.latencies, o.firstAnswer)
	}
	if o.class == "violation" {
		t.violations.Add(1)
		if len(t.firstErrors) < 5 {
			t.firstErrors = append(t.firstErrors, o.err.Error())
		}
	}
}

func (t *tally) print(w *os.File, elapsed time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	total := 0
	for _, n := range t.counts {
		total += n
	}
	p95 := percentile(t.latencies, 95)
	classes := make([]string, 0, len(t.counts))
	for c := range t.counts {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	fmt.Fprintf(w, "nvload: %d sessions in %v (%.1f/s)", total, elapsed.Round(time.Millisecond),
		float64(total)/elapsed.Seconds())
	for _, c := range classes {
		fmt.Fprintf(w, ", %s %d", c, t.counts[c])
	}
	fmt.Fprintf(w, "; shed %d, retries %d, p95 first-answer %v\n", t.shed, t.retries, p95.Round(time.Microsecond))
	for _, e := range t.firstErrors {
		fmt.Fprintf(w, "nvload: violation: %s\n", e)
	}
}

func percentile(ds []time.Duration, p int) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := (len(sorted)*p + 99) / 100
	if idx > len(sorted) {
		idx = len(sorted)
	}
	return sorted[idx-1]
}

// client drives sessions with retry/timeout/jittered backoff.
type client struct {
	base       string
	http       *http.Client
	retries    int
	maxBackoff time.Duration
}

// runSession POSTs one session, retrying typed rejections with backoff.
func (c *client) runSession(req serve.SessionRequest, r *rng) outcome {
	body, err := json.Marshal(req)
	if err != nil {
		return outcome{class: "violation", err: err}
	}
	var o outcome
	for attempt := 0; ; attempt++ {
		start := time.Now()
		resp, err := c.http.Post(c.base+"/v1/sessions", "application/json", bytes.NewReader(body))
		if err != nil {
			o.class, o.err = "violation", fmt.Errorf("transport: %w", err)
			return o
		}
		switch resp.StatusCode {
		case http.StatusOK:
			cls, shed, first, err := c.consumeStream(resp, start)
			resp.Body.Close()
			if err != nil {
				o.class, o.err = "violation", err
				return o
			}
			o.class, o.shed, o.firstAnswer = cls, shed, first
			return o
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			retryAfter := parseRetryAfter(resp)
			drain(resp)
			if attempt >= c.retries {
				o.class = "rejected"
				return o
			}
			o.retries++
			c.backoff(attempt, retryAfter, r)
		default:
			msg, _ := streamError(resp)
			drain(resp)
			o.class = "violation"
			o.err = fmt.Errorf("status %d: %s", resp.StatusCode, msg)
			return o
		}
	}
}

// consumeStream reads the NDJSON events of a 200 response and
// classifies the session.
func (c *client) consumeStream(resp *http.Response, start time.Time) (class string, shed bool, firstAnswer time.Duration, err error) {
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		return "", false, 0, fmt.Errorf("stream Content-Type %q", ct)
	}
	var (
		sawAdmitted, sawReport, sawDone bool
		cut                             bool
		lastErr                         string
	)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev serve.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return "", false, 0, fmt.Errorf("bad event line %q: %w", line, err)
		}
		switch ev.Event {
		case "admitted":
			sawAdmitted = true
			shed = ev.Admitted != nil && ev.Admitted.ShedLevel > 0
		case "answer", "question":
			if firstAnswer == 0 {
				firstAnswer = time.Since(start)
			}
		case "report":
			sawReport = true
			cut = ev.Report != nil && ev.Report.Cut != nil
		case "done":
			sawDone = true
		case "error":
			if ev.Error != nil {
				lastErr = ev.Error.Kind + ": " + ev.Error.Message
			}
		}
	}
	if err := sc.Err(); err != nil {
		return "", false, 0, fmt.Errorf("stream read: %w", err)
	}
	switch {
	case !sawAdmitted:
		return "", false, 0, fmt.Errorf("200 stream without admitted event")
	case sawDone:
		return "done", shed, firstAnswer, nil
	case cut && sawReport:
		// Cut runs must still have flushed their report; lastErr names
		// the typed cause (deadline, budget, cancelled).
		return "cut", shed, firstAnswer, nil
	default:
		return "", false, 0, fmt.Errorf("stream ended without done or cut report (last error %q)", lastErr)
	}
}

// backoff sleeps for the jittered, Retry-After-respecting delay.
func (c *client) backoff(attempt, retryAfterSec int, r *rng) {
	d := time.Duration(1<<uint(attempt)) * 50 * time.Millisecond
	if ra := time.Duration(retryAfterSec) * time.Second; ra > d {
		d = ra
	}
	if d > c.maxBackoff {
		d = c.maxBackoff
	}
	// Full jitter: uniform in [d/2, d).
	half := d / 2
	d = half + time.Duration(r.intn(int(half)+1))
	time.Sleep(d)
}

func parseRetryAfter(resp *http.Response) int {
	if s := resp.Header.Get("Retry-After"); s != "" {
		if n, err := strconv.Atoi(s); err == nil {
			return n
		}
	}
	return 0
}

// streamError extracts the error message of a rejection body.
func streamError(resp *http.Response) (string, error) {
	var ev serve.Event
	if err := json.NewDecoder(resp.Body).Decode(&ev); err != nil {
		return "", err
	}
	if ev.Error != nil {
		return ev.Error.Message, nil
	}
	return "", nil
}

func drain(resp *http.Response) {
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
	}
	resp.Body.Close()
}

// heavySource runs for hundreds of host milliseconds — long enough that
// a synchronized burst must overflow the smoke daemon's tiny pool, and
// that a drain reliably lands mid-run.
const heavySource = `PROGRAM heavy
REAL A(2048)
REAL B(2048)
REAL S
FORALL (I = 1:2048) A(I) = I
FORALL (I = 1:2048) B(I) = 2 * I
DO K = 1, 5000
B = A * 2.0 + B
S = SUM(B)
A = CSHIFT(A, 1)
END DO
S = SUM(A)
END
`

// overloadBurst fires simultaneous heavy sessions at the smoke daemon
// (pool 2, queue 4) with retries disabled, proving the shed-then-reject
// ladder: queued admissions run at degraded fidelity, overflow gets an
// immediate 429 + Retry-After, and nothing crashes or hangs.
func overloadBurst(cl *client) error {
	burst := &client{base: cl.base, http: cl.http, retries: 0, maxBackoff: cl.maxBackoff}
	const clients = 10
	outcomes := make(chan outcome, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &rng{state: uint64(time.Now().UnixNano())}
			outcomes <- burst.runSession(serve.SessionRequest{
				Source: heavySource, Nodes: 4, DeadlineMS: 60000,
			}, r)
		}()
	}
	wg.Wait()
	close(outcomes)
	var done, shed, rejected int
	for o := range outcomes {
		switch o.class {
		case "done":
			done++
			if o.shed {
				shed++
			}
		case "rejected":
			rejected++
		default:
			return fmt.Errorf("burst session %s: %v", o.class, o.err)
		}
	}
	// 10 simultaneous multi-hundred-ms runs against pool 2 + queue 4:
	// at least 4 must fast-reject, and every queued admission must have
	// been priced onto the shed ladder.
	if rejected < 1 {
		return fmt.Errorf("no fast rejection under 10x overload (done %d, shed %d)", done, shed)
	}
	if shed < 1 && done > 2 {
		return fmt.Errorf("queued admissions were never shed (done %d, rejected %d)", done, rejected)
	}
	fmt.Printf("nvload: overload burst verified: %d completed (%d shed), %d fast-rejected with Retry-After\n",
		done, shed, rejected)
	return nil
}

// drainContract is the smoke mode's final act: with the daemon still
// up, start a long-running session, drain mid-flight, and verify the
// run was cut at an exact virtual-time boundary with its report
// flushed, new admissions get 503 + Retry-After, and drain left
// nothing in flight.
func drainContract(daemon *serve.Server, cl *client) error {
	req := serve.SessionRequest{Source: heavySource, Nodes: 8, Metrics: []string{"computations"}, DeadlineMS: 60000}
	body, _ := json.Marshal(req)
	before := daemon.Counters().Admitted
	type res struct {
		class string
		err   error
	}
	resc := make(chan res, 1)
	go func() {
		start := time.Now()
		resp, err := cl.http.Post(cl.base+"/v1/sessions", "application/json", bytes.NewReader(body))
		if err != nil {
			resc <- res{err: err}
			return
		}
		defer resp.Body.Close()
		cls, _, _, err := cl.consumeStream(resp, start)
		resc <- res{class: cls, err: err}
	}()
	// Let the run get admitted and in flight, then drain.
	deadline := time.Now().Add(10 * time.Second)
	for daemon.Counters().Admitted == before {
		if time.Now().After(deadline) {
			return fmt.Errorf("drain probe was never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	// The probe is admitted; give it a moment to enter RunContext so the
	// cut lands mid-run rather than pre-compile.
	time.Sleep(50 * time.Millisecond)
	daemon.Drain(20 * time.Millisecond)

	r := <-resc
	if r.err != nil {
		return fmt.Errorf("in-flight run during drain: %w", r.err)
	}
	if r.class != "cut" {
		return fmt.Errorf("in-flight run classified %q, want cut-with-report", r.class)
	}
	// Post-drain admissions are politely refused.
	resp, err := cl.http.Post(cl.base+"/v1/sessions", "application/json",
		bytes.NewReader(mustJSON(serve.SessionRequest{Scenario: serve.ScenarioPlain})))
	if err != nil {
		return fmt.Errorf("post-drain POST: %w", err)
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		return fmt.Errorf("post-drain admit: status %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	fmt.Println("nvload: drain contract verified: in-flight run cut with report flushed, post-drain admissions 503")
	return nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "nvload: "+format+"\n", args...)
	os.Exit(1)
}
