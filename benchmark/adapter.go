package main

// Every call the benchmark makes into nvmap lives in this file, so a
// later change that deletes or moves a repo surface edits one file of
// the benchmark, not all of them. The surface is kept narrow on
// purpose: functional options only; host parallelism varied through
// runtime.GOMAXPROCS, never a workers option; no WithConfig, no
// package-level MetricRows/RunWithMetrics, no deprecated level
// constants, no Monitor/Channel stats shims, no PerturbationReport, no
// internal/{trace,ring,par,arena}, no DiagnosisCorpus or exp_*.go
// helpers. Work counts are read by series name from the obs registry's
// Prometheus export.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"nvmap"
	"nvmap/internal/cmf"
	"nvmap/internal/daemon"
	"nvmap/internal/diagnose"
	"nvmap/internal/dyninst"
	"nvmap/internal/fault"
	"nvmap/internal/machine"
	"nvmap/internal/mapping"
	"nvmap/internal/nv"
	"nvmap/internal/obs"
	"nvmap/internal/paradyn"
	"nvmap/internal/pif"
	"nvmap/internal/pifgen"
	"nvmap/internal/place"
	"nvmap/internal/sas"
	"nvmap/internal/serve"
	"nvmap/internal/vtime"
)

// defaultMetrics is nvprof's default -metrics set.
var defaultMetrics = []string{"summations", "summation_time", "point_to_point_ops", "idle_time"}

// sessionSpec says which planes one session switches on. The ablation
// ladder is this struct with one more field set per rung.
type sessionSpec struct {
	prog       program
	file       string   // source-file name override (unique per op on frontend_cold)
	metrics    []string // metric IDs enabled at the whole-program focus
	allMetrics bool     // every metric in the library instead
	mapping    bool     // dynamic mapping + gating
	questions  []string // SAS monitor questions, paper notation
	filter     bool     // SAS relevance filtering (the daemon asks with it on)
	obs        bool     // WithObservability: needed to read work counts
	showPIF    bool     // nvprof -pif: render the static mapping information
	showWhere  bool     // nvprof -where
	showLevels bool     // nvprof -levels
	extra      []nvmap.Option
}

// sessionResult is everything a session op printed or answered.
type sessionResult struct {
	printed   string             // PRINT output
	values    map[string]float64 // metric ID -> final value
	counts    []float64          // question counts, in question order
	virtualNS int64
	rendered  string // the report text nvprof would print
	runNS     int64  // wall time of Session.Run alone
	prom      string // Prometheus export (obs only)
}

// sessionOp is one nvprof-equivalent session, mirroring cmd/nvprof.run:
// build, (print PIF), enable mapping/gating/metrics, ask, run, sample,
// answer, render. Each call into a layer sits in its own span.
func sessionOp(o *opTrace, spec sessionSpec) (res sessionResult, err error) {
	file := spec.file
	if file == "" {
		file = spec.prog.File
	}
	var out bytes.Buffer
	opts := []nvmap.Option{
		nvmap.WithNodes(spec.prog.Nodes),
		nvmap.WithSourceFile(file),
		nvmap.WithOutput(&out),
	}
	if spec.obs {
		opts = append(opts, nvmap.WithObservability())
	}
	opts = append(opts, spec.extra...)

	var s *nvmap.Session
	o.span("session.new", func() { s, err = nvmap.NewSession(spec.prog.Source, opts...) })
	if err != nil {
		return res, err
	}
	var report strings.Builder
	if spec.showPIF {
		o.span("pif.write_parse", func() {
			var text string
			if text, err = s.PIFText(); err != nil {
				return
			}
			report.WriteString(text)
			// Known answer: the text must parse back to the records the
			// session holds.
			var back *pif.File
			if back, err = pif.Parse(strings.NewReader(text)); err != nil {
				return
			}
			if got, want := len(back.Mappings), len(s.PIF.Mappings); got != want {
				err = fmt.Errorf("PIF round trip: %d mapping records, session holds %d", got, want)
			}
		})
		if err != nil {
			return res, err
		}
	}

	var enabled []*paradyn.EnabledMetric
	o.span("paradyn.enable", func() {
		if spec.mapping {
			s.Tool.EnableDynamicMapping()
			s.Tool.EnableGating()
		}
		ids := spec.metrics
		if spec.allMetrics {
			ids = s.Tool.Library().IDs()
		}
		for _, id := range ids {
			var em *paradyn.EnabledMetric
			if em, err = s.Tool.EnableMetric(id, paradyn.WholeProgram()); err != nil {
				return
			}
			enabled = append(enabled, em)
		}
	})
	if err != nil {
		return res, err
	}

	var asked []*nvmap.AskedQuestion
	if len(spec.questions) > 0 {
		o.span("sas.ask", func() {
			mon := s.EnableSASMonitor(spec.filter)
			for _, text := range spec.questions {
				var q *nvmap.AskedQuestion
				if q, err = mon.Ask("", text); err != nil {
					return
				}
				asked = append(asked, q)
			}
		})
		if err != nil {
			return res, err
		}
	}

	o.span("session.run", func() {
		t0 := time.Now()
		_, err = s.Run()
		res.runNS = int64(time.Since(t0))
	})
	if err != nil {
		return res, err
	}
	now := s.Now()
	o.span("paradyn.sample_all", func() { s.Tool.SampleAll(now) })

	if len(asked) > 0 {
		o.span("session.answer", func() {
			for _, q := range asked {
				var r sas.Result
				if r, err = q.Answer(now); err != nil {
					return
				}
				res.counts = append(res.counts, r.Count)
				fmt.Fprintf(&report, "  %-44s count=%.0f  event time=%v  gate time=%v\n",
					q.Question.Label, r.Count, r.EventTime, r.SatisfiedTime)
			}
		})
		if err != nil {
			return res, err
		}
	}

	o.span("paradyn.render", func() {
		fmt.Fprintf(&report, "on %d nodes: virtual elapsed %v\n\n", spec.prog.Nodes, s.Elapsed())
		report.WriteString(paradyn.Table("metrics", s.MetricRows(enabled)))
		if spec.showWhere {
			report.WriteString(s.Tool.Axis.Render())
		}
		if spec.showLevels {
			for _, l := range s.Levels() {
				fmt.Fprintf(&report, "  %-10s %5d %6d %6d %8d\n", l.Name, l.Rank, l.Nouns, l.Verbs, l.Metrics)
			}
		}
	})

	res.printed = out.String()
	res.values = make(map[string]float64, len(enabled))
	for _, em := range enabled {
		res.values[em.Metric.ID] = em.Value(now)
	}
	res.virtualNS = int64(s.Elapsed())
	res.rendered = report.String()
	if spec.obs {
		var b strings.Builder
		if err = obs.WritePrometheus(&b, s.Observability().Metrics, true); err != nil {
			return res, err
		}
		res.prom = b.String()
	}
	return res, nil
}

// frontEndProbe times the two front-end stages NewSession runs inside
// itself on a compile-memo miss, by calling them directly: the
// benchmark cannot bracket them in place. session.build_rest is then
// NewSession minus these two.
func frontEndProbe(src, file string) (compileNS, pifgenNS int64, err error) {
	t0 := time.Now()
	cp, err := cmf.CompileSource(src, cmf.Options{SourceFile: file})
	if err != nil {
		return 0, 0, err
	}
	listing := cp.Listing()
	t1 := time.Now()
	if _, err = pifgen.FromListing(strings.NewReader(listing)); err != nil {
		return 0, 0, err
	}
	return int64(t1.Sub(t0)), int64(time.Since(t1)), nil
}

// corpusOptions turns a corpus program's planted defect into session
// options: the straggler's slow node, the lossy link's delay plan, the
// congested ring's bad placement on a 4x1 torus.
func corpusOptions(cp corpusProgram) []nvmap.Option {
	opts := []nvmap.Option{nvmap.WithNodes(cp.Nodes), nvmap.WithSourceFile(cp.File)}
	switch cp.Name {
	case "straggler":
		opts = append(opts, nvmap.WithFaults(&fault.Plan{Seed: cp.FaultSeed,
			Nodes: fault.NodeFaults{Slowdown: map[int]float64{2: 8}}}))
	case "lossy":
		opts = append(opts, nvmap.WithFaults(&fault.Plan{Seed: cp.FaultSeed,
			Messages: fault.MessageFaults{DelayProb: 0.8, DelayMax: 200 * vtime.Microsecond}}))
	case "congested":
		opts = append(opts,
			nvmap.WithTopology(machine.Topology{GridX: 4, GridY: 1, Torus: true, LinkHop: 40 * vtime.Microsecond}),
			nvmap.WithPlacement([]int{0, 2, 1, 3}))
	}
	return opts
}

// diagResult is one diagnosis, reduced to what the checks need.
type diagResult struct {
	confirmed []string // hypotheses confirmed at the whole-program focus
	text      string
	probesRun int
	pruned    int
	searchNS  int64 // virtual time the search spent
	proms     []string
}

// diagnoseOp runs the Performance Consultant over one corpus program
// and renders the report. With counts set, it drives the consultant
// through its own factory (what nvmap.Diagnose does inside) so the
// sessions can carry observability planes whose counters it reads.
func diagnoseOp(o *opTrace, cp corpusProgram, counts bool) (res diagResult, err error) {
	var rep *diagnose.Report
	var sessions []*nvmap.Session
	o.span("diagnose.search", func() {
		opts := corpusOptions(cp)
		if !counts {
			rep, err = nvmap.Diagnose(cp.Source, nvmap.DiagnoseConfig{}, opts...)
			return
		}
		opts = append(opts, nvmap.WithObservability())
		rep, err = paradyn.NewConsultant().Diagnose(func() (*paradyn.Tool, func() error, error) {
			s, err := nvmap.NewSession(cp.Source, opts...)
			if err != nil {
				return nil, nil, err
			}
			sessions = append(sessions, s)
			return s.Tool, func() error { _, err := s.Run(); return err }, nil
		})
	})
	if err != nil {
		return res, err
	}
	o.span("diagnose.render", func() { res.text = rep.Text() })
	for _, root := range rep.Roots {
		if root.Confirmed {
			res.confirmed = append(res.confirmed, root.Hypothesis)
		}
	}
	res.probesRun, res.pruned, res.searchNS = rep.ProbesRun, rep.Pruned, int64(rep.SearchVTime)
	for _, s := range sessions {
		var b strings.Builder
		if err = obs.WritePrometheus(&b, s.Observability().Metrics, true); err != nil {
			return res, err
		}
		res.proms = append(res.proms, b.String())
	}
	return res, nil
}

// benchServer is an in-process nvprofd on a loopback port.
type benchServer struct {
	srv    *serve.Server
	http   *http.Server
	done   chan struct{}
	url    string
	client *http.Client
}

// startServer starts the daemon with one run slot per client, so the
// closed loop never queues by construction.
func startServer(clients int) (*benchServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("serve listen: %w", err)
	}
	srv := serve.NewServer(serve.Config{MaxConcurrent: clients})
	b := &benchServer{
		srv:  srv,
		http: &http.Server{Handler: srv.Handler()},
		done: make(chan struct{}),
		url:  "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns: clients, MaxIdleConnsPerHost: clients}},
	}
	go func() {
		defer close(b.done)
		_ = b.http.Serve(ln) // returns ErrServerClosed on stop
	}()
	return b, nil
}

// stop drains the daemon, shuts the listener and waits for the serving
// goroutine.
func (b *benchServer) stop() {
	b.srv.Drain(5 * time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = b.http.Shutdown(ctx)
	b.client.CloseIdleConnections()
	<-b.done
}

// serveCounters is the /v1/stats ledger the checks read.
type serveCounters struct {
	Admitted, Completed, Failed, Cut, Shed, Rejected int64
}

func (b *benchServer) stats() (serveCounters, error) {
	resp, err := b.client.Get(b.url + "/v1/stats")
	if err != nil {
		return serveCounters{}, err
	}
	defer resp.Body.Close()
	var payload struct {
		Counters serve.Counters `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		return serveCounters{}, fmt.Errorf("stats: %w", err)
	}
	c := payload.Counters
	return serveCounters{c.Admitted, c.Completed, c.Failed, c.Cut, c.Shed,
		c.RejectedBusy + c.RejectedQuota + c.RejectedDraining}, nil
}

// serveBody renders the request body of one schedule slot once; the
// clients resend the bytes.
func serveBody(slot serveSlot, p serveProgram) (path string, body []byte, err error) {
	if slot.Class == classDiagnose {
		body, err = json.Marshal(serve.DiagnoseRequest{
			Tenant: "bench", Source: p.Source, Nodes: p.Nodes})
		return "/v1/diagnose", body, err
	}
	body, err = json.Marshal(serve.SessionRequest{
		Tenant: "bench", Source: p.Source, Scenario: p.Class, Seed: p.Seed, Nodes: p.Nodes,
		Metrics:   defaultMetrics,
		Questions: []serve.QuestionSpec{{Label: "q", Text: p.Question}},
	})
	return "/v1/sessions", body, err
}

// serveReply is one response stream, reduced.
type serveReply struct {
	firstEvent time.Time
	queueNS    int64
	serverNS   int64 // done.wall_ns
	virtualNS  int64 // done.elapsed_virtual_ns
	done       bool
	// stable is the stream with its wall-clock fields removed: it must be
	// identical every time the same slot is replayed.
	stable string
}

// serveOp posts one request and reads its NDJSON stream to the end.
func (b *benchServer) serveOp(path string, body []byte) (rep serveReply, err error) {
	resp, err := b.client.Post(b.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return rep, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return rep, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	var stable strings.Builder
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		if rep.firstEvent.IsZero() {
			rep.firstEvent = time.Now()
		}
		var ev serve.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return rep, fmt.Errorf("%s: bad event: %w", path, err)
		}
		switch ev.Event {
		case "admitted":
			rep.queueNS = ev.Admitted.QueueNS
			fmt.Fprintf(&stable, "admitted shed=%d\n", ev.Admitted.ShedLevel)
		case "done":
			rep.done = true
			rep.serverNS, rep.virtualNS = ev.Done.WallNS, ev.Done.ElapsedVirtualNS
			fmt.Fprintf(&stable, "done virtual=%d\n", ev.Done.ElapsedVirtualNS)
		case "error":
			return rep, fmt.Errorf("%s: error event %s: %s", path, ev.Error.Kind, ev.Error.Message)
		default:
			stable.Write(sc.Bytes())
			stable.WriteByte('\n')
		}
	}
	if err := sc.Err(); err != nil {
		return rep, err
	}
	rep.stable = stable.String()
	return rep, nil
}

// serveSpec is the session a serve slot runs inside the daemon, rebuilt
// here so its work counts can be read: the daemon's own sessions are
// out of reach, its composition (scenario plan, unlimited budget,
// filtered monitor) is not.
func serveSpec(p serveProgram) sessionSpec {
	extra := []nvmap.Option{nvmap.WithBudget(nvmap.Budget{})}
	if plan, rc := serve.ScenarioPlan(p.Class, p.Seed, p.Nodes); plan != nil {
		extra = append(extra, nvmap.WithFaults(plan))
		if rc != nil {
			extra = append(extra, nvmap.WithRecovery(*rc))
		}
	}
	return sessionSpec{prog: p.program, metrics: defaultMetrics,
		questions: []string{p.Question}, filter: true, obs: true, extra: extra}
}

// drive is a direct drive of one layer's public verbs: run(n) makes n
// calls; the harness times batches and reports ns (or the named unit)
// per call.
type drive struct {
	name  string
	unit  string
	scale float64 // ns per call -> unit
	batch int
	run   func(n int) error
}

func drives() ([]drive, error) {
	// sas: four questions, eight sentences already active, then one
	// Activate+Deactivate pair per call.
	newSAS := func() (*sas.SAS, error) {
		s := sas.New(sas.Options{})
		for _, q := range []sas.Question{
			sas.Q("q1", sas.T("Sums", "A")),
			sas.Q("q2", sas.T("Sends", sas.Any)),
			sas.Q("q3", sas.T("Sums", "A"), sas.T("Sends", sas.Any)),
			sas.Q("q4", sas.T("Maxvals", sas.Any), sas.T("Sends", sas.Any)),
		} {
			if _, err := s.AddQuestion(q); err != nil {
				return nil, err
			}
		}
		for i := 0; i < 8; i++ {
			s.Activate(nv.NewSentence("Executes", nv.NounID(fmt.Sprintf("line%d", i))), vtime.Time(i))
		}
		return s, nil
	}
	notifySAS, err := newSAS()
	if err != nil {
		return nil, err
	}
	eventSAS, err := newSAS()
	if err != nil {
		return nil, err
	}
	sums := nv.NewSentence("Sums", "A")
	sends := nv.NewSentence("Sends", "Processor_1")
	eventSAS.Activate(sums, 8)
	var clock vtime.Time = 16

	inst := dyninst.NewManager(dyninst.DefaultCosts(), nil)
	fired := 0
	point := dyninst.Entry("CMRTS_compute")
	inst.Insert(point, dyninst.Snippet{Name: "count", Do: func(dyninst.Context) { fired++ }})

	ch := daemon.NewChannel()

	flat, err := machine.New(machine.DefaultConfig(16))
	if err != nil {
		return nil, err
	}
	topoCfg := machine.DefaultConfig(16)
	topo := machine.Topology{GridX: 4, GridY: 4, Torus: true, LinkHop: vtime.Microsecond}
	topoCfg.Topology = &topo
	routed, err := machine.New(topoCfg)
	if err != nil {
		return nil, err
	}

	table := mapping.NewTable()
	var measured []mapping.Measurement
	for i := 0; i < 64; i++ {
		src := nv.NewSentence("CPU", nv.NounID(fmt.Sprintf("F%d", i)))
		dst := nv.NewSentence("Executes", nv.NounID(fmt.Sprintf("L%d", i%16)))
		if err := table.Add(mapping.Def{Source: src, Destination: dst}); err != nil {
			return nil, err
		}
		measured = append(measured, mapping.Measurement{Sentence: src, Cost: nv.Cost{Kind: nv.CostCount, Value: 1}})
	}

	const placeN = 64
	placeTopo := &machine.Topology{GridX: 8, GridY: 8, Torus: true}
	traffic := make([][]int64, placeN)
	for i := range traffic {
		traffic[i] = make([]int64, placeN)
		traffic[i][(i+placeN/2)%placeN] = 256
		traffic[i][(i+1)%placeN] = 64
	}

	return []drive{
		{name: "sas.notify_ns", unit: "ns", scale: 1, batch: 20000, run: func(n int) error {
			for i := 0; i < n; i++ {
				clock += 2
				notifySAS.Activate(sums, clock)
				if err := notifySAS.Deactivate(sums, clock+1); err != nil {
					return err
				}
			}
			return nil
		}},
		{name: "sas.event_ns", unit: "ns", scale: 1, batch: 20000, run: func(n int) error {
			for i := 0; i < n; i++ {
				clock++
				eventSAS.RecordEvent(sends, clock, 1)
			}
			return nil
		}},
		{name: "nv.new_sentence_ns", unit: "ns", scale: 1, batch: 20000, run: func(n int) error {
			for i := 0; i < n; i++ {
				if s := nv.NewSentence("Sends", "Processor_1"); s.Verb == "" {
					return fmt.Errorf("nv.NewSentence returned an empty sentence")
				}
			}
			return nil
		}},
		{name: "dyninst.fire_ns", unit: "ns", scale: 1, batch: 50000, run: func(n int) error {
			before := fired
			for i := 0; i < n; i++ {
				inst.Fire(point, dyninst.Context{Node: i & 7, Now: vtime.Time(i)})
			}
			if fired-before != n {
				return fmt.Errorf("dyninst: %d fires for %d calls", fired-before, n)
			}
			return nil
		}},
		{name: "daemon.send_drain_ns", unit: "ns", scale: 1, batch: 20000, run: func(n int) error {
			got := 0
			for i := 0; i < n; i += 16 {
				for k := 0; k < 16; k++ {
					ch.Send(daemon.Message{Kind: daemon.KindSample, At: vtime.Time(i + k)})
				}
				d, err := ch.Drain(func(daemon.Message) error { return nil })
				if err != nil {
					return err
				}
				got += d
			}
			if want := (n + 15) / 16 * 16; got != want {
				return fmt.Errorf("daemon: drained %d of %d", got, want)
			}
			return nil
		}},
		{name: "machine.send_flat_ns", unit: "ns", scale: 1, batch: 20000, run: func(n int) error {
			for i := 0; i < n; i++ {
				flat.Send(i%16, (i+7)%16, 64, "bench")
			}
			return nil
		}},
		{name: "machine.send_topo_ns", unit: "ns", scale: 1, batch: 20000, run: func(n int) error {
			for i := 0; i < n; i++ {
				routed.Send(i%16, (i+7)%16, 64, "bench")
			}
			return nil
		}},
		{name: "mapping.assign_us", unit: "us", scale: 1e-3, batch: 200, run: func(n int) error {
			for i := 0; i < n; i++ {
				assigned, _, err := mapping.Assign(table, measured, mapping.Merge, mapping.AggSum)
				if err != nil {
					return err
				}
				if len(assigned) == 0 {
					return fmt.Errorf("mapping.Assign assigned nothing")
				}
			}
			return nil
		}},
		{name: "place.greedy_ms", unit: "ms", scale: 1e-6, batch: 4, run: func(n int) error {
			for i := 0; i < n; i++ {
				if p := place.Greedy(placeN, placeTopo, traffic); len(p) != placeN {
					return fmt.Errorf("place.Greedy placed %d of %d", len(p), placeN)
				}
			}
			return nil
		}},
	}, nil
}
