package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"
)

// workload is one set of inputs the benchmark runs. BENCHMARK.json
// carries the same names and reasons.
type workload struct {
	name string
	why  string
	// warmOps ops run before timing starts and belong to setup_s.
	warmOps int
	// build generates the inputs from the seed and starts whatever the
	// ops need. counts selects the observability-on variant whose ops
	// also export the obs registry.
	build func(seed int64, counts bool) (*instance, error)
}

// instance is a workload ready to run ops.
type instance struct {
	// op runs op number i (numbers never repeat within a process) and
	// checks its known answers; any error counts the op as failed.
	op func(o *opTrace, i int) (outcome, error)
	// cycle is the number of consecutive ops that make one whole pass
	// over the inputs; op counts are rounded to whole cycles.
	cycle   int
	clients int
	// finish checks invariants over everything run so far (the serve
	// ledger) and releases resources.
	finish func() error
	// ladder, when set, is the op's session spec for the ablation ladder.
	ladder *sessionSpec
	// probeSrc, when set, is the program every op compiles afresh (a
	// compile-memo miss): the traced pass times its front-end stages
	// directly.
	probeSrc string
	srv      *benchServer
}

// outcome is what one op reports besides its latency.
type outcome struct {
	virtualNS int64
	class     string // serve request class
	firstNS   int64  // serve: time to first event
	proms     []string
	probesRun int // diagnose_corpus: the reports' probe counts
	pruned    int
}

func digestOf(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// digests remembers the first digest seen per key and fails any op
// that later disagrees — across ops, passes and GOMAXPROCS settings.
type digests struct {
	mu   sync.Mutex
	seen map[string]string
}

func (d *digests) check(key, digest string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.seen == nil {
		d.seen = map[string]string{}
	}
	if first, ok := d.seen[key]; !ok {
		d.seen[key] = digest
	} else if first != digest {
		return fmt.Errorf("output digest of %s changed: %s, first seen %s", key, digest, first)
	}
	return nil
}

// checkSession applies the known answers every session op carries: the
// closed-form SUM printed by PRINT and the summations metric equal to
// the generated reduction count.
func checkSession(p program, res sessionResult) error {
	if p.WantPrint != "" && res.printed != p.WantPrint {
		return fmt.Errorf("%s: PRINT %q, closed form %q", p.File, res.printed, p.WantPrint)
	}
	if got, ok := res.values["summations"]; ok && got != float64(p.Summations) {
		return fmt.Errorf("%s: summations = %v, program executes %d", p.File, got, p.Summations)
	}
	return nil
}

func sessionOutcome(res sessionResult) outcome {
	out := outcome{virtualNS: res.virtualNS}
	if res.prom != "" {
		out.proms = []string{res.prom}
	}
	return out
}

func serveClients() int {
	if n := runtime.GOMAXPROCS(0); n < 4 {
		return n
	}
	return 4
}

var workloads = []workload{
	{
		name:    "frontend_cold",
		why:     "nvprof -pif -where -levels session over 400 generated statements, a new source name per op so the compile memo always misses: the one workload where cmf, pifgen, pif and session build dominate",
		warmOps: 24,
		build: func(seed int64, counts bool) (*instance, error) {
			p := flatProgram(newRNG(seed, "frontend_cold"), "fc.fcm", 2, 8, 64, 400)
			spec := sessionSpec{prog: p, metrics: defaultMetrics, mapping: true,
				showPIF: true, showWhere: true, showLevels: true, obs: counts}
			var dg digests
			return &instance{cycle: 1, clients: 1, probeSrc: p.Source,
				op: func(o *opTrace, i int) (outcome, error) {
					s := spec
					// Same length for every op, so the name changes the memo
					// key and nothing else.
					s.file = fmt.Sprintf("fc%07d.fcm", i)
					res, err := sessionOp(o, s)
					if err != nil {
						return outcome{}, err
					}
					if err := checkSession(p, res); err != nil {
						return outcome{}, err
					}
					out := sessionOutcome(res)
					text := strings.ReplaceAll(res.rendered, s.file, "FILE")
					return out, dg.check(p.File, digestOf(res.printed, text, fmt.Sprint(res.virtualNS)))
				}}, nil
		},
	},
	{
		name:    "events_hot",
		why:     "fully instrumented session: 32 nodes, 40 iterations, all 31 metrics, mapping+gating, 4 SAS questions; the measurement plane (dyninst, sas, nv, daemon, paradyn) is most of Session.Run",
		warmOps: 6,
		build: func(seed int64, counts bool) (*instance, error) {
			return loopInstance(seed, counts, "events_hot", 32, 4, 40, true)
		},
	},
	{
		name:    "data_hot",
		why:     "lightly instrumented session over 16k-element arrays on 8 nodes: cmrts, machine and the executor are ~90% of the run, so it bypasses every measurement-plane change; where par regions engage",
		warmOps: 8,
		build: func(seed int64, counts bool) (*instance, error) {
			return loopInstance(seed, counts, "data_hot", 8, 2048, 24, false)
		},
	},
	{
		name:    "diagnose_corpus",
		why:     "one round of Diagnose+Text over five planted-cause programs: many short replays with a warm compile memo, plus fault plans, routing and the consultant search; each must confirm its planted cause",
		warmOps: 12,
		build: func(seed int64, counts bool) (*instance, error) {
			progs := corpus(newRNG(seed, "diagnose_corpus"))
			var dg digests
			return &instance{cycle: 1, clients: 1,
				op: func(o *opTrace, i int) (outcome, error) {
					var out outcome
					var texts []string
					for _, cp := range progs {
						var res diagResult
						var err error
						o.span("diagnose."+cp.Name, func() { res, err = diagnoseOp(o, cp, counts) })
						if err != nil {
							return out, fmt.Errorf("%s: %w", cp.Name, err)
						}
						// Known answer: exactly the planted hypothesis confirms.
						if len(res.confirmed) != 1 || res.confirmed[0] != cp.Planted {
							return out, fmt.Errorf("%s: confirmed %v, planted %s", cp.Name, res.confirmed, cp.Planted)
						}
						out.virtualNS += res.searchNS
						out.probesRun += res.probesRun
						out.pruned += res.pruned
						out.proms = append(out.proms, res.proms...)
						texts = append(texts, res.text)
					}
					return out, dg.check("round", digestOf(texts...))
				}}, nil
		},
	},
	{
		name:    "serve_closed",
		why:     "closed loop of min(nproc,4) clients posting a seeded 100-slot mix (60 plain, 15 faulty, 15 parallel, 8 crashy, 2 diagnose) to an in-process nvprofd: admission, NDJSON, shared interner and memo",
		warmOps: 300,
		build:   buildServe,
	},
}

// loopInstance builds the shared shape of events_hot and data_hot.
func loopInstance(seed int64, counts bool, name string, nodes, chunk, iters int, hot bool) (*instance, error) {
	p := loopProgram(newRNG(seed, name), name+".fcm", nodes, chunk, iters)
	spec := sessionSpec{prog: p, metrics: defaultMetrics, obs: counts}
	if hot {
		spec.metrics, spec.allMetrics, spec.mapping = nil, true, true
		check := p.Arrays[3]
		spec.questions = []string{
			fmt.Sprintf("{%s Sums}", check),
			"{Processor_1 Sends}",
			fmt.Sprintf("{%s Sums}, {? Sends}", check),
			"{? Maxvals}, {? Sends}",
		}
	}
	var dg digests
	ladder := spec
	ladder.obs = false
	return &instance{cycle: 1, clients: 1, ladder: &ladder,
		op: func(o *opTrace, i int) (outcome, error) {
			res, err := sessionOp(o, spec)
			if err != nil {
				return outcome{}, err
			}
			if err := checkSession(p, res); err != nil {
				return outcome{}, err
			}
			// Question counts are part of the digest: identical across ops.
			return sessionOutcome(res), dg.check(p.File,
				digestOf(res.printed, res.rendered, fmt.Sprint(res.counts), fmt.Sprint(res.virtualNS)))
		}}, nil
}

// buildServe starts the daemon and lays out the request schedule. With
// counts set, ops are the same sessions run directly with observability
// on (see serveSpec); the daemon is not started.
func buildServe(seed int64, counts bool) (*instance, error) {
	r := newRNG(seed, "serve_closed")
	progs := servePrograms(r)
	slots := serveSchedule(r, progs)
	if counts {
		return &instance{cycle: len(slots), clients: 1,
			op: func(o *opTrace, i int) (outcome, error) {
				slot := slots[i%len(slots)]
				if slot.Class == classDiagnose {
					// A diagnosis is many sessions the daemon builds itself; its
					// work is counted on diagnose_corpus, not here.
					return outcome{class: slot.Class}, nil
				}
				res, err := sessionOp(o, serveSpec(progs[slot.Program]))
				if err != nil {
					return outcome{}, err
				}
				out := sessionOutcome(res)
				out.class = slot.Class
				return out, nil
			}}, nil
	}

	type request struct {
		path string
		body []byte
	}
	reqs := make([]request, len(slots))
	for i, slot := range slots {
		path, body, err := serveBody(slot, progs[slot.Program])
		if err != nil {
			return nil, err
		}
		reqs[i] = request{path, body}
	}
	clients := serveClients()
	srv, err := startServer(clients)
	if err != nil {
		return nil, err
	}
	var dg digests
	return &instance{cycle: len(slots), clients: clients, srv: srv,
		op: func(o *opTrace, i int) (outcome, error) {
			k := i % len(slots)
			slot := slots[k]
			var rep serveReply
			var err error
			start := time.Now()
			o.span("serve.round_trip", func() {
				rep, err = srv.serveOp(reqs[k].path, reqs[k].body)
				if err == nil {
					end := time.Now()
					o.record("serve.server_run", end.Add(-time.Duration(rep.serverNS)), end)
					o.record("serve.queue", start, start.Add(time.Duration(rep.queueNS)))
				}
			})
			if err != nil {
				return outcome{}, err
			}
			// Known answer: every stream ends in done.
			if !rep.done {
				return outcome{}, fmt.Errorf("slot %d (%s): stream ended without done", k, slot.Class)
			}
			return outcome{virtualNS: rep.virtualNS, class: slot.Class,
					firstNS: int64(rep.firstEvent.Sub(start))},
				dg.check(fmt.Sprintf("slot%d", k), digestOf(rep.stable))
		},
		finish: func() error {
			st, err := srv.stats()
			srv.stop()
			if err != nil {
				return err
			}
			// Known answers: the ledger conserves and nothing was refused.
			if st.Admitted != st.Completed+st.Failed {
				return fmt.Errorf("serve ledger: admitted %d != completed %d + failed %d", st.Admitted, st.Completed, st.Failed)
			}
			if st.Rejected != 0 || st.Shed != 0 || st.Failed != 0 {
				return fmt.Errorf("serve ledger: rejected %d, shed %d, failed %d; closed loop must see none", st.Rejected, st.Shed, st.Failed)
			}
			return nil
		}}, nil
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
