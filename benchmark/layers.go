package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// layerMetric declares one row of the per-layer table. The names are
// fixed: later issues cite them verbatim.
type layerMetric struct {
	name, unit, better string
}

func rows(unit, better string, names ...string) []layerMetric {
	out := make([]layerMetric, len(names))
	for i, n := range names {
		out[i] = layerMetric{n, unit, better}
	}
	return out
}

// layerMetrics is the per-layer table in report order (88 rows).
var layerMetrics = func() []layerMetric {
	var t []layerMetric
	add := func(rs []layerMetric) { t = append(t, rs...) }
	// Phase spans: self time per op.
	add(rows("ms", "lower",
		"cmf.compile_ms", "pifgen.from_listing_ms", "pif.write_parse_ms", "session.build_rest_ms",
		"paradyn.render_ms", "paradyn.enable_ms", "sas.ask_ms", "paradyn.sample_all_ms",
		"session.answer_ms", "session.run_ms",
		"diagnose.search_ms", "diagnose.render_ms",
		"diagnose.hotspot_ms", "diagnose.straggler_ms", "diagnose.chain_ms", "diagnose.lossy_ms", "diagnose.congested_ms",
		"serve.first_event_ms", "serve.server_run_ms", "serve.queue_ms", "serve.overhead_ms",
		"serve.plain_p50_ms", "serve.faulty_p50_ms", "serve.parallel_p50_ms", "serve.crashy_p50_ms", "serve.diagnose_p50_ms",
		"bench.unattributed_ms"))
	add(rows("ratio", "lower", "bench.trace_overhead_ratio"))
	// Ablation ladder on Session.Run.
	add(rows("ms", "lower", "run.bare_ms", "run.metrics_marginal_ms", "run.mapping_marginal_ms", "run.questions_marginal_ms"))
	add(rows("ratio", "lower", "run.measure_share"))
	add(rows("ms", "lower", "obs.marginal_ms"))
	add(rows("ratio", "lower", "obs.overhead_ratio"))
	add(rows("ratio", "higher", "par.speedup"))
	// Work counts per op, from the obs registry export.
	add(rows("count", "lower",
		"machine.compute_ops", "machine.sends", "machine.send_bytes", "machine.dispatches",
		"machine.parallel_regions", "machine.net_link_hops",
		"dyninst.inserted", "dyninst.fires", "dyninst.suppressed"))
	add(rows("ratio", "lower", "dyninst.perturbation_ratio"))
	add(rows("count", "lower",
		"daemon.sent", "daemon.delivered", "daemon.batches", "daemon.queue_max", "daemon.dropped", "daemon.retried",
		"sas.notifications", "sas.ignored", "sas.stored", "sas.evaluations", "sas.events",
		"sas.candidates_scanned", "sas.matches_evaluated"))
	add(rows("ratio", "higher", "sas.stored_ratio"))
	add(rows("count", "lower",
		"nv.intern_sentences",
		"checkpoint.saves", "checkpoint.restores", "checkpoint.bytes",
		"fault.messages_dropped", "fault.node_crashes",
		"diagnose.probes_run", "diagnose.probes_pruned"))
	add(rows("us", "lower", "diagnose.search_virtual_us"))
	add(rows("count", "higher", "serve.admitted", "serve.completed"))
	add(rows("count", "lower", "serve.failed", "serve.cut", "serve.shed", "serve.rejected"))
	// Unit costs: a time divided by the count that multiplies it.
	add(rows("ns", "lower", "run.ns_per_machine_event", "cmrts.ns_per_elem", "run.ns_per_fire", "run.ns_per_notification"))
	// Direct drives of a layer's public verbs.
	add(rows("ns", "lower", "sas.notify_ns", "sas.event_ns", "nv.new_sentence_ns", "dyninst.fire_ns",
		"daemon.send_drain_ns", "machine.send_flat_ns", "machine.send_topo_ns"))
	add(rows("us", "lower", "mapping.assign_us"))
	add(rows("ms", "lower", "place.greedy_ms"))
	return t
}()

// countSeries maps a work-count row to the obs series it is read from.
var countSeries = map[string]string{
	"machine.compute_ops":      "nvmap_machine_compute_ops_total",
	"machine.sends":            "nvmap_machine_sends_total",
	"machine.send_bytes":       "nvmap_machine_send_bytes_total",
	"machine.dispatches":       "nvmap_machine_dispatches_total",
	"machine.parallel_regions": "nvmap_machine_parallel_regions",
	"machine.net_link_hops":    "nvmap_machine_net_link_hops_total",
	"dyninst.inserted":         "nvmap_dyninst_inserted_total",
	"dyninst.fires":            "nvmap_dyninst_fires_total",
	"dyninst.suppressed":       "nvmap_dyninst_suppressed_total",
	"daemon.sent":              "nvmap_daemon_sent_total",
	"daemon.delivered":         "nvmap_daemon_delivered_total",
	"daemon.batches":           "nvmap_daemon_batches_flushed_total",
	"daemon.dropped":           "nvmap_daemon_dropped_total",
	"daemon.retried":           "nvmap_daemon_retried_total",
	"sas.notifications":        "nvmap_sas_notifications_total",
	"sas.ignored":              "nvmap_sas_ignored_total",
	"sas.stored":               "nvmap_sas_stored_total",
	"sas.evaluations":          "nvmap_sas_evaluations_total",
	"sas.events":               "nvmap_sas_events_total",
	"sas.candidates_scanned":   "nvmap_sas_candidates_scanned_total",
	"sas.matches_evaluated":    "nvmap_sas_matches_evaluated_total",
	"checkpoint.saves":         "nvmap_checkpoint_saves_total",
	"checkpoint.restores":      "nvmap_checkpoint_restores_total",
	"checkpoint.bytes":         "nvmap_checkpoint_bytes",
	"fault.messages_dropped":   "nvmap_fault_messages_dropped_total",
	"fault.node_crashes":       "nvmap_fault_node_crashes_total",
}

// layerValues holds measured rows; a row never set prints as null (and
// as 0 in the machine-readable line, which carries numbers only).
type layerValues map[string]float64

func medianNS(xs []int64) float64 {
	return float64(percentile(sortedCopy(xs), 0.5))
}

// traced is the per-layer pass: spans around every call into a layer
// (alternating with untraced blocks, whose difference is the tracing
// overhead), work counts from an observability-on replay, the ablation
// ladder, the GOMAXPROCS=1 pass and the direct drives.
func traced(r *runner, opt runOptions) (layerValues, []string, error) {
	v := layerValues{}
	var notes []string
	inst, _, rate, err := r.setUp(false, opt.warm(r.w))
	if err != nil {
		return nil, nil, err
	}

	// --- spans ---------------------------------------------------------
	// Shares of the run: spans, then 10% on one host thread, then the
	// ladder where there is one.
	spanShare, ladderShare := 0.75, 0.30
	if inst.ladder != nil {
		spanShare = 0.45
	}
	total := opt.ops(rate, spanShare, inst.cycle)
	block := wholeCycles(total/8, inst.cycle)
	tr := newTracer()
	var plain, withSpans []int64
	byClass := map[string][]int64{}
	var firstNS, firstN float64
	var probeCompile, probePifgen []float64
	tracedOps := 0
	for done := 0; done < total || tracedOps == 0; done += 2 * block {
		up := r.run(inst, nil, block)
		plain = append(plain, up.lat...)
		for i, o := range up.outs {
			if up.ok[i] && o.class != "" {
				byClass[o.class] = append(byClass[o.class], up.lat[i])
			}
			if up.ok[i] && o.firstNS > 0 {
				firstNS += float64(o.firstNS)
				firstN++
			}
		}
		tp := r.run(inst, tr, block)
		withSpans = append(withSpans, tp.lat...)
		tracedOps += block
		if inst.probeSrc != "" {
			for k := 0; k < (block+3)/4; k++ {
				c, p, err := frontEndProbe(inst.probeSrc, "probe.fcm")
				if err != nil {
					r.fail(err)
					break
				}
				probeCompile, probePifgen = append(probeCompile, float64(c)), append(probePifgen, float64(p))
			}
		}
	}
	self, tot := selfTimes(tr.spans), totalTimes(tr.spans)
	perOp := func(ns int64) float64 { return float64(ns) * msPerNS / float64(tracedOps) }
	for name, spanName := range map[string]string{
		"pif.write_parse_ms":    "pif.write_parse",
		"paradyn.render_ms":     "paradyn.render",
		"paradyn.enable_ms":     "paradyn.enable",
		"sas.ask_ms":            "sas.ask",
		"paradyn.sample_all_ms": "paradyn.sample_all",
		"session.answer_ms":     "session.answer",
		"session.run_ms":        "session.run",
		"diagnose.search_ms":    "diagnose.search",
		"diagnose.render_ms":    "diagnose.render",
		"serve.server_run_ms":   "serve.server_run",
		"serve.queue_ms":        "serve.queue",
		"serve.overhead_ms":     "serve.round_trip",
	} {
		if ns, ok := self[spanName]; ok {
			v[name] = perOp(ns)
		}
	}
	for _, name := range []string{"hotspot", "straggler", "chain", "lossy", "congested"} {
		if ns, ok := tot["diagnose."+name]; ok {
			v["diagnose."+name+"_ms"] = perOp(ns)
		}
	}
	if ns, ok := self["session.new"]; ok {
		// On a compile-memo miss NewSession contains the compile and the
		// listing scrape; the probes time those two alone.
		rest := perOp(ns)
		if len(probeCompile) > 0 {
			v["cmf.compile_ms"] = mean(probeCompile) * msPerNS
			v["pifgen.from_listing_ms"] = mean(probePifgen) * msPerNS
			rest -= v["cmf.compile_ms"] + v["pifgen.from_listing_ms"]
		}
		v["session.build_rest_ms"] = rest
	}
	if firstN > 0 {
		v["serve.first_event_ms"] = firstNS / firstN * msPerNS
	}
	for class, lat := range byClass {
		v["serve."+class+"_p50_ms"] = medianNS(lat) * msPerNS
	}
	v["bench.unattributed_ms"] = perOp(self[rootSpan])
	p50 := medianNS(plain)
	v["bench.trace_overhead_ratio"] = medianNS(withSpans) / p50
	opMS := medianNS(withSpans) * msPerNS
	if share := v["bench.unattributed_ms"] / (float64(tot[rootSpan]) * msPerNS / float64(tracedOps)); share > 0.10 {
		notes = append(notes, fmt.Sprintf("FLAG bench.unattributed_ms is %.1f%% of the traced op (limit 10%%)", 100*share))
	}
	if v["bench.trace_overhead_ratio"] > 1.05 {
		notes = append(notes, fmt.Sprintf("FLAG bench.trace_overhead_ratio %.3f exceeds 1.05", v["bench.trace_overhead_ratio"]))
	}
	notes = append(notes, fmt.Sprintf("traced %d ops (median %.3f ms) against %d untraced (median %.3f ms)",
		tracedOps, opMS, len(plain), p50*msPerNS))

	if inst.srv != nil {
		st, err := inst.srv.stats()
		if err != nil {
			r.fail(err)
		} else if seen := float64(st.Admitted + st.Rejected); seen > 0 {
			v["serve.admitted"] = float64(st.Admitted) / seen
			v["serve.completed"] = float64(st.Completed) / seen
			v["serve.failed"] = float64(st.Failed) / seen
			v["serve.cut"] = float64(st.Cut) / seen
			v["serve.shed"] = float64(st.Shed) / seen
			v["serve.rejected"] = float64(st.Rejected) / seen
		}
	}

	// --- GOMAXPROCS=1 --------------------------------------------------
	// The same ops on one host thread: their outputs must digest the
	// same, and the ratio says whether the parallel engine pays.
	if inst.clients == 1 {
		prev := runtime.GOMAXPROCS(1)
		n := opt.ops(rate, 0.10, inst.cycle)
		if n < 3 {
			n = 3
		}
		sp := r.run(inst, nil, n)
		runtime.GOMAXPROCS(prev)
		v["par.speedup"] = medianNS(sp.lat) / p50
	}

	// --- ablation ladder -----------------------------------------------
	var bareNS, metricsNS, mappingNS, questionsNS float64
	if inst.ladder != nil {
		full := *inst.ladder
		bare := sessionSpec{prog: full.prog}
		withMetrics := bare
		withMetrics.metrics, withMetrics.allMetrics = full.metrics, full.allMetrics
		withMapping := withMetrics
		withMapping.mapping = full.mapping
		withObs := full
		withObs.obs = true
		rungs := []sessionSpec{bare, withMetrics, withMapping, full, withObs}
		rounds := opt.ops(rate, ladderShare, 1) / len(rungs)
		if rounds < 3 {
			rounds = 3
		}
		runNS := make([][]int64, len(rungs))
		// Round-robin, so drift in host speed lands on every rung alike.
		for k := 0; k < rounds; k++ {
			for i, spec := range rungs {
				res, err := sessionOp(nil, spec)
				if err == nil {
					err = checkSession(spec.prog, res)
				}
				r.attempted++
				if err != nil {
					r.fail(fmt.Errorf("ladder rung %d: %w", i, err))
					continue
				}
				runNS[i] = append(runNS[i], res.runNS)
			}
		}
		med := func(i int) float64 { return medianNS(runNS[i]) }
		bareNS, metricsNS, mappingNS, questionsNS = med(0), med(1)-med(0), med(2)-med(1), med(3)-med(2)
		v["run.bare_ms"] = bareNS * msPerNS
		v["run.metrics_marginal_ms"] = metricsNS * msPerNS
		v["run.mapping_marginal_ms"] = mappingNS * msPerNS
		v["run.questions_marginal_ms"] = questionsNS * msPerNS
		v["run.measure_share"] = (med(3) - med(0)) / med(3)
		v["obs.marginal_ms"] = (med(4) - med(3)) * msPerNS
		v["obs.overhead_ratio"] = med(4) / med(3)
	}

	// --- work counts -----------------------------------------------------
	if err := inst.close(); err != nil {
		r.fail(err)
	}
	cinst, err := r.w.build(r.seed, true)
	if err != nil {
		return nil, nil, err
	}
	warmCycle := r.run(cinst, nil, cinst.cycle)
	counted := r.run(cinst, nil, cinst.cycle)
	if err := cinst.close(); err != nil {
		r.fail(err)
	}
	set, err := seriesOf(counted)
	if err != nil {
		return nil, nil, err
	}
	before, err := seriesOf(warmCycle)
	if err != nil {
		return nil, nil, err
	}
	ops := float64(cinst.cycle)
	for name, series := range countSeries {
		if total, ok := set.sum(series); ok {
			v[name] = total / ops
		}
	}
	if q, ok := set.max("nvmap_daemon_queue_max"); ok {
		v["daemon.queue_max"] = q
	}
	if a, ok := set.max("nvmap_intern_sentences"); ok {
		// The intern table is process-wide: its growth over one cycle is
		// the sentences that cycle added.
		b, _ := before.max("nvmap_intern_sentences")
		v["nv.intern_sentences"] = (a - b) / ops
	}
	if n, ok := v["sas.notifications"]; ok && n > 0 {
		v["sas.stored_ratio"] = v["sas.stored"] / n
	}
	if p, ok := set.sum("nvmap_dyninst_perturbation_vtime_ns"); ok {
		busy, _ := set.sum("nvmap_machine_compute_vtime_ns")
		idle, _ := set.sum("nvmap_machine_idle_vtime_ns")
		if busy+idle > 0 {
			v["dyninst.perturbation_ratio"] = p / (busy + idle)
		}
	}
	// A diagnosis op's simulated time is the time its searches spent.
	var probes, pruned, searchNS float64
	for _, o := range counted.outs {
		probes, pruned, searchNS = probes+float64(o.probesRun), pruned+float64(o.pruned), searchNS+float64(o.virtualNS)
	}
	if probes > 0 {
		v["diagnose.probes_run"] = probes / ops
		v["diagnose.probes_pruned"] = pruned / ops
		v["diagnose.search_virtual_us"] = searchNS / ops / 1e3
	}

	// Unit costs: the ladder's times over the counts that multiply them.
	if inst.ladder != nil {
		if events := v["machine.dispatches"] + 2*v["machine.sends"]; events > 0 {
			// A send is two machine events (send and receive).
			v["run.ns_per_machine_event"] = bareNS / events
		}
		if elems := v["machine.compute_ops"]; elems > 0 {
			v["cmrts.ns_per_elem"] = bareNS / elems
		}
		if fires := v["dyninst.fires"]; fires > 0 {
			v["run.ns_per_fire"] = metricsNS / fires
		}
		if n := v["sas.notifications"]; n > 0 {
			v["run.ns_per_notification"] = (mappingNS + questionsNS) / n
		}
	}

	// --- direct drives ---------------------------------------------------
	ds, err := drives()
	if err != nil {
		return nil, nil, err
	}
	for _, d := range ds {
		batch := d.batch
		if opt.smoke {
			batch = max(1, batch/100)
		}
		var per []float64
		for k := 0; k < 5; k++ {
			t0 := time.Now()
			err := d.run(batch)
			r.attempted++
			if err != nil {
				r.fail(fmt.Errorf("%s: %w", d.name, err))
				break
			}
			per = append(per, float64(time.Since(t0))/float64(batch)*d.scale)
		}
		if len(per) > 0 {
			v[d.name] = median(per)
		}
	}
	// Interaction rule: the SAS unit cost times the notification count
	// should reproduce the ladder's SAS rungs. sas.notify_ns is one
	// Activate+Deactivate pair, i.e. two notifications.
	if n, marginal := v["sas.notifications"], mappingNS+questionsNS; inst.ladder != nil && n > 0 && marginal > 0 {
		predicted := v["sas.notify_ns"] / 2 * n
		if ratio := predicted / marginal; math.Abs(ratio-1) > 0.25 {
			notes = append(notes, fmt.Sprintf(
				"FLAG sas.notify_ns/2 x sas.notifications = %.3f ms, ladder's mapping+questions rungs = %.3f ms (ratio %.2f, outside 25%%)",
				predicted*msPerNS, marginal*msPerNS, ratio))
		}
	}

	if opt.outDir != "" {
		if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
			return nil, nil, err
		}
		path := filepath.Join(opt.outDir, "trace-"+r.w.name+".json")
		if err := tr.writeChrome(path); err != nil {
			return nil, nil, err
		}
		notes = append(notes, "trace written to "+path)
	}
	return v, notes, nil
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// seriesOf parses every Prometheus export the ops of a pass produced.
func seriesOf(p pass) (seriesSet, error) {
	var set seriesSet
	for _, o := range p.outs {
		for _, text := range o.proms {
			m, err := parseProm(text)
			if err != nil {
				return nil, err
			}
			set = append(set, m)
		}
	}
	return set, nil
}

// printLayers prints the per-layer table; rows never measured on this
// workload print null.
func printLayers(v layerValues, notes []string) {
	for _, m := range layerMetrics {
		if val, ok := v[m.name]; ok {
			fmt.Printf("  %-30s %14.4f %s\n", m.name, val, m.unit)
		} else {
			fmt.Printf("  %-30s %14s %s\n", m.name, "null", m.unit)
		}
	}
	for _, n := range notes {
		fmt.Println("  note:", n)
	}
}
