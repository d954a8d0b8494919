// Command nvprof runs a mini CM Fortran program on the simulated CM-5
// partition under the Paradyn-like measurement tool and reports the
// requested metrics, the where axis, and (optionally) the Performance
// Consultant's findings.
//
// Usage:
//
//	nvprof [flags] program.fcm
//
//	-nodes N        partition size (default 8)
//	-fuse           fuse adjacent elementwise statements
//	-metrics a,b,c  metric IDs to enable (default a useful set; "all" = every metric)
//	-focus PATH     constrain metrics to a where-axis resource
//	                (e.g. Machine/node2, CMFarrays/A, CMFstmts/line7)
//	-where          print the where axis after the run
//	-plot           print a time plot per metric
//	-consultant     run the Performance Consultant
//	-diag-budget N  consultant probe budget (hypothesis x focus evaluations)
//	-diag-threshold F  override every hypothesis confirmation threshold
//	-diag-json      print the diagnosis report as JSON instead of text
//	-diag-trace F   write the diagnosis search as a Chrome trace overlay to F
//	-question Q     register a SAS performance question in the paper's
//	                notation (repeatable), e.g. "{A Sums}, {Processor_1 Sends}"
//	-timeline       print a per-node execution timeline
//	-pif            print the generated static mapping information
//	-levels         print the session's abstraction levels after the run
//	-list           list available metrics and exit
//
// Observability subcommands (see obscmd.go):
//
//	nvprof trace [flags] program.fcm    export a Chrome trace_event JSON
//	                                    timeline (Perfetto-loadable)
//	nvprof metrics [flags] program.fcm  export the metrics registry in
//	                                    Prometheus text format
//	nvprof serve [flags] program.fcm    run, then serve the live debug
//	                                    handler over HTTP
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"nvmap"
	"nvmap/internal/diagnose"
	"nvmap/internal/mdl"
	"nvmap/internal/paradyn"
	"nvmap/internal/trace"
)

func main() {
	// Observability subcommands run the program under the
	// self-observability plane and export its view; every other
	// invocation is the classic flag interface below.
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "trace", "metrics", "serve":
			os.Exit(obsCommand(os.Args[1], os.Args[2:]))
		}
	}
	var (
		nodes      = flag.Int("nodes", 8, "partition size")
		fuse       = flag.Bool("fuse", false, "fuse adjacent elementwise statements")
		metricsArg = flag.String("metrics", "summations,summation_time,point_to_point_ops,idle_time", "comma-separated metric IDs, or 'all'")
		focusArg   = flag.String("focus", "", "where-axis resource to constrain to")
		showWhere  = flag.Bool("where", false, "print the where axis")
		plot       = flag.Bool("plot", false, "print time plots")
		consult    = flag.Bool("consultant", false, "run the Performance Consultant")
		showPIF    = flag.Bool("pif", false, "print the generated PIF")
		timeline   = flag.Bool("timeline", false, "print a per-node execution timeline")
		list       = flag.Bool("list", false, "list available metrics and exit")
		showLevels = flag.Bool("levels", false, "print the session's abstraction levels after the run")
	)
	var diag diagOptions
	flag.IntVar(&diag.budget, "diag-budget", diagnose.DefaultBudget,
		"consultant probe budget: max hypothesis x focus evaluations")
	flag.Float64Var(&diag.threshold, "diag-threshold", 0,
		"override every hypothesis confirmation threshold (0 = per-hypothesis defaults)")
	flag.BoolVar(&diag.jsonOut, "diag-json", false, "print the diagnosis report as JSON")
	flag.StringVar(&diag.traceFile, "diag-trace", "", "write the diagnosis search as a Chrome trace overlay to this file")
	var questions questionFlags
	flag.Var(&questions, "question",
		`SAS performance question in the paper's notation, e.g. "{A Sums}, {Processor_1 Sends}" (repeatable; "?" wildcards, "[ordered]" suffix)`)
	flag.Parse()
	diag.consult = *consult
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "diag-budget", "diag-threshold", "diag-json", "diag-trace":
			diag.explicit = true
		}
	})

	if *list {
		lib := mdl.StdLibrary()
		for _, id := range lib.IDs() {
			m, _ := lib.Get(id)
			fmt.Printf("%-28s %-28s (%s, %s level)\n", id, m.Name, m.Kind, m.Level)
		}
		return
	}

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: nvprof [flags] program.fcm (see -h)")
		os.Exit(2)
	}
	if err := diag.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "nvprof:", err)
		os.Exit(2)
	}
	if err := run(flag.Arg(0), *nodes, *fuse, *metricsArg, *focusArg, *showWhere, *plot, *consult, *showPIF, *timeline, *showLevels, questions, diag); err != nil {
		var ue *nvmap.UsageError
		fmt.Fprintln(os.Stderr, "nvprof:", err)
		if errors.As(err, &ue) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// diagOptions is the validated consultant configuration. Validation is
// separated from flag parsing so the contradiction rules are unit
// testable: a rejected combination is a typed
// *nvmap.UsageError and exits 2, like any other usage mistake.
type diagOptions struct {
	budget    int
	threshold float64
	jsonOut   bool
	traceFile string
	// consult mirrors -consultant; explicit marks that at least one
	// -diag-* flag was given on the command line.
	consult  bool
	explicit bool
}

// validate applies the contradiction rules: a non-positive probe
// budget can never search, thresholds are fractions, and -diag-* flags
// without -consultant configure a search that will not run.
func (d *diagOptions) validate() error {
	if d.budget <= 0 {
		return &nvmap.UsageError{Option: "-diag-budget",
			Reason: fmt.Sprintf("probe budget must be positive, got %d", d.budget)}
	}
	if d.threshold < 0 || d.threshold >= 1 {
		return &nvmap.UsageError{Option: "-diag-threshold",
			Reason: fmt.Sprintf("confirmation threshold must be in [0, 1), got %g", d.threshold)}
	}
	if d.explicit && !d.consult {
		return &nvmap.UsageError{Option: "-diag-budget/-diag-threshold/-diag-json/-diag-trace",
			Reason: "contradicts absent -consultant (nothing would run the diagnosis)"}
	}
	return nil
}

// questionFlags collects repeatable -question flags.
type questionFlags []string

func (q *questionFlags) String() string     { return strings.Join(*q, "; ") }
func (q *questionFlags) Set(v string) error { *q = append(*q, v); return nil }

func run(path string, nodes int, fuse bool, metricsArg, focusArg string, showWhere, plot, consult, showPIF, timeline, showLevels bool, questions []string, diag diagOptions) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	source := string(src)
	opts := []nvmap.Option{
		nvmap.WithNodes(nodes),
		nvmap.WithSourceFile(filepath.Base(path)),
		nvmap.WithOutput(os.Stdout),
	}
	if fuse {
		opts = append(opts, nvmap.WithFuse())
	}
	s, err := nvmap.NewSession(source, opts...)
	if err != nil {
		return err
	}
	if showPIF {
		text, err := s.PIFText()
		if err != nil {
			return err
		}
		fmt.Println(text)
	}

	s.Tool.EnableDynamicMapping()
	s.Tool.EnableGating()

	focus := paradyn.WholeProgram()
	if focusArg != "" {
		// The focus may name a resource that only exists after dynamic
		// mapping (an array); pre-create the axis path so the predicate
		// can be built. Unknown statements still fail cleanly.
		parts := strings.Split(focusArg, "/")
		if len(parts) < 2 {
			return fmt.Errorf("focus %q must be hierarchy/resource", focusArg)
		}
		res := s.Tool.Axis.AddPath(parts[0], parts[1:]...)
		focus, err = paradyn.NewFocus(res)
		if err != nil {
			return err
		}
	}

	var ids []string
	if metricsArg == "all" {
		ids = s.Tool.Library().IDs()
	} else {
		for _, id := range strings.Split(metricsArg, ",") {
			if id = strings.TrimSpace(id); id != "" {
				ids = append(ids, id)
			}
		}
	}
	var enabled []*paradyn.EnabledMetric
	for _, id := range ids {
		em, err := s.Tool.EnableMetric(id, focus)
		if err != nil {
			return err
		}
		enabled = append(enabled, em)
	}

	var tr *trace.Trace
	if timeline {
		tr = s.EnableTrace()
	}

	var monitor *nvmap.Monitor
	var asked []*nvmap.AskedQuestion
	if len(questions) > 0 {
		monitor = s.EnableSASMonitor(false)
		for _, text := range questions {
			q, err := monitor.Ask("", text)
			if err != nil {
				return err
			}
			asked = append(asked, q)
		}
	}

	if _, err := s.Run(); err != nil {
		return err
	}
	now := s.Now()
	s.Tool.SampleAll(now)

	fmt.Printf("program %s on %d nodes: virtual elapsed %v\n\n",
		filepath.Base(path), nodes, s.Elapsed())
	fmt.Print(paradyn.Table("metrics", s.MetricRows(enabled)))

	if len(asked) > 0 {
		fmt.Println("\nperformance questions:")
		for _, q := range asked {
			r, err := q.Answer(now)
			if err != nil {
				return err
			}
			fmt.Printf("  %-44s count=%.0f  event time=%v  gate time=%v\n",
				q.Question.Label, r.Count, r.EventTime, r.SatisfiedTime)
		}
	}

	if plot {
		fmt.Println()
		for _, em := range enabled {
			fmt.Print(paradyn.TimePlot(em, 64))
		}
	}
	if showWhere {
		fmt.Println()
		fmt.Print(s.Tool.Axis.Render())
	}
	if showLevels {
		fmt.Println("\nabstraction levels (most abstract first):")
		fmt.Printf("  %-10s %5s %6s %6s %8s  %s\n", "level", "rank", "nouns", "verbs", "metrics", "")
		for _, l := range s.Levels() {
			note := ""
			if l.Virtual {
				note = "(metric library only)"
			}
			fmt.Printf("  %-10s %5d %6d %6d %8d  %s\n", l.Name, l.Rank, l.Nouns, l.Verbs, l.Metrics, note)
		}
	}
	if tr != nil {
		fmt.Println()
		fmt.Print(tr.Render(72))
		fmt.Println()
		fmt.Print(tr.Summary())
	}
	if consult {
		fmt.Println()
		// Diagnosis replays run the program repeatedly; keep their PRINT
		// output off the report.
		diagOpts := []nvmap.Option{
			nvmap.WithNodes(nodes),
			nvmap.WithSourceFile(filepath.Base(path)),
		}
		if fuse {
			diagOpts = append(diagOpts, nvmap.WithFuse())
		}
		rep, err := nvmap.Diagnose(source, nvmap.DiagnoseConfig{
			Budget:    diag.budget,
			Threshold: diag.threshold,
		}, diagOpts...)
		if err != nil {
			return err
		}
		if diag.traceFile != "" {
			if err := os.WriteFile(diag.traceFile, rep.ChromeTrace(), 0o644); err != nil {
				return err
			}
			fmt.Printf("diagnosis trace overlay written to %s\n", diag.traceFile)
		}
		if diag.jsonOut {
			js, err := rep.JSON()
			if err != nil {
				return err
			}
			os.Stdout.Write(js)
		} else {
			fmt.Println("Performance Consultant diagnosis:")
			fmt.Print(rep.Text())
		}
	}
	return nil
}
