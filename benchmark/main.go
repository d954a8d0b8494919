// Command benchmark is nvmap's one end-to-end benchmark: five seeded
// workloads, eight user-facing metrics each, and a per-layer table
// underneath. See README.md in this directory.
//
// The driver's form runs one pass of one workload in this process and
// ends its output with one JSON line:
//
//	bash benchmark/run.sh --workload events_hot --seed 1 --seconds 20 --trace 0
//
// Without --trace it runs both passes of every selected workload, each
// pass in a fresh child process, and writes results.json; -aa does that
// twice over -runs seeds and judges the two sets as the driver does.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

func main() {
	var (
		workloadArg = flag.String("workload", "", "workload to run (default: all five)")
		seed        = flag.Int64("seed", 1, "seed for every generated input")
		seconds     = flag.Float64("seconds", 20, "how long one pass measures")
		trace       = flag.Int("trace", -1, "0 = end-to-end pass (tracing off), 1 = per-layer pass (tracing on), -1 = both, in child processes")
		runs        = flag.Int("runs", 0, "end-to-end passes per workload, on seeds seed, seed+1, ... (default 1; 10 with -aa)")
		smoke       = flag.Bool("smoke", false, "check the plumbing: both passes of every workload at one cycle per stretch, in process")
		aa          = flag.Bool("aa", false, "run the suite twice and judge the two sets against the bounds")
		against     = flag.String("against", "", "judge this run against a stored results file")
		outDir      = flag.String("out", ".bench_build", "directory for trace-<workload>.json and results.json")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive, got %v", *seconds))
	}
	if *trace >= 0 && *workloadArg == "" {
		fatal(fmt.Errorf("-trace %d runs one pass and needs -workload", *trace))
	}

	selected := workloads
	if *workloadArg != "" {
		w, ok := findWorkload(*workloadArg)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workloadArg))
		}
		selected = []workload{w}
	}
	opt := runOptions{seconds: *seconds, setups: 5, outDir: *outDir}
	if *smoke {
		opt.smoke, opt.setups = true, 1
	}

	// The driver's form: one pass of one workload, in this process.
	if *workloadArg != "" && *trace >= 0 && !*smoke {
		l, err := onePass(selected[0], *seed, *trace, opt)
		if err != nil {
			fatal(err)
		}
		emit(l)
		if !l.Correct {
			os.Exit(1)
		}
		return
	}

	if *runs == 0 {
		*runs = 1
		if *aa {
			*runs = 10
		}
	}
	suite := func() results {
		res, err := runSuite(selected, *seed, *runs, opt)
		if err != nil {
			fatal(err)
		}
		return res
	}
	first := suite()
	failed := anyFailed(first)
	switch {
	case *aa:
		fmt.Println("\nA/A: second set of runs of the same code")
		second := suite()
		failed = failed || anyFailed(second)
		fmt.Println()
		failed = printVerdicts(compare(first, second)) || failed
	case *against != "":
		base, err := readResults(*against)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\njudged against %s\n", *against)
		failed = printVerdicts(compare(base, first)) || failed
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	path := filepath.Join(*outDir, "results.json")
	if err := writeResults(path, first); err != nil {
		fatal(err)
	}
	fmt.Println("results written to", path)
	if failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func emit(l line) {
	b, err := json.Marshal(l)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func anyFailed(r results) bool {
	for _, w := range r.Workloads {
		if w.Failed > 0 {
			return true
		}
	}
	return false
}

// onePass runs one pass of one workload in this process, prints its
// table and returns the contract line.
func onePass(w workload, seed int64, trace int, opt runOptions) (line, error) {
	r := &runner{w: w, seed: seed}
	metrics := map[string]metric{}
	if trace == 0 {
		m, err := endToEnd(r, opt)
		if err != nil {
			return line{}, err
		}
		metrics = m
		for _, em := range e2eMetrics {
			fmt.Printf("  %-30s %14.4f %s\n", em.name, m[em.name].Value, em.unit)
		}
		fmt.Printf("  %-30s %14.6f ratio (%d failed of %d attempted)\n", "fail_ratio",
			float64(r.failed)/float64(r.attempted), r.failed, r.attempted)
	} else {
		v, notes, err := traced(r, opt)
		if err != nil {
			return line{}, err
		}
		fmt.Printf("%s: per-layer pass\n", w.name)
		printLayers(v, notes)
		for _, lm := range layerMetrics {
			metrics[lm.name] = metric{v[lm.name], lm.unit}
		}
	}
	for _, e := range r.errs {
		fmt.Println("  FAILED:", e)
	}
	return line{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metrics}, nil
}

// runSuite runs, for every selected workload, the end-to-end pass once
// per seed and the per-layer pass at the first seed — each pass in a
// fresh child process, so no pass inherits another's heap, memo or
// intern table. A smoke run stays in this process: it measures nothing,
// it only has to prove the plumbing.
func runSuite(selected []workload, seed int64, runs int, opt runOptions) (results, error) {
	res := results{Host: fingerprint(), Seed: seed, Runs: runs, Seconds: opt.seconds,
		Workloads: map[string]workloadResult{}}
	pass := childPass
	if opt.smoke {
		pass = onePass
	}
	for _, w := range selected {
		wr := workloadResult{EndToEnd: map[string][]float64{}, PerLayer: map[string]float64{}}
		for k := 0; k <= runs; k++ {
			s, trace := seed+int64(k), 0
			if k == runs {
				s, trace = seed, 1
			}
			l, err := pass(w, s, trace, opt)
			if err != nil {
				return res, fmt.Errorf("%s (seed %d, trace %d): %w", w.name, s, trace, err)
			}
			wr.Attempted += l.Attempted
			wr.Failed += l.Failed
			for name, m := range l.Metrics {
				if trace == 0 {
					wr.EndToEnd[name] = append(wr.EndToEnd[name], m.Value)
				} else {
					wr.PerLayer[name] = m.Value
				}
			}
		}
		res.Workloads[w.name] = wr
	}
	return res, nil
}

// childPass re-executes this binary for one pass and reads the contract
// line off the end of its output; everything before it is passed on.
func childPass(w workload, seed int64, trace int, opt runOptions) (line, error) {
	self, err := os.Executable()
	if err != nil {
		return line{}, err
	}
	cmd := exec.Command(self,
		"-workload", w.name, "-seed", fmt.Sprint(seed), "-trace", fmt.Sprint(trace),
		"-seconds", fmt.Sprint(opt.seconds), "-out", opt.outDir)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	runErr := cmd.Run() // waits for the child to exit
	text := strings.TrimRight(out.String(), "\n")
	last := text[strings.LastIndexByte(text, '\n')+1:]
	fmt.Println(strings.TrimSuffix(text, last))
	var l line
	if err := json.Unmarshal([]byte(last), &l); err != nil {
		if runErr != nil {
			return l, runErr
		}
		return l, fmt.Errorf("child printed no result line: %w", err)
	}
	var exit *exec.ExitError
	if runErr != nil && !(errors.As(runErr, &exit) && !l.Correct) {
		return l, runErr // a failed-ops exit is reported through the line
	}
	return l, nil
}
