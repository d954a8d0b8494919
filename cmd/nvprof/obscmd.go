package main

// The observability subcommands: "nvprof trace" exports a Chrome
// trace_event JSON timeline (load it in Perfetto / chrome://tracing),
// "nvprof metrics" exports the metrics registry in Prometheus text
// format, and "nvprof serve" runs the program and then serves the live
// debug handler over HTTP. All three run the program under the
// self-observability plane; the classic flag interface is untouched.

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"

	"nvmap"
	"nvmap/internal/obs"
	"nvmap/internal/paradyn"
)

// obsCommand dispatches one observability subcommand; it returns the
// process exit code.
func obsCommand(mode string, args []string) int {
	fs := flag.NewFlagSet("nvprof "+mode, flag.ExitOnError)
	var (
		nodes      = fs.Int("nodes", 8, "partition size")
		fuse       = fs.Bool("fuse", false, "fuse adjacent elementwise statements")
		metricsArg = fs.String("metrics", "summations,summation_time,point_to_point_ops,idle_time",
			"comma-separated metric IDs, or 'all'")
		out      = fs.String("o", "", "output file (default stdout)")
		unstable = fs.Bool("unstable", false,
			"include metrics that vary with process history or wall clock")
		addr    = fs.String("addr", "localhost:6060", "listen address (serve mode)")
		perturb = fs.Bool("perturb", false, "print the perturbation report to stderr")
	)
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintf(os.Stderr, "usage: nvprof %s [flags] program.fcm (see -h)\n", mode)
		return 2
	}
	if err := runObs(mode, fs.Arg(0), obsRunConfig{
		nodes: *nodes, fuse: *fuse,
		metrics: *metricsArg, out: *out, unstable: *unstable,
		addr: *addr, perturb: *perturb,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "nvprof:", err)
		return 1
	}
	return 0
}

type obsRunConfig struct {
	nodes    int
	fuse     bool
	metrics  string
	out      string
	unstable bool
	addr     string
	perturb  bool
}

func runObs(mode, path string, cfg obsRunConfig) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	opts := []nvmap.Option{
		nvmap.WithNodes(cfg.nodes),
		nvmap.WithSourceFile(filepath.Base(path)),
		nvmap.WithObservability(),
	}
	if cfg.fuse {
		opts = append(opts, nvmap.WithFuse())
	}
	s, err := nvmap.NewSession(string(src), opts...)
	if err != nil {
		return err
	}
	s.Tool.EnableDynamicMapping()
	s.Tool.EnableGating()
	ids := strings.Split(cfg.metrics, ",")
	if cfg.metrics == "all" {
		ids = s.Tool.Library().IDs()
	}
	for _, id := range ids {
		if id = strings.TrimSpace(id); id == "" {
			continue
		}
		if _, err := s.Tool.EnableMetric(id, paradyn.WholeProgram()); err != nil {
			return err
		}
	}
	if _, err := s.Run(); err != nil {
		return err
	}
	s.Tool.SampleAll(s.Now())

	if cfg.perturb || mode == "serve" {
		if r := s.PerturbationReport(); r != nil {
			fmt.Fprint(os.Stderr, r.String())
		}
	}
	plane := s.Observability()
	switch mode {
	case "trace":
		return writeOut(cfg.out, func(w io.Writer) error {
			return obs.WriteChromeTrace(w, plane.Tracer)
		})
	case "metrics":
		return writeOut(cfg.out, func(w io.Writer) error {
			return obs.WritePrometheus(w, plane.Metrics, cfg.unstable)
		})
	case "serve":
		fmt.Fprintf(os.Stderr, "nvprof: serving observability plane on http://%s/ (metrics, trace, stages; ^C to stop)\n", cfg.addr)
		return http.ListenAndServe(cfg.addr, obs.Handler(plane))
	}
	return fmt.Errorf("unknown observability mode %q", mode)
}

// writeOut streams an export to the -o file, or stdout when unset.
func writeOut(path string, write func(io.Writer) error) error {
	if path == "" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
