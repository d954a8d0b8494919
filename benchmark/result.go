package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
)

// e2eMetric declares one end-to-end metric and the bound by which its
// median may worsen before a change counts as a regression.
// BENCHMARK.json carries the same table; a test keeps the two in step.
type e2eMetric struct {
	name, unit, better string
	bound              float64
	// wallClock metrics depend on host speed: they compare only between
	// runs with the same host fingerprint.
	wallClock bool
}

var e2eMetrics = []e2eMetric{
	{"setup_s", "s", "lower", 0.25, true},
	{"op_p50_ms", "ms", "lower", 0.25, true},
	{"op_p95_ms", "ms", "lower", 0.25, true},
	{"ops_per_s", "1/s", "higher", 0.25, true},
	{"allocs_per_op", "count", "lower", 0.03, false},
	{"alloc_kb_per_op", "KiB", "lower", 0.03, false},
	{"peak_rss_mb", "MiB", "lower", 0.25, true},
	{"virtual_us_per_op", "us", "lower", 0.05, false},
}

// host is the fingerprint stored with every results file.
type host struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
}

func fingerprint() host {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return host{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), kernel}
}

// line is the last line a single-pass run prints: the contract the
// driver reads.
type line struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloadResult is one workload's passes: the end-to-end pass once per
// seed, the per-layer pass at the first seed.
type workloadResult struct {
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	EndToEnd  map[string][]float64 `json:"end_to_end"` // metric -> one value per seed, in seed order
	PerLayer  map[string]float64   `json:"per_layer"`
}

// results is the file a suite run writes.
type results struct {
	Host      host                      `json:"host"`
	Seed      int64                     `json:"seed"` // first seed; run k uses seed+k
	Runs      int                       `json:"runs"`
	Seconds   float64                   `json:"seconds"`
	Workloads map[string]workloadResult `json:"workloads"`
}

func writeResults(path string, r results) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResults(path string) (results, error) {
	var r results
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median, the quartiles taken as Python's
// statistics.quantiles(values, n=4) takes them (the driver's rule).
// Fewer than two values have no spread.
func quartileSpread(values []float64) float64 {
	n := len(values)
	med := median(values)
	if n < 2 || med == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(values))
	quartile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - 4*j
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return (quartile(3) - quartile(1)) / med
}

// verdict is one compared row.
type verdict struct {
	workload, metric, what string // what: "spread A", "spread B", "median", "exact"
	a, b                   float64
	worse                  float64 // spread, or relative worsening of b against a (negative = better)
	bound                  float64
	skipped                string // why the row was not compared
	excess                 bool
}

// compare judges run set b against run set a the way the driver judges
// two sets of runs of one commit: per end-to-end metric and workload,
// each set's quartile spread must stay within the metric's bound
// (set-up time excepted) and b's median may not be worse than a's by
// more than the bound. Wall-clock rows are refused across mismatched
// host fingerprints. On equal seeds simulated time must agree exactly,
// seed by seed, and so must every work count of the per-layer pass.
func compare(a, b results) []verdict {
	sameHost := a.Host == b.Host
	sameInputs := a.Seed == b.Seed && a.Runs == b.Runs
	var out []verdict
	for _, w := range workloads {
		wa, oka := a.Workloads[w.name]
		wb, okb := b.Workloads[w.name]
		if !oka || !okb {
			continue
		}
		for _, m := range e2eMetrics {
			va, vb := wa.EndToEnd[m.name], wb.EndToEnd[m.name]
			ma, mb := median(va), median(vb)
			row := verdict{workload: w.name, metric: m.name, a: ma, b: mb, bound: m.bound}
			if m.wallClock && !sameHost {
				row.what, row.skipped = "median", "host fingerprints differ"
				out = append(out, row)
				continue
			}
			if m.name != "setup_s" {
				for _, set := range []struct {
					what   string
					values []float64
				}{{"spread A", va}, {"spread B", vb}} {
					if len(set.values) >= 2 {
						sp := row
						sp.what, sp.worse = set.what, quartileSpread(set.values)
						sp.excess = sp.worse > m.bound
						out = append(out, sp)
					}
				}
			}
			row.what = "median"
			if ma == 0 {
				row.skipped = "no baseline value"
			} else {
				row.worse = (mb - ma) / ma
				if m.better == "higher" {
					row.worse = -row.worse
				}
				row.excess = row.worse > m.bound
			}
			out = append(out, row)
			if m.name == "virtual_us_per_op" && sameInputs {
				for k := range va {
					if k < len(vb) && va[k] != vb[k] {
						out = append(out, verdict{workload: w.name, metric: m.name,
							what: fmt.Sprintf("exact, seed %d", a.Seed+int64(k)), a: va[k], b: vb[k], excess: true})
					}
				}
			}
		}
		if sameInputs {
			for name := range countSeries {
				if name == "machine.parallel_regions" && !sameHost {
					continue // which engine ran is a host artifact
				}
				if va, vb := wa.PerLayer[name], wb.PerLayer[name]; va != vb {
					out = append(out, verdict{workload: w.name, metric: name, what: "exact", a: va, b: vb, excess: true})
				}
			}
		}
		if wa.Failed != 0 || wb.Failed != 0 {
			out = append(out, verdict{workload: w.name, metric: "fail_ratio", what: "exact",
				a: float64(wa.Failed) / float64(wa.Attempted), b: float64(wb.Failed) / float64(wb.Attempted), excess: true})
		}
	}
	return out
}

// printVerdicts prints every compared row against its bound and
// reports whether any exceeded it.
func printVerdicts(vs []verdict) (failed bool) {
	fmt.Printf("%-16s %-18s %-15s %14s %14s %9s %7s\n", "workload", "metric", "row", "A", "B", "value", "bound")
	for _, v := range vs {
		if v.skipped != "" {
			fmt.Printf("%-16s %-18s %-15s %14.4f %14.4f %9s %7s  skipped: %s\n", v.workload, v.metric, v.what, v.a, v.b, "-", "-", v.skipped)
			continue
		}
		mark := ""
		if v.excess {
			mark = "  EXCEEDS"
			failed = true
		}
		fmt.Printf("%-16s %-18s %-15s %14.4f %14.4f %8.2f%% %6.1f%%%s\n", v.workload, v.metric, v.what, v.a, v.b, 100*v.worse, 100*v.bound, mark)
	}
	return failed
}
