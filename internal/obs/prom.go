package obs

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// WritePrometheus emits the registry in the Prometheus text exposition
// format (version 0.0.4). Histograms are exported minimally — a single
// +Inf bucket plus _sum and _count — which every Prometheus parser
// accepts; the _sum is virtual-time mass, deterministic across runs.
//
// When includeUnstable is false, metrics registered as unstable (values
// that vary with process history or wall clock) are omitted, making
// the output byte-stable from run to run.
func WritePrometheus(w io.Writer, r *Registry, includeUnstable bool) (err error) {
	defer exportBarrier("prometheus", &err)
	bw := bufio.NewWriter(w)
	lastBase := ""
	for _, s := range r.Snapshot(includeUnstable) {
		// A metric name may carry a label set in Prometheus notation
		// ("nvmap_daemon_sent_total{kind=\"sample\"}"); HELP and TYPE
		// lines use the base name and are emitted once per family (the
		// snapshot is name-sorted, so families are contiguous).
		base := s.Name
		if i := strings.IndexByte(base, '{'); i >= 0 {
			base = base[:i]
		}
		if base != lastBase {
			if s.Help != "" {
				bw.WriteString("# HELP " + base + " " + s.Help + "\n")
			}
			bw.WriteString("# TYPE " + base + " " + s.Kind.String() + "\n")
			lastBase = base
		}
		if s.Kind == KindHistogram {
			cnt := strconv.FormatUint(s.Count, 10)
			bw.WriteString(s.Name + "_bucket{le=\"+Inf\"} " + cnt + "\n")
			bw.WriteString(s.Name + "_sum " + formatFloat(s.Sum) + "\n")
			bw.WriteString(s.Name + "_count " + cnt + "\n")
			continue
		}
		bw.WriteString(s.Name + " " + formatFloat(s.Value) + "\n")
	}
	return bw.Flush()
}

// formatFloat renders a metric value deterministically: integral values
// without an exponent or decimal point, others in Go's shortest
// round-trip form.
func formatFloat(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
