package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// exportBarrier converts a panic escaping an exporter into the named
// error. Exporters run against live tracers and registries — possibly
// mid-run, over a snapshot another goroutine is still growing — and a
// rendering bug must surface as an error on the export call, never as a
// process crash. Call in a defer with the caller's named error.
func exportBarrier(what string, err *error) {
	if v := recover(); v != nil {
		*err = fmt.Errorf("obs: %s export panicked: %v", what, v)
	}
}

// WriteChromeTrace emits the tracer's retained spans as Chrome
// trace_event JSON (the "JSON Array Format" with a traceEvents wrapper),
// loadable in Perfetto and chrome://tracing.
//
// Timestamps and durations are VIRTUAL time expressed in microseconds
// (the trace_event unit), with nanosecond precision as fractional
// digits. Wall-clock costs are deliberately excluded: they differ run
// to run, and the exported bytes must not. Rows (tid) are nodes, with
// the control processor on tid 0.
//
// The JSON is built by hand, field order fixed, so the output is
// byte-stable.
func WriteChromeTrace(w io.Writer, t *Tracer) (err error) {
	defer exportBarrier("chrome trace", &err)
	bw := bufio.NewWriter(w)
	spans := t.Spans()

	// Thread-name metadata rows for every tid present.
	tids := map[int]bool{}
	for _, s := range spans {
		tids[s.Node] = true
	}
	nodes := make([]int, 0, len(tids))
	for n := range tids {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)

	bw.WriteString("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")
	first := true
	comma := func() {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
	}
	for _, n := range nodes {
		comma()
		name := "node " + strconv.Itoa(n)
		if n == NodeCP {
			name = "cp"
		}
		bw.WriteString("{\"ph\":\"M\",\"pid\":0,\"tid\":" + strconv.Itoa(tid(n)) +
			",\"name\":\"thread_name\",\"args\":{\"name\":" + jsonQuote(name) + "}}")
	}
	for _, s := range spans {
		comma()
		name := s.Stage.String()
		if s.Name != "" {
			name += " " + s.Name
		}
		bw.WriteString("{\"ph\":\"")
		if s.Start == s.End {
			bw.WriteString("i")
		} else {
			bw.WriteString("X")
		}
		bw.WriteString("\",\"pid\":0,\"tid\":" + strconv.Itoa(tid(s.Node)))
		bw.WriteString(",\"ts\":" + micros(int64(s.Start)))
		if s.Start == s.End {
			bw.WriteString(",\"s\":\"t\"")
		} else {
			bw.WriteString(",\"dur\":" + micros(int64(s.End.Sub(s.Start))))
		}
		bw.WriteString(",\"name\":" + jsonQuote(name))
		bw.WriteString(",\"cat\":" + jsonQuote(string(s.Stage.Level())))
		bw.WriteString(",\"args\":{\"id\":" + strconv.FormatUint(s.ID, 10) +
			",\"sentence\":" + jsonQuote(s.Stage.Sentence()) + "}}")
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// jsonQuote encodes a string as a JSON string literal. strconv.Quote is
// not usable here: it emits Go-style \x escapes for the non-printable
// separator bytes inside interned sentence keys, which are invalid JSON.
func jsonQuote(s string) string {
	b, err := json.Marshal(s)
	if err != nil { // cannot happen for a string
		return `""`
	}
	return string(b)
}

// tid maps a node to its trace row: CP on 0, node n on n+1.
func tid(node int) int {
	if node == NodeCP {
		return 0
	}
	return node + 1
}

// micros renders ns as a microsecond value with exactly three fractional
// digits — fixed-width formatting keeps the bytes deterministic.
func micros(ns int64) string {
	neg := ns < 0
	if neg {
		ns = -ns
	}
	s := strconv.FormatInt(ns/1000, 10) + "." + pad3(ns%1000)
	if neg {
		return "-" + s
	}
	return s
}

func pad3(n int64) string {
	s := strconv.FormatInt(n, 10)
	for len(s) < 3 {
		s = "0" + s
	}
	return s
}
