package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"
)

// The benchmark's own tracing: one span around each call into a layer,
// recorded from the benchmark's files (spans inside nvmap are a later
// change). Spans stay in memory and are written as Chrome trace_event
// JSON when the run ends. A nil *opTrace is the untraced mode: every
// method is a no-op, so the timed end-to-end pass runs the same op code
// with tracing off.

type span struct {
	name       string
	start, end int64 // ns since the tracer's origin
	parent     int   // index into the op's span list, -1 for the op root
	op, tid    int
}

type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// opTrace records the spans of one op on one goroutine.
type opTrace struct {
	tr    *tracer
	op    int
	tid   int
	spans []span
	stack []int
}

// begin opens the root span of an op. On a nil tracer it returns nil.
func (t *tracer) begin(op, tid int) *opTrace {
	if t == nil {
		return nil
	}
	o := &opTrace{tr: t, op: op, tid: tid}
	o.push(rootSpan)
	return o
}

const rootSpan = "bench.op"

func (o *opTrace) push(name string) {
	parent := -1
	if n := len(o.stack); n > 0 {
		parent = o.stack[n-1]
	}
	o.spans = append(o.spans, span{name: name, start: int64(time.Since(o.tr.origin)),
		parent: parent, op: o.op, tid: o.tid})
	o.stack = append(o.stack, len(o.spans)-1)
}

func (o *opTrace) pop() {
	i := o.stack[len(o.stack)-1]
	o.stack = o.stack[:len(o.stack)-1]
	o.spans[i].end = int64(time.Since(o.tr.origin))
}

// span brackets f with a named span.
func (o *opTrace) span(name string, f func()) {
	if o == nil {
		f()
		return
	}
	o.push(name)
	f()
	o.pop()
}

// record adds an already-timed interval as a child of the current span
// (the serve workload learns the server's run time from the response,
// not from a call it can bracket).
func (o *opTrace) record(name string, start, end time.Time) {
	if o == nil {
		return
	}
	parent := -1
	if n := len(o.stack); n > 0 {
		parent = o.stack[n-1]
	}
	o.spans = append(o.spans, span{name: name,
		start: int64(start.Sub(o.tr.origin)), end: int64(end.Sub(o.tr.origin)),
		parent: parent, op: o.op, tid: o.tid})
}

// finish closes the op's root span and hands the spans to the tracer.
func (o *opTrace) finish() {
	if o == nil {
		return
	}
	o.pop()
	o.tr.mu.Lock()
	base := len(o.tr.spans)
	for _, s := range o.spans {
		if s.parent >= 0 {
			s.parent += base
		}
		o.tr.spans = append(o.tr.spans, s)
	}
	o.tr.mu.Unlock()
}

// selfTimes sums, per span name, duration minus the part covered by
// direct children (children of one parent never overlap: they run on
// the parent's goroutine).
func selfTimes(spans []span) map[string]int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	out := map[string]int64{}
	for i, s := range spans {
		out[s.name] += self[i]
	}
	return out
}

// totalTimes sums, per span name, full durations.
func totalTimes(spans []span) map[string]int64 {
	out := map[string]int64{}
	for _, s := range spans {
		out[s.name] += s.end - s.start
	}
	return out
}

// writeChrome writes the spans as a Chrome trace_event file (load it in
// chrome://tracing or Perfetto): complete events, microsecond stamps,
// one track per client goroutine, the op index in args.
func (t *tracer) writeChrome(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	w := bufio.NewWriter(f)
	w.WriteString("{\"traceEvents\":[\n")
	for i, s := range spans {
		if i > 0 {
			w.WriteString(",\n")
		}
		fmt.Fprintf(w, `{"name":%s,"ph":"X","pid":1,"tid":%d,"ts":%s,"dur":%s,"args":{"op":%d}}`,
			strconv.Quote(s.name), s.tid, micros(s.start), micros(s.end-s.start), s.op)
	}
	w.WriteString("\n]}\n")
	return w.Flush()
}

func micros(ns int64) string { return strconv.FormatFloat(float64(ns)/1e3, 'f', 3, 64) }
