package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// runner carries one process's run of one workload: the op numbering
// (numbers never repeat, so frontend_cold names stay unique across
// passes) and the failure ledger every pass adds to.
type runner struct {
	w         workload
	seed      int64
	next      int // next unused op number
	attempted int
	failed    int
	errs      []string // first few failure messages
}

func (r *runner) fail(err error) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
}

// pass is the raw record of n ops run back to back.
type pass struct {
	lat     []int64 // wall ns per op
	outs    []outcome
	ok      []bool
	wall    time.Duration
	mallocs uint64
	bytes   uint64
}

// run executes n ops (rounded by the caller to whole cycles) on the
// instance's clients and records each op's latency. With a tracer every
// op is traced; with nil the same code runs with tracing off.
func (r *runner) run(inst *instance, tr *tracer, n int) pass {
	// Start on a cycle boundary so op i always replays slot i mod cycle.
	if rem := r.next % inst.cycle; rem != 0 {
		r.next += inst.cycle - rem
	}
	p := pass{lat: make([]int64, n), outs: make([]outcome, n), ok: make([]bool, n)}
	first := r.next
	r.next += n

	var errMu sync.Mutex
	one := func(i, tid int) {
		o := tr.begin(first+i, tid)
		t0 := time.Now()
		out, err := inst.op(o, first+i)
		p.lat[i] = int64(time.Since(t0))
		o.finish()
		p.outs[i], p.ok[i] = out, err == nil
		if err != nil {
			errMu.Lock()
			r.fail(fmt.Errorf("op %d: %w", first+i, err))
			errMu.Unlock()
		}
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	if inst.clients <= 1 {
		for i := 0; i < n; i++ {
			one(i, 0)
		}
	} else {
		// Closed loop: each client sends its next request only after the
		// previous one completed.
		var cursor atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < inst.clients; c++ {
			wg.Add(1)
			go func(tid int) {
				defer wg.Done()
				for {
					i := int(cursor.Add(1)) - 1
					if i >= n {
						return
					}
					one(i, tid)
				}
			}(c)
		}
		wg.Wait()
	}
	p.wall = time.Since(t0)
	runtime.ReadMemStats(&ms1)
	p.mallocs, p.bytes = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc
	r.attempted += n
	return p
}

// wholeCycles rounds n down to whole cycles, at least one.
func wholeCycles(n, cycle int) int {
	if n < cycle {
		return cycle
	}
	return n / cycle * cycle
}

// setUp builds the instance and runs the warm-up ops. It returns the
// set-up time (generation + server start + warm-up) and the warm-up's
// op rate, which sizes the timed stretches.
func (r *runner) setUp(counts bool, warm int) (*instance, float64, float64, error) {
	t0 := time.Now()
	inst, err := r.w.build(r.seed, counts)
	if err != nil {
		return nil, 0, 0, err
	}
	built := time.Since(t0)
	p := r.run(inst, nil, wholeCycles(warm, inst.cycle))
	// The first ops fill caches; the second half runs at the steady rate.
	var busy int64
	half := p.lat[len(p.lat)/2:]
	for _, ns := range half {
		busy += ns
	}
	rate := float64(inst.clients) * float64(len(half)) / (float64(busy) / 1e9)
	return inst, (built + p.wall).Seconds(), rate, nil
}

func (inst *instance) close() error {
	if inst.finish != nil {
		return inst.finish()
	}
	return nil
}

// percentile is the nearest-rank percentile of sorted samples.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

func sortedCopy(xs []int64) []int64 {
	out := slices.Clone(xs)
	slices.Sort(out)
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(xs))
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

const msPerNS = 1e-6

// peakRSSMiB reads this process's high-water resident set from
// /proc/self/status (VmHWM); 0 where the file is absent.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOptions are the knobs shared by both passes.
type runOptions struct {
	seconds float64 // how long a pass measures
	setups  int     // how many times set-up is repeated for its median
	smoke   bool    // prove the plumbing: one cycle wherever a stretch is sized
	outDir  string
}

// ops sizes a stretch of ops as a share of the --seconds budget at the
// warm-up rate, in whole cycles, so the count is fixed before the
// stretch starts.
func (o runOptions) ops(rate, share float64, cycle int) int {
	if o.smoke {
		return cycle
	}
	return wholeCycles(int(rate*o.seconds*share), cycle)
}

func (o runOptions) warm(w workload) int {
	if o.smoke {
		return 1
	}
	return w.warmOps
}

// endToEnd is the untraced pass: set-up (repeated, median reported),
// then the timed ops in twenty equal blocks. The host's speed sags by
// 10-40% for seconds at a time and such interference only ever adds
// time, so the two latency percentiles and the throughput are each taken
// from the quietest block (lowest percentile, highest rate): the best
// estimate of what the program itself costs. Allocation and simulated
// time do not depend on the host and are totals over all blocks.
func endToEnd(r *runner, opt runOptions) (map[string]metric, error) {
	var inst *instance
	var setups, rates []float64
	for k := 0; k < opt.setups; k++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				r.fail(err)
			}
		}
		var s, rate float64
		var err error
		if inst, s, rate, err = r.setUp(false, opt.warm(r.w)); err != nil {
			return nil, err
		}
		setups, rates = append(setups, s), append(rates, rate)
	}
	blocks := 20
	if opt.smoke {
		blocks = 2
	}
	n := opt.ops(median(rates), 1/float64(blocks), inst.cycle)
	var p50, p95, perSec []float64
	var wall time.Duration
	var mallocs, bytes uint64
	var virtual int64
	for b := 0; b < blocks; b++ {
		p := r.run(inst, nil, n)
		lat := sortedCopy(p.lat)
		p50 = append(p50, float64(percentile(lat, 0.50))*msPerNS)
		p95 = append(p95, float64(percentile(lat, 0.95))*msPerNS)
		perSec = append(perSec, float64(n)/p.wall.Seconds())
		wall, mallocs, bytes = wall+p.wall, mallocs+p.mallocs, bytes+p.bytes
		for _, o := range p.outs {
			virtual += o.virtualNS
		}
	}
	if err := inst.close(); err != nil {
		r.fail(err)
	}

	ops := float64(blocks * n)
	fmt.Printf("%s: %d ops on %d client(s) in %.2fs: %d blocks of %d latency samples\n",
		r.w.name, blocks*n, inst.clients, wall.Seconds(), blocks, n)
	return map[string]metric{
		"setup_s":           {median(setups), "s"},
		"op_p50_ms":         {slices.Min(p50), "ms"},
		"op_p95_ms":         {slices.Min(p95), "ms"},
		"ops_per_s":         {slices.Max(perSec), "1/s"},
		"allocs_per_op":     {float64(mallocs) / ops, "count"},
		"alloc_kb_per_op":   {float64(bytes) / ops / 1024, "KiB"},
		"peak_rss_mb":       {peakRSSMiB(), "MiB"},
		"virtual_us_per_op": {float64(virtual) / ops / 1e3, "us"},
	}, nil
}
