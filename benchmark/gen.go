package main

import (
	"fmt"
	"strings"
)

// Every input the benchmark feeds nvmap is generated here from the
// --seed argument: array names, statement order, shift distances,
// additive constants, scenario seeds and the request schedule. A seed
// changes what the programs look like, never how much work they are:
// every generator emits a fixed count of each statement kind over
// fixed-size arrays, so per-op cost is comparable across seeds while no
// two seeds hand nvmap the same text.

// rng is a splitmix64 stream: stable across Go releases, seeded only by
// the command line.
type rng struct{ state uint64 }

func newRNG(seed int64, stream string) *rng {
	h := uint64(1469598103934665603)
	for i := 0; i < len(stream); i++ {
		h = (h ^ uint64(stream[i])) * 1099511628211
	}
	return &rng{state: uint64(seed)*0x9E3779B97F4A7C15 ^ h}
}

func (r *rng) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// shuffle is Fisher-Yates over the stream.
func shuffle[T any](r *rng, xs []T) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// names draws n distinct identifiers of one fixed shape (three letters
// and a digit), so a seed never changes identifier length and no name
// can collide with a keyword or an intrinsic.
func names(r *rng, n int) []string {
	seen := map[string]bool{}
	out := make([]string, 0, n)
	for len(out) < n {
		b := []byte{
			byte('A' + r.intn(26)), byte('A' + r.intn(26)), byte('A' + r.intn(26)),
			byte('0' + r.intn(10)),
		}
		if s := string(b); !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// program is one generated CM Fortran program with its known answers.
type program struct {
	File   string // source-file name handed to the compiler
	Source string
	Nodes  int
	// WantPrint is the exact PRINT output: the closed-form SUM of the
	// check array, which only ever receives integer additions and
	// circular shifts, so its sum is n(n+1)/2 + n*sum(constants).
	WantPrint string
	// Summations is how many SUM and DOT_PRODUCT statements execute: the
	// value the summations metric must report.
	Summations int
	// Arrays names the parallel arrays, for questions that mention them.
	Arrays []string
}

func closedFormSum(size int, added int) string {
	n := float64(size)
	return fmt.Sprintf(" %g\n", n*(n+1)/2+n*float64(added))
}

// flatProgram emits a straight-line program of exactly stmts executable
// statements over `arrays` work arrays plus one check array: the shape
// whose cost is compiling, listing and mapping, not running. Statement
// kinds come in fixed counts; the seed orders them and picks operands.
func flatProgram(r *rng, file string, nodes, arrays, size, stmts int) program {
	ids := names(r, arrays+3)
	work, check, sCheck, sTmp := ids[:arrays], ids[arrays], ids[arrays+1], ids[arrays+2]

	// Fixed budget per kind (per 400 statements; scaled for smoke sizes).
	scale := func(n int) int {
		if v := n * stmts / 400; v > 0 {
			return v
		}
		return 1
	}
	nAdd, nShift, nSum, nMax, nDot := scale(20), scale(60), scale(39), scale(20), scale(20)
	fixed := arrays + 1 /* FORALL inits */ + 2 /* final SUM + PRINT */
	nElem := stmts - fixed - nAdd - nShift - nSum - nMax - nDot
	if nElem < 1 {
		nElem = 1
	}

	pick2 := func() (string, string) {
		i := r.intn(arrays)
		j := (i + 1 + r.intn(arrays-1)) % arrays
		return work[i], work[j]
	}
	chunk := size / nodes
	shiftBy := func() int { return 1 + r.intn(chunk-1) } // stays inside one neighbour

	var body []string
	added := 0
	for i := 0; i < nElem; i++ {
		dst := work[r.intn(arrays)]
		a, b := pick2()
		// Contractive coefficients keep every value bounded.
		body = append(body, fmt.Sprintf("%s = %s * 0.5 + %s * 0.25", dst, a, b))
	}
	for i := 0; i < nAdd; i++ {
		c := 1 + r.intn(9)
		added += c
		body = append(body, fmt.Sprintf("%s = %s + %d.0", check, check, c))
	}
	for i := 0; i < nShift; i++ {
		target := work[r.intn(arrays)]
		if i%4 == 0 {
			target = check // a quarter of the shifts move the check array
		}
		body = append(body, fmt.Sprintf("%s = CSHIFT(%s, %d)", target, target, shiftBy()))
	}
	for i := 0; i < nSum; i++ {
		body = append(body, fmt.Sprintf("%s = SUM(%s)", sTmp, work[r.intn(arrays)]))
	}
	for i := 0; i < nMax; i++ {
		body = append(body, fmt.Sprintf("%s = MAXVAL(%s)", sTmp, work[r.intn(arrays)]))
	}
	for i := 0; i < nDot; i++ {
		a, b := pick2()
		body = append(body, fmt.Sprintf("%s = DOT_PRODUCT(%s, %s)", sTmp, a, b))
	}
	shuffle(r, body)

	var sb strings.Builder
	fmt.Fprintf(&sb, "PROGRAM %s\n", strings.TrimSuffix(file, ".fcm"))
	for _, a := range work {
		fmt.Fprintf(&sb, "REAL %s(%d)\n", a, size)
	}
	fmt.Fprintf(&sb, "REAL %s(%d)\nREAL %s\nREAL %s\n", check, size, sCheck, sTmp)
	for k, a := range work {
		fmt.Fprintf(&sb, "FORALL (I = 1:%d) %s(I) = I + %d\n", size, a, k)
	}
	fmt.Fprintf(&sb, "FORALL (I = 1:%d) %s(I) = I\n", size, check)
	for _, st := range body {
		sb.WriteString(st)
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "%s = SUM(%s)\nPRINT *, %s\nEND\n", sCheck, check, sCheck)
	return program{File: file, Source: sb.String(), Nodes: nodes,
		WantPrint: closedFormSum(size, added), Summations: nSum + 1 + nDot,
		Arrays: append(append([]string(nil), work...), check)}
}

// loopProgram emits the hot-loop shape shared by events_hot and
// data_hot: iters iterations of six statements (two elementwise, SUM,
// CSHIFT, MAXVAL, DOT_PRODUCT) over arrays of about chunk elements per
// node. The seed orders the loop body, names the arrays, picks the shift
// distance (a whole number of per-node chunks, at most half-way round:
// the range over which the machine charges every distance alike) and
// draws the array length from a band under 1% wide, so simulated time
// differs a little from seed to seed while the work does not.
func loopProgram(r *rng, file string, nodes, chunk, iters int) program {
	ids := names(r, 8)
	p, q, w, check := ids[0], ids[1], ids[2], ids[3]
	sCheck, sSum, sMax, sDot := ids[4], ids[5], ids[6], ids[7]
	c := 1 + r.intn(9)
	chunk += r.intn(max(4, chunk/128))
	size := nodes * chunk
	shift := chunk * (1 + r.intn(nodes/2))

	body := []string{
		fmt.Sprintf("%s = %s * 0.5 + %s * 0.25", p, q, w),
		fmt.Sprintf("%s = %s + %d.0", check, check, c),
		fmt.Sprintf("%s = SUM(%s)", sSum, check),
		fmt.Sprintf("%s = CSHIFT(%s, %d)", q, q, shift),
		fmt.Sprintf("%s = MAXVAL(%s)", sMax, p),
		fmt.Sprintf("%s = DOT_PRODUCT(%s, %s)", sDot, q, w),
	}
	shuffle(r, body)

	var sb strings.Builder
	fmt.Fprintf(&sb, "PROGRAM %s\n", strings.TrimSuffix(file, ".fcm"))
	for _, a := range []string{p, q, w, check} {
		fmt.Fprintf(&sb, "REAL %s(%d)\n", a, size)
	}
	for _, s := range []string{sCheck, sSum, sMax, sDot} {
		fmt.Fprintf(&sb, "REAL %s\n", s)
	}
	fmt.Fprintf(&sb, "FORALL (I = 1:%d) %s(I) = I\n", size, p)
	fmt.Fprintf(&sb, "FORALL (I = 1:%d) %s(I) = 2 * I\n", size, q)
	fmt.Fprintf(&sb, "FORALL (I = 1:%d) %s(I) = 3 * I\n", size, w)
	fmt.Fprintf(&sb, "FORALL (I = 1:%d) %s(I) = I\n", size, check)
	fmt.Fprintf(&sb, "DO K = 1, %d\n", iters)
	for _, st := range body {
		sb.WriteString(st)
		sb.WriteByte('\n')
	}
	sb.WriteString("END DO\n")
	fmt.Fprintf(&sb, "%s = SUM(%s)\nPRINT *, %s\nEND\n", sCheck, check, sCheck)
	return program{File: file, Source: sb.String(), Nodes: nodes,
		WantPrint: closedFormSum(size, c*iters), Summations: 2*iters + 1,
		Arrays: []string{p, q, w, check}}
}

// corpusProgram is one planted-cause program of the diagnosis corpus.
type corpusProgram struct {
	Name    string // hotspot, straggler, chain, lossy, congested
	Planted string // the one hypothesis that must confirm at top level
	program
	// FaultSeed and the shape below are applied by the adapter.
	FaultSeed int64
}

// corpus regenerates the five planted-cause programs (after "Automatic
// Performance Debugging of SPMD Parallel Programs"): one defect each,
// which the Performance Consultant must name and nothing else. The
// severities are fixed; the seed varies names and fault-stream seeds.
func corpus(r *rng) []corpusProgram {
	compute := func(file string, size, iters int) program {
		ids := names(r, 3)
		h, c, s := ids[0], ids[1], ids[2]
		var b strings.Builder
		fmt.Fprintf(&b, "PROGRAM %s\n", strings.TrimSuffix(file, ".fcm"))
		fmt.Fprintf(&b, "REAL %s(%d)\nREAL %s(%d)\nREAL %s\n", h, size, c, size, s)
		fmt.Fprintf(&b, "FORALL (I = 1:%d) %s(I) = I\n", size, h)
		fmt.Fprintf(&b, "DO K = 1, %d\n", iters)
		fmt.Fprintf(&b, "%s = %s * 1.0001 + %s * %s - %s / 3.0 + SQRT(%s)\n", h, h, h, h, h, h)
		b.WriteString("END DO\n")
		fmt.Fprintf(&b, "%s = %s + 1.0\n%s = SUM(%s)\nEND\n", c, h, s, c)
		return program{File: file, Source: b.String(), Nodes: 4}
	}
	chain := func(file string, width, steps int) program {
		a := names(r, 1)[0]
		var b strings.Builder
		fmt.Fprintf(&b, "PROGRAM %s\nREAL %s(%d)\n", strings.TrimSuffix(file, ".fcm"), a, width)
		fmt.Fprintf(&b, "DO K = 1, %d\n", steps)
		fmt.Fprintf(&b, "FORALL (I = 1:%d) %s(I) = %s(I) + 1.0\n", width, a, a)
		b.WriteString("END DO\nEND\n")
		return program{File: file, Source: b.String(), Nodes: 4}
	}
	ring := func(file string, size, rounds int) program {
		a := names(r, 1)[0]
		var b strings.Builder
		fmt.Fprintf(&b, "PROGRAM %s\nREAL %s(%d)\n", strings.TrimSuffix(file, ".fcm"), a, size)
		fmt.Fprintf(&b, "DO K = 1, %d\n%s = CSHIFT(%s, 1)\nEND DO\nEND\n", rounds, a, a)
		return program{File: file, Source: b.String(), Nodes: 4}
	}
	return []corpusProgram{
		{Name: "hotspot", Planted: "CPUBound", program: compute("hotspot.fcm", 4096, 8)},
		{Name: "straggler", Planted: "LoadImbalance", program: compute("straggler.fcm", 2048, 4),
			FaultSeed: 1 + int64(r.intn(1<<20))},
		{Name: "chain", Planted: "SyncBound", program: chain("chain.fcm", 4, 300)},
		{Name: "lossy", Planted: "StallBound", program: ring("lossy.fcm", 64, 30),
			FaultSeed: 1 + int64(r.intn(1<<20))},
		{Name: "congested", Planted: "CommBound", program: ring("congest.fcm", 64, 40)},
	}
}

// Request classes of the serve_closed mix.
const (
	classPlain    = "plain"
	classFaulty   = "faulty"
	classParallel = "parallel"
	classCrashy   = "crashy"
	classDiagnose = "diagnose"
)

// serveProgram is one of the 32 distinct (scenario, seed) programs the
// service workload replays; the compile memo holds 64, so after warm-up
// every request hits it.
type serveProgram struct {
	Class string // plain, faulty, parallel or crashy
	Seed  int64  // scenario seed: drives the server-side fault plan
	program
	Question string // the one SAS question each session asks
}

// servePrograms emits 8 programs per scenario class. All share one cost
// shape per class (five loop iterations of elementwise + SUM + CSHIFT);
// the seed draws names, shift distances and the scenario seeds.
func servePrograms(r *rng) []serveProgram {
	var out []serveProgram
	for _, class := range []string{classPlain, classFaulty, classParallel, classCrashy} {
		size := 64
		if class == classParallel {
			size = 2048
		}
		const nodes, iters = 8, 5
		for k := 0; k < 8; k++ {
			ids := names(r, 3)
			a, b, s := ids[0], ids[1], ids[2]
			shift := (size / nodes) * (1 + r.intn(nodes/2)) // every such distance costs the same
			file := fmt.Sprintf("%s%d.fcm", class, k)
			var sb strings.Builder
			fmt.Fprintf(&sb, "PROGRAM %s%d\nREAL %s(%d)\nREAL %s(%d)\nREAL %s\n", class, k, a, size, b, size, s)
			fmt.Fprintf(&sb, "FORALL (I = 1:%d) %s(I) = I\n", size, a)
			fmt.Fprintf(&sb, "FORALL (I = 1:%d) %s(I) = 2 * I\n", size, b)
			fmt.Fprintf(&sb, "DO K = 1, %d\n", iters)
			fmt.Fprintf(&sb, "%s = %s * 2.0 + %s\n", b, a, b)
			fmt.Fprintf(&sb, "%s = SUM(%s)\n", s, a)
			fmt.Fprintf(&sb, "%s = CSHIFT(%s, %d)\n", a, a, shift)
			fmt.Fprintf(&sb, "END DO\n%s = SUM(%s)\nEND\n", s, a)
			out = append(out, serveProgram{
				Class:    class,
				Seed:     1 + int64(r.intn(1<<20)),
				program:  program{File: file, Source: sb.String(), Nodes: nodes, Summations: iters + 1},
				Question: fmt.Sprintf("{%s Sums}, {? Sends}", a),
			})
		}
	}
	return out
}

// serveSlot is one entry of the request schedule.
type serveSlot struct {
	Class   string
	Program int // index into servePrograms (diagnose slots replay a plain program)
}

// serveSchedule lays out the 100-slot mix — 60 plain, 15 faulty, 15
// parallel, 8 crashy, 2 diagnose — in seeded order. The proportions put
// the median inside the plain class and the 95th percentile inside the
// crashy class, away from class boundaries.
func serveSchedule(r *rng, progs []serveProgram) []serveSlot {
	byClass := map[string][]int{}
	for i, p := range progs {
		byClass[p.Class] = append(byClass[p.Class], i)
	}
	var slots []serveSlot
	add := func(class string, n int) {
		from := byClass[class]
		if class == classDiagnose {
			from = byClass[classPlain]
		}
		for i := 0; i < n; i++ {
			slots = append(slots, serveSlot{Class: class, Program: from[i%len(from)]})
		}
	}
	add(classPlain, 60)
	add(classFaulty, 15)
	add(classParallel, 15)
	add(classCrashy, 8)
	add(classDiagnose, 2)
	shuffle(r, slots)
	return slots
}
