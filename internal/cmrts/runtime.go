// Package cmrts simulates the CM Run-Time System of the paper's case
// study (Section 6): the runtime layer between data-parallel CM Fortran
// and the machine. It owns parallel array allocation and distribution,
// dispatches node code blocks from the control processor, and implements
// the communication and computation operations whose verbs populate the
// CMRTS half of Figure 9 — broadcasts, point-to-point transfers,
// reductions, argument processing, cleanups and idle time.
//
// Every runtime routine fires dynamic-instrumentation points (package
// dyninst) at entry and exit on each participating node, and designated
// mapping points where dynamic mapping information becomes known (array
// allocation — Section 4.1's example). The runtime itself carries no
// measurement code: the tool decides what to observe by inserting
// snippets, exactly as the paper prescribes.
package cmrts

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"nvmap/internal/dyninst"
	"nvmap/internal/machine"
	"nvmap/internal/vtime"
)

// Runtime routine names: the "functions" of the simulated executable
// image that instrumentation points attach to.
const (
	RoutineAlloc     = "CMRTS_alloc"
	RoutineFree      = "CMRTS_free"
	RoutineArgs      = "CMRTS_args"     // per-node argument processing
	RoutineDispatch  = "CMRTS_dispatch" // node code block dispatcher (args in Context.Args, block in Context.Tag)
	RoutineCompute   = "CMRTS_compute"
	RoutineReduceSum = "CMRTS_reduce_sum"
	RoutineReduceMax = "CMRTS_reduce_max"
	RoutineReduceMin = "CMRTS_reduce_min"
	RoutineShift     = "CMRTS_shift"
	RoutineRotate    = "CMRTS_rotate"
	RoutineTranspose = "CMRTS_transpose"
	RoutineScan      = "CMRTS_scan"
	RoutineSort      = "CMRTS_sort"
	RoutineBroadcast = "CMRTS_broadcast"
	RoutineSend      = "CMRTS_send"
	RoutineCleanup   = "CMRTS_cleanup"
)

// ReduceOp selects a reduction operator.
type ReduceOp int

// Reduction operators of the CM Fortran intrinsics SUM, MAXVAL, MINVAL.
const (
	OpSum ReduceOp = iota
	OpMax
	OpMin
)

// Routine returns the runtime routine implementing the operator.
func (op ReduceOp) Routine() string {
	switch op {
	case OpSum:
		return RoutineReduceSum
	case OpMax:
		return RoutineReduceMax
	default:
		return RoutineReduceMin
	}
}

// String names the operator like the intrinsic it implements.
func (op ReduceOp) String() string {
	switch op {
	case OpSum:
		return "SUM"
	case OpMax:
		return "MAXVAL"
	default:
		return "MINVAL"
	}
}

const elemBytes = 8 // float64 payloads

// Costs extends the machine cost model with runtime-level constants.
type Costs struct {
	// AllocPerElem is the per-element cost of touching freshly allocated
	// node memory.
	AllocPerElem vtime.Duration
	// CleanupCost is the fixed per-node cost of resetting the vector
	// units (Figure 9's "Cleanups").
	CleanupCost vtime.Duration
	// SortFactor scales the local comparison cost of sorting.
	SortFactor int
}

// DefaultCosts returns runtime cost defaults.
func DefaultCosts() Costs {
	return Costs{
		AllocPerElem: 2 * vtime.Nanosecond,
		CleanupCost:  3 * vtime.Microsecond,
		SortFactor:   4,
	}
}

// Runtime is one simulated CMRTS instance bound to a machine and an
// instrumentation manager.
type Runtime struct {
	mach   *machine.Machine
	inst   *dyninst.Manager
	costs  Costs
	arrays map[ArrayID]*Array
	order  []ArrayID // allocation order for deterministic listing
	seq    int

	// counts is ground-truth operation counting (per routine name), used
	// by tests to validate what the tool measures independently.
	counts map[string]int

	// xfer is the flat nodes × nodes scratch redistribute and Shift tally
	// cross-node element counts in (xfer[src*nodes+dst]), kept so a
	// CSHIFT, transpose or sort does not allocate a matrix each time.
	// Reuse is safe because one goroutine drives a runtime and neither
	// routine runs inside the other; transferScratch zeroes it on entry.
	xfer []int

	// Pre-resolved instrumentation points. The runtime fires points on
	// every operation whether or not anything is attached, so the PointID
	// hash was a fixed per-event tax; resolving once at construction (and
	// memoising span/block points by name) replaces it with an index load.
	sendEntry, sendExit dyninst.PointRef
	argsEntry, argsExit dyninst.PointRef
	dispEntry, dispExit dyninst.PointRef
	allocMap, freeMap   dyninst.PointRef
	spans               map[string]pointPair
	blocks              map[string]*blockPoints
}

// pointPair is a routine's resolved entry/exit point pair.
type pointPair struct {
	entry, exit dyninst.PointRef
}

// blockPoints caches a dispatched block's resolved points and its
// ground-truth counter key (the "dispatch:"+name concatenation is hoisted
// off the per-dispatch path along with the point hashes).
type blockPoints struct {
	pointPair
	countKey string
}

// New builds a runtime on a machine. inst may not be nil: the runtime
// always fires its points (firing an uninstrumented point is free).
func New(m *machine.Machine, inst *dyninst.Manager, costs Costs) (*Runtime, error) {
	if m == nil || inst == nil {
		return nil, fmt.Errorf("cmrts: machine and instrumentation manager are required")
	}
	rt := &Runtime{
		mach:      m,
		inst:      inst,
		costs:     costs,
		arrays:    make(map[ArrayID]*Array),
		counts:    make(map[string]int),
		sendEntry: inst.Resolve(dyninst.Entry(RoutineSend)),
		sendExit:  inst.Resolve(dyninst.Exit(RoutineSend)),
		argsEntry: inst.Resolve(dyninst.Entry(RoutineArgs)),
		argsExit:  inst.Resolve(dyninst.Exit(RoutineArgs)),
		dispEntry: inst.Resolve(dyninst.Entry(RoutineDispatch)),
		dispExit:  inst.Resolve(dyninst.Exit(RoutineDispatch)),
		allocMap:  inst.Resolve(dyninst.Mapping(RoutineAlloc)),
		freeMap:   inst.Resolve(dyninst.Mapping(RoutineFree)),
		spans:     make(map[string]pointPair),
		blocks:    make(map[string]*blockPoints),
	}
	return rt, nil
}

// span memoises the resolved entry/exit pair for a routine name.
func (rt *Runtime) span(routine string) pointPair {
	pr, ok := rt.spans[routine]
	if !ok {
		pr = pointPair{
			entry: rt.inst.Resolve(dyninst.Entry(routine)),
			exit:  rt.inst.Resolve(dyninst.Exit(routine)),
		}
		rt.spans[routine] = pr
	}
	return pr
}

// block memoises the resolved points and counter key for a block name.
func (rt *Runtime) block(name string) *blockPoints {
	bp, ok := rt.blocks[name]
	if !ok {
		bp = &blockPoints{
			pointPair: pointPair{
				entry: rt.inst.Resolve(dyninst.Entry(name)),
				exit:  rt.inst.Resolve(dyninst.Exit(name)),
			},
			countKey: "dispatch:" + name,
		}
		rt.blocks[name] = bp
	}
	return bp
}

// Machine returns the underlying machine.
func (rt *Runtime) Machine() *machine.Machine { return rt.mach }

// Inst returns the instrumentation manager.
func (rt *Runtime) Inst() *dyninst.Manager { return rt.inst }

// Count returns how many times a routine ran (ground truth for tests).
func (rt *Runtime) Count(routine string) int { return rt.counts[routine] }

// Array resolves an array ID.
func (rt *Runtime) Array(id ArrayID) (*Array, bool) {
	a, ok := rt.arrays[id]
	return a, ok
}

// Arrays lists live arrays in allocation order.
func (rt *Runtime) Arrays() []*Array {
	out := make([]*Array, 0, len(rt.order))
	for _, id := range rt.order {
		if a, ok := rt.arrays[id]; ok {
			out = append(out, a)
		}
	}
	return out
}

// nodes is a shorthand.
func (rt *Runtime) nodes() int { return rt.mach.Nodes() }

// parallelNodes runs a node-local loop body for every node, in node-id
// order, as one machine region (see machine.ParallelNodes). The body
// must confine itself to node n's chunk, clock and stats: fire no
// instrumentation points and issue no sends inside it.
func (rt *Runtime) parallelNodes(f func(node int)) {
	rt.mach.ParallelNodes(f)
}

// fireSpan wraps per-node entry/exit point firing around f, which must
// advance node clocks itself. Each span is an operation boundary: pending
// fail-stop crashes are enacted before the entry points fire, so a
// crashed node's instrumentation never observes work the node did not
// do. Permanently dead nodes are skipped entirely (their timers were
// wiped by the crash; leaving them un-fired keeps them honest).
func (rt *Runtime) fireSpan(routine, tag string, args []string, f func()) {
	rt.counts[routine]++
	pr := rt.span(routine)
	for n := 0; n < rt.nodes(); n++ {
		if !rt.mach.Engage(n) {
			continue
		}
		pr.entry.Fire(dyninst.Context{
			Node: n, Now: rt.mach.Now(n), Tag: tag, Args: args,
		})
	}
	f()
	for n := 0; n < rt.nodes(); n++ {
		if !rt.mach.Alive(n) {
			continue
		}
		pr.exit.Fire(dyninst.Context{
			Node: n, Now: rt.mach.Now(n), Tag: tag, Args: args,
		})
	}
}

// send performs one instrumented point-to-point transfer. A permanently
// dead sender sends nothing (and fires nothing); a dead receiver is the
// machine's concern — the message is charged to the sender and dropped
// in flight.
func (rt *Runtime) send(from, to, bytes int, tag string) {
	if !rt.mach.Engage(from) {
		return
	}
	rt.counts[RoutineSend]++
	rt.sendEntry.Fire(dyninst.Context{
		Node: from, Now: rt.mach.Now(from), Tag: tag, Bytes: bytes,
	})
	rt.mach.Send(from, to, bytes, tag)
	rt.sendExit.Fire(dyninst.Context{
		Node: from, Now: rt.mach.Now(from), Tag: tag, Bytes: bytes,
	})
}

// Allocate creates a parallel array named name (the source-level
// identifier) with the given shape, block-distributing it across the
// partition. The return point is a designated mapping point: the
// data-to-processor mapping has just been determined, and the tool's
// mapping instrumentation (if inserted) picks up the new noun and its
// subregion mappings from the point's arguments.
func (rt *Runtime) Allocate(name string, shape []int) (*Array, error) {
	if len(shape) == 0 {
		return nil, fmt.Errorf("cmrts: array %q needs at least one dimension", name)
	}
	size := 1
	for _, d := range shape {
		if d <= 0 {
			return nil, fmt.Errorf("cmrts: array %q has non-positive dimension %d", name, d)
		}
		size *= d
	}
	// The allocation estimate (8 bytes per element across the
	// partition) is governed before any chunk materialises: an
	// over-budget allocation aborts with nothing half-built.
	rt.mach.ChargeAlloc(int64(size) * 8)
	rt.seq++
	id := ArrayID("pvar" + strconv.Itoa(rt.seq))
	offsets := blockOffsets(size, rt.nodes())
	// One contiguous slab backs every node's chunk: block distribution
	// means the windows tile it exactly, and a single allocation (plus
	// better locality for cross-node sweeps) replaces one per node. Full
	// capacity windows keep any later per-node regrowth private.
	slab := make([]float64, size)
	a := &Array{
		ID:      id,
		Name:    name,
		Shape:   append([]int(nil), shape...),
		offsets: offsets,
		chunks:  make([][]float64, rt.nodes()),
	}
	rt.fireSpan(RoutineAlloc, name, []string{string(id), name}, func() {
		rt.parallelNodes(func(n int) {
			lo, hi := offsets[n], offsets[n+1]
			a.chunks[n] = slab[lo:hi:hi]
			rt.mach.AdvanceNode(n, rt.costs.AllocPerElem.Scale(hi-lo))
		})
	})
	rt.arrays[id] = a
	rt.order = append(rt.order, id)
	// The mapping point fires on the control processor after the
	// distribution is known.
	rt.allocMap.Fire(dyninst.Context{
		Node: machine.CP, Now: rt.mach.CPNow(), Tag: name,
		Args: []string{string(id), name, shapeString(shape)},
	})
	return a, nil
}

// Free deallocates an array. The mapping point tells the tool the noun is
// gone.
func (rt *Runtime) Free(a *Array) error {
	if a.freed {
		return fmt.Errorf("cmrts: double free of %s (%s)", a.ID, a.Name)
	}
	a.freed = true
	delete(rt.arrays, a.ID)
	rt.counts[RoutineFree]++
	rt.freeMap.Fire(dyninst.Context{
		Node: machine.CP, Now: rt.mach.CPNow(), Tag: a.Name,
		Args: []string{string(a.ID), a.Name},
	})
	return nil
}

// checkLive validates arrays for an operation.
func checkLive(arrays ...*Array) error {
	for _, a := range arrays {
		if a == nil {
			return fmt.Errorf("cmrts: nil array operand")
		}
		if a.freed {
			return fmt.Errorf("cmrts: use of freed array %s (%s)", a.ID, a.Name)
		}
	}
	return nil
}

// conformable checks equal sizes (CM Fortran requires conformable
// operands for elementwise operations).
func conformable(dst *Array, srcs ...*Array) error {
	for _, s := range srcs {
		if s.Size() != dst.Size() {
			return fmt.Errorf("cmrts: arrays %s (%d elems) and %s (%d elems) are not conformable",
				dst.Name, dst.Size(), s.Name, s.Size())
		}
	}
	return nil
}

// Fill sets every element to v: a broadcast of the scalar followed by a
// local fill on each node.
func (rt *Runtime) Fill(a *Array, v float64, tag string) error {
	if err := checkLive(a); err != nil {
		return err
	}
	rt.BroadcastScalar(v, tag)
	rt.fireSpan(RoutineCompute, tag, []string{string(a.ID)}, func() {
		rt.parallelNodes(func(n int) {
			for i := range a.chunks[n] {
				a.chunks[n][i] = v
			}
			rt.mach.Compute(n, len(a.chunks[n]), tag)
		})
	})
	return nil
}

// Elementwise computes dst[i] = fn(srcs[0][i], srcs[1][i], ...) on every
// node's local section. flops scales the per-element cost (a
// multiply-add is ~2). All operands must be conformable and identically
// distributed, which holds for arrays of equal size in this runtime.
// vals is the runtime's gather scratch, overwritten for the next
// element: fn must not retain it.
func (rt *Runtime) Elementwise(tag string, dst *Array, srcs []*Array, flops int, fn func(vals []float64) float64) error {
	if err := checkLive(append([]*Array{dst}, srcs...)...); err != nil {
		return err
	}
	if err := conformable(dst, srcs...); err != nil {
		return err
	}
	if flops < 1 {
		flops = 1
	}
	args := []string{string(dst.ID)}
	for _, s := range srcs {
		args = append(args, string(s.ID))
	}
	rt.fireSpan(RoutineCompute, tag, args, func() {
		vals := make([]float64, len(srcs))
		rt.parallelNodes(func(n int) {
			for i := range dst.chunks[n] {
				for k, s := range srcs {
					vals[k] = s.chunks[n][i]
				}
				dst.chunks[n][i] = fn(vals)
			}
			rt.mach.Compute(n, len(dst.chunks[n])*flops, tag)
		})
	})
	return nil
}

// ElementwiseIndexed computes dst[i] = fn(i) over flat indices; used for
// FORALL statements whose right-hand side depends on the index.
func (rt *Runtime) ElementwiseIndexed(tag string, dst *Array, flops int, fn func(flat int) float64) error {
	if err := checkLive(dst); err != nil {
		return err
	}
	if flops < 1 {
		flops = 1
	}
	rt.fireSpan(RoutineCompute, tag, []string{string(dst.ID)}, func() {
		rt.parallelNodes(func(n int) {
			base := dst.offsets[n]
			for i := range dst.chunks[n] {
				dst.chunks[n][i] = fn(base + i)
			}
			rt.mach.Compute(n, len(dst.chunks[n])*flops, tag)
		})
	})
	return nil
}

// Reduce computes a global reduction of a: each node reduces its local
// section, then partial results combine pairwise over point-to-point
// messages up a binary tree rooted at node 0, which reports to the
// control processor — the exact scenario of the paper's Figure 4/5
// example ("each node reduces its subsections before sending its local
// results to other nodes to compute the global reductions").
func (rt *Runtime) Reduce(a *Array, op ReduceOp, tag string) (float64, error) {
	if err := checkLive(a); err != nil {
		return 0, err
	}
	partial := make([]float64, rt.nodes())
	routine := op.Routine()
	rt.fireSpan(routine, tag, []string{string(a.ID)}, func() {
		// Local phase: each node reduces its own section (slot n of
		// partial). The combining tree below sends messages, so it runs
		// outside the region.
		rt.parallelNodes(func(n int) {
			// A permanently dead node contributes the operator identity:
			// the reduction honestly combines the survivors only (the tool
			// annotates the answer as partial).
			if !rt.mach.Alive(n) {
				partial[n] = identity(op)
				return
			}
			partial[n] = localReduce(a.chunks[n], op)
			rt.mach.Compute(n, len(a.chunks[n]), tag)
		})
		for stride := 1; stride < rt.nodes(); stride *= 2 {
			for lo := 0; lo+stride < rt.nodes(); lo += 2 * stride {
				rt.send(lo+stride, lo, elemBytes, tag)
				partial[lo] = combine(partial[lo], partial[lo+stride], op)
				rt.mach.Compute(lo, 1, tag)
			}
		}
		// Node 0 reports the result to the control processor.
		rt.mach.WaitCPForNodes()
		rt.mach.AdvanceCP(rt.mach.Config().MessageLatency)
	})
	return partial[0], nil
}

func localReduce(vals []float64, op ReduceOp) float64 {
	switch op {
	case OpSum:
		s := 0.0
		for _, v := range vals {
			s += v
		}
		return s
	case OpMax:
		m := math.Inf(-1)
		for _, v := range vals {
			if v > m {
				m = v
			}
		}
		return m
	default:
		m := math.Inf(1)
		for _, v := range vals {
			if v < m {
				m = v
			}
		}
		return m
	}
}

func combine(x, y float64, op ReduceOp) float64 {
	switch op {
	case OpSum:
		return x + y
	case OpMax:
		return math.Max(x, y)
	default:
		return math.Min(x, y)
	}
}

// identity returns the operator's neutral element, the contribution of a
// permanently dead node to a degraded reduction.
func identity(op ReduceOp) float64 {
	switch op {
	case OpSum:
		return 0
	case OpMax:
		return math.Inf(-1)
	default:
		return math.Inf(1)
	}
}

// DotProduct computes the global inner product of two conformable
// arrays: each node combines its local sections (two flops per element)
// and the partials sum over the same point-to-point tree as Reduce. At
// the runtime level this is a summation, so it fires the
// CMRTS_reduce_sum points and counts toward the reduction metrics.
func (rt *Runtime) DotProduct(a, b *Array, tag string) (float64, error) {
	if err := checkLive(a, b); err != nil {
		return 0, err
	}
	if err := conformable(a, b); err != nil {
		return 0, err
	}
	partial := make([]float64, rt.nodes())
	rt.fireSpan(RoutineReduceSum, tag, []string{string(a.ID), string(b.ID)}, func() {
		rt.parallelNodes(func(n int) {
			if !rt.mach.Alive(n) {
				return
			}
			var s float64
			for i, av := range a.chunks[n] {
				s += av * b.chunks[n][i]
			}
			partial[n] = s
			rt.mach.Compute(n, 2*len(a.chunks[n]), tag)
		})
		for stride := 1; stride < rt.nodes(); stride *= 2 {
			for lo := 0; lo+stride < rt.nodes(); lo += 2 * stride {
				rt.send(lo+stride, lo, elemBytes, tag)
				partial[lo] += partial[lo+stride]
				rt.mach.Compute(lo, 1, tag)
			}
		}
		rt.mach.WaitCPForNodes()
		rt.mach.AdvanceCP(rt.mach.Config().MessageLatency)
	})
	return partial[0], nil
}

// BroadcastScalar sends a scalar from the control processor to all nodes
// (Figure 9's "Broadcasts"). The value itself is immaterial to the cost
// model; the parameter documents intent at call sites.
func (rt *Runtime) BroadcastScalar(_ float64, tag string) {
	rt.fireSpan(RoutineBroadcast, tag, nil, func() {
		rt.mach.Broadcast(elemBytes, tag)
	})
}

// transferScratch returns the runtime's transfer-count scratch, zeroed.
func (rt *Runtime) transferScratch() []int {
	if n := rt.nodes() * rt.nodes(); len(rt.xfer) != n {
		rt.xfer = make([]int, n)
	} else {
		clear(rt.xfer)
	}
	return rt.xfer
}

// sendTransfers issues one point-to-point message per source/destination
// pair of distinct nodes that counts says exchanges elements, in
// (source, destination) order.
func (rt *Runtime) sendTransfers(counts []int, tag string) {
	nodes := rt.nodes()
	for src := 0; src < nodes; src++ {
		for dst := 0; dst < nodes; dst++ {
			if n := counts[src*nodes+dst]; src != dst && n > 0 {
				rt.send(src, dst, n*elemBytes, tag)
			}
		}
	}
}

// redistribute moves data according to perm (a bijection on flat
// indices): it counts how many elements travel from each source node to
// each destination node, issues the point-to-point transfers that
// implies, then rewrites the stored values. It is the common engine
// behind rotations, transposes and sorts.
func (rt *Runtime) redistribute(a *Array, perm func(int) int, tag string) {
	nodes := rt.nodes()
	counts := rt.transferScratch()
	for src := 0; src < nodes; src++ {
		for i := a.offsets[src]; i < a.offsets[src+1]; i++ {
			counts[src*nodes+a.HomeNode(perm(i))]++
		}
	}
	rt.sendTransfers(counts, tag)
	applyPermutation(a, perm)
}

// Rotate circularly shifts the flattened array by offset (CM Fortran
// CSHIFT). Elements that cross chunk boundaries travel as point-to-point
// messages between neighbouring nodes.
func (rt *Runtime) Rotate(a *Array, offset int, tag string) error {
	if err := checkLive(a); err != nil {
		return err
	}
	size := a.Size()
	if size == 0 {
		return nil
	}
	off := ((offset % size) + size) % size
	rt.fireSpan(RoutineRotate, tag, []string{string(a.ID)}, func() {
		rt.redistribute(a, func(i int) int { return (i + off) % size }, tag)
		rt.parallelNodes(func(n int) {
			rt.mach.Compute(n, len(a.chunks[n]), tag)
		})
	})
	return nil
}

// Shift shifts the flattened array by offset, filling vacated positions
// with fill (CM Fortran EOSHIFT).
func (rt *Runtime) Shift(a *Array, offset int, fill float64, tag string) error {
	if err := checkLive(a); err != nil {
		return err
	}
	size := a.Size()
	if size == 0 {
		return nil
	}
	rt.fireSpan(RoutineShift, tag, []string{string(a.ID)}, func() {
		// Count cross-node movement of surviving elements.
		nodes := rt.nodes()
		counts := rt.transferScratch()
		old := a.Flat()
		next := make([]float64, size)
		for i := range next {
			next[i] = fill
		}
		for i := 0; i < size; i++ {
			j := i + offset
			if j < 0 || j >= size {
				continue
			}
			next[j] = old[i]
			counts[a.HomeNode(i)*nodes+a.HomeNode(j)]++
		}
		rt.sendTransfers(counts, tag)
		for i, v := range next {
			a.setAt(i, v)
		}
		rt.parallelNodes(func(n int) {
			rt.mach.Compute(n, len(a.chunks[n]), tag)
		})
	})
	return nil
}

// Transpose transposes a 2-D array in place (shape becomes reversed).
// The movement is an all-to-all pattern of point-to-point transfers.
func (rt *Runtime) Transpose(a *Array, tag string) error {
	if err := checkLive(a); err != nil {
		return err
	}
	if a.Rank() != 2 {
		return fmt.Errorf("cmrts: TRANSPOSE needs a 2-D array, %s is %d-D", a.Name, a.Rank())
	}
	rows, cols := a.Shape[0], a.Shape[1]
	rt.fireSpan(RoutineTranspose, tag, []string{string(a.ID)}, func() {
		perm := func(i int) int {
			r, c := i/cols, i%cols
			return c*rows + r
		}
		rt.redistribute(a, perm, tag)
		rt.parallelNodes(func(n int) {
			rt.mach.Compute(n, len(a.chunks[n]), tag)
		})
	})
	a.Shape[0], a.Shape[1] = cols, rows
	return nil
}

// Scan computes an inclusive prefix reduction (CM Fortran SCAN /
// CMSSL-style): local prefix on each node, a carry chain of small
// messages between neighbouring nodes, then a local adjustment pass.
func (rt *Runtime) Scan(a *Array, op ReduceOp, tag string) error {
	if err := checkLive(a); err != nil {
		return err
	}
	rt.fireSpan(RoutineScan, tag, []string{string(a.ID)}, func() {
		carry := 0.0
		haveCarry := false
		for n := 0; n < rt.nodes(); n++ {
			c := a.chunks[n]
			for i := range c {
				if i > 0 {
					c[i] = combine(c[i-1], c[i], op)
				}
			}
			rt.mach.Compute(n, 2*len(c), tag)
			if haveCarry {
				for i := range c {
					c[i] = combine(carry, c[i], op)
				}
			}
			if len(c) > 0 {
				carry = c[len(c)-1]
				haveCarry = true
			}
			if n+1 < rt.nodes() {
				rt.send(n, n+1, elemBytes, tag)
			}
		}
	})
	return nil
}

// Sort sorts the flattened array ascending. The data movement models a
// sample-sort: local sort compute on each node, then the all-to-all
// exchange implied by where each element ranks globally.
func (rt *Runtime) Sort(a *Array, tag string) error {
	if err := checkLive(a); err != nil {
		return err
	}
	rt.fireSpan(RoutineSort, tag, []string{string(a.ID)}, func() {
		old := a.Flat()
		idx := make([]int, len(old))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(x, y int) bool { return old[idx[x]] < old[idx[y]] })
		rank := make([]int, len(old))
		for r, i := range idx {
			rank[i] = r
		}
		rt.parallelNodes(func(n int) {
			local := len(a.chunks[n])
			cost := local * rt.costs.SortFactor * log2ceil(local)
			rt.mach.Compute(n, cost, tag)
		})
		rt.redistribute(a, func(i int) int { return rank[i] }, tag)
	})
	return nil
}

func log2ceil(n int) int {
	if n <= 1 {
		return 1
	}
	l := 0
	for v := n - 1; v > 0; v >>= 1 {
		l++
	}
	return l
}

// Cleanup resets the node vector units (Figure 9's "Cleanups").
func (rt *Runtime) Cleanup(tag string) {
	rt.fireSpan(RoutineCleanup, tag, nil, func() {
		for n := 0; n < rt.nodes(); n++ {
			rt.mach.AdvanceNode(n, rt.costs.CleanupCost)
		}
	})
}

// DispatchBlock runs a node code block: the control processor activates
// the block on every node (paying dispatch latency and per-node argument
// processing), the block body executes runtime operations, and the
// control processor waits for completion.
//
// The block's entry point fires with the argument array IDs in
// Context.Args — "the CMRTS node code block dispatcher notifies the SAS
// of array activation/deactivation by sending the input arguments for
// each node code block to the SAS" (Section 6.1). The tool implements
// that notification as an inserted snippet; the runtime only delivers the
// arguments.
func (rt *Runtime) DispatchBlock(name string, args []ArrayID, body func() error) error {
	argStrings := make([]string, len(args))
	argBytes := 16
	for i, id := range args {
		argStrings[i] = string(id)
		argBytes += 8
	}
	bp := rt.block(name)
	rt.counts[bp.countKey]++
	rt.mach.Dispatch(name, argBytes)

	// Argument processing spans: the machine just charged PerByte*argBytes
	// to each node at the end of its dispatch wait.
	argCost := rt.mach.Config().PerByte.Scale(argBytes)
	for n := 0; n < rt.nodes(); n++ {
		if !rt.mach.Engage(n) {
			continue
		}
		end := rt.mach.Now(n)
		rt.argsEntry.Fire(dyninst.Context{
			Node: n, Now: end.Add(-argCost), Tag: name, Bytes: argBytes, Args: argStrings,
		})
		rt.argsExit.Fire(dyninst.Context{
			Node: n, Now: end, Tag: name, Bytes: argBytes, Args: argStrings,
		})
	}

	// The dispatcher point brackets the block body on every node; the
	// tool's array/statement gating instruments this single point pair
	// instead of every generated block.
	for n := 0; n < rt.nodes(); n++ {
		if !rt.mach.Alive(n) {
			continue
		}
		ctx := dyninst.Context{Node: n, Now: rt.mach.Now(n), Tag: name, Args: argStrings}
		rt.dispEntry.Fire(ctx)
		bp.entry.Fire(ctx)
	}
	err := body()
	for n := 0; n < rt.nodes(); n++ {
		if !rt.mach.Alive(n) {
			continue
		}
		ctx := dyninst.Context{Node: n, Now: rt.mach.Now(n), Tag: name, Args: argStrings}
		bp.exit.Fire(ctx)
		rt.dispExit.Fire(ctx)
	}
	rt.mach.WaitCPForNodes()
	return err
}
