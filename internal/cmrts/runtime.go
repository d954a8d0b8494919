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
//
// A node's local section is the unit of work. An array is one contiguous
// slab that the nodes' sections tile (Array.Local is a window on it):
// Elementwise hands a statement's kernel one section per node, reductions
// sweep a section, and CSHIFT/EOSHIFT derive their node-to-node transfer
// counts from interval overlaps and move the data as block copies. Only
// transposes and sorts, whose permutations are arbitrary, go element by
// element (redistribute). The scratch these routines need lives on the
// Runtime, so a warmed communication routine allocates nothing but the
// argument slice its span reports.
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

	// xfer is the flat nodes × nodes scratch the data-movement routines
	// tally cross-node element counts in (xfer[src*nodes+dst]); partial is
	// the per-node scratch of Reduce and DotProduct; moved is where Rotate
	// and redistribute park the old values while they rewrite an array.
	// They are kept so that no communication routine allocates per call.
	// Reuse is safe because one goroutine drives a runtime and no routine
	// runs inside another; xfer and partial are zeroed on entry.
	xfer    []int
	partial []float64
	moved   []float64

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

// blockPoints caches a dispatched block's resolved points, its
// ground-truth counter key (the "dispatch:"+name concatenation is hoisted
// off the per-dispatch path along with the point hashes) and the argument
// strings of its last dispatch. args is replaced, never mutated, when a
// dispatch passes different IDs: snippets may hold Context.Args.
type blockPoints struct {
	pointPair
	countKey string
	args     []string
}

// argStrings returns ids as the block's Context.Args, reusing the last
// dispatch's slice when the IDs are the same.
func (bp *blockPoints) argStrings(ids []ArrayID) []string {
	same := len(ids) == len(bp.args)
	for i := 0; same && i < len(ids); i++ {
		same = string(ids[i]) == bp.args[i]
	}
	if !same {
		bp.args = make([]string, len(ids))
		for i, id := range ids {
			bp.args[i] = string(id)
		}
	}
	return bp.args
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
	// One contiguous slab is the array: block distribution means the
	// nodes' sections tile it exactly, so a section is a window (Local)
	// and whole-array data movement is block copies.
	a := &Array{
		ID:      id,
		Name:    name,
		Shape:   append([]int(nil), shape...),
		data:    make([]float64, size),
		offsets: offsets,
	}
	rt.fireSpan(RoutineAlloc, name, []string{string(id), name}, func() {
		rt.parallelNodes(func(n int) {
			rt.mach.AdvanceNode(n, rt.costs.AllocPerElem.Scale(a.LocalLen(n)))
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
			local := a.Local(n)
			for i := range local {
				local[i] = v
			}
			rt.mach.Compute(n, len(local), tag)
		})
	})
	return nil
}

// Kernel computes one node's section of an elementwise statement in
// place: out is that node's live destination section, whose first element
// has flat index lo. It reads its operands through Array.Local(node); an
// operand element may be read before, never after, the same element of
// out is written, so the destination may be among the operands.
type Kernel func(node, lo int, out []float64)

// Elementwise runs kernel once per node over dst's local section and
// charges each node len(section)*flops elemental operations (a
// multiply-add is ~2). srcs are the operand arrays the compute points
// report after dst in Context.Args; they must be conformable with dst
// and are therefore identically distributed.
func (rt *Runtime) Elementwise(tag string, dst *Array, srcs []*Array, flops int, kernel Kernel) error {
	if err := checkLive(dst); err != nil {
		return err
	}
	if err := checkLive(srcs...); err != nil {
		return err
	}
	if err := conformable(dst, srcs...); err != nil {
		return err
	}
	if flops < 1 {
		flops = 1
	}
	args := make([]string, 1+len(srcs))
	args[0] = string(dst.ID)
	for i, s := range srcs {
		args[1+i] = string(s.ID)
	}
	rt.fireSpan(RoutineCompute, tag, args, func() {
		rt.parallelNodes(func(n int) {
			out := dst.Local(n)
			kernel(n, dst.offsets[n], out)
			rt.mach.Compute(n, len(out)*flops, tag)
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
	partial := zeroed(&rt.partial, rt.nodes())
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
			partial[n] = localReduce(a.Local(n), op)
			rt.mach.Compute(n, a.LocalLen(n), tag)
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
	partial := zeroed(&rt.partial, rt.nodes())
	rt.fireSpan(RoutineReduceSum, tag, []string{string(a.ID), string(b.ID)}, func() {
		rt.parallelNodes(func(n int) {
			if !rt.mach.Alive(n) {
				return
			}
			av, bv := a.Local(n), b.Local(n)
			bv = bv[:len(av)]
			var s float64
			for i, x := range av {
				s += x * bv[i]
			}
			partial[n] = s
			rt.mach.Compute(n, 2*len(av), tag)
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

// zeroed returns the scratch *buf at length n, all zero.
func zeroed[T any](buf *[]T, n int) []T {
	if len(*buf) != n {
		*buf = make([]T, n)
	} else {
		clear(*buf)
	}
	return *buf
}

// transferScratch returns the runtime's transfer-count scratch, zeroed.
func (rt *Runtime) transferScratch() []int {
	return zeroed(&rt.xfer, rt.nodes()*rt.nodes())
}

// parkValues copies a's data into the runtime's moved scratch and returns
// the copy: the old values a routine reads while it rewrites a in place.
func (rt *Runtime) parkValues(a *Array) []float64 {
	if cap(rt.moved) < len(a.data) {
		rt.moved = make([]float64, len(a.data))
	}
	old := rt.moved[:len(a.data)]
	copy(old, a.data)
	return old
}

// countMoves tallies, for source elements [lo, hi) of a that all move by
// shift without wrapping, how many travel from each source node to each
// destination node. It intersects section intervals, so it costs
// O(nodes) whatever the array's size: a source section lands on a run of
// consecutive destination sections.
func countMoves(counts []int, a *Array, lo, hi, shift int) {
	nodes := len(a.offsets) - 1
	for src := 0; src < nodes; src++ {
		from, to := max(lo, a.offsets[src])+shift, min(hi, a.offsets[src+1])+shift
		if from >= to {
			continue
		}
		for dst := a.HomeNode(from); dst < nodes && a.offsets[dst] < to; dst++ {
			if n := min(to, a.offsets[dst+1]) - max(from, a.offsets[dst]); n > 0 {
				counts[src*nodes+dst] += n
			}
		}
	}
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
// implies, then rewrites the stored values so old[i] lands at perm(i).
// It is the generic engine, behind transposes and sorts; a rotation's
// permutation is two intervals and takes the short cut in Rotate.
func (rt *Runtime) redistribute(a *Array, perm func(int) int, tag string) {
	nodes := rt.nodes()
	counts := rt.transferScratch()
	for src := 0; src < nodes; src++ {
		for i := a.offsets[src]; i < a.offsets[src+1]; i++ {
			counts[src*nodes+a.HomeNode(perm(i))]++
		}
	}
	rt.sendTransfers(counts, tag)
	for i, v := range rt.parkValues(a) {
		a.data[perm(i)] = v
	}
}

// Rotate circularly shifts the flattened array by offset (CM Fortran
// CSHIFT). Elements that cross section boundaries travel as
// point-to-point messages between nodes. The permutation i -> (i+off)
// mod size is two intervals, each moving by a constant, so the transfer
// counts come from interval overlaps and the data moves as two block
// copies — the same matrix, sends and result as redistribute with that
// permutation, without the per-element work.
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
		counts := rt.transferScratch()
		countMoves(counts, a, 0, size-off, off)
		countMoves(counts, a, size-off, size, off-size)
		rt.sendTransfers(counts, tag)
		old := rt.parkValues(a)
		copy(a.data[off:], old[:size-off])
		copy(a.data[:off], old[size-off:])
		rt.parallelNodes(func(n int) {
			rt.mach.Compute(n, a.LocalLen(n), tag)
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
	// Past ±size every element is shifted out alike.
	offset = max(-size, min(size, offset))
	rt.fireSpan(RoutineShift, tag, []string{string(a.ID)}, func() {
		// Elements [lo, hi) survive, all moving by offset: one interval
		// to count and one block copy (copy is overlap-safe); what they
		// vacate is filled.
		lo, hi := max(0, -offset), min(size, size-offset)
		counts := rt.transferScratch()
		countMoves(counts, a, lo, hi, offset)
		rt.sendTransfers(counts, tag)
		copy(a.data[lo+offset:hi+offset], a.data[lo:hi])
		for i := 0; i < lo+offset; i++ {
			a.data[i] = fill
		}
		for i := hi + offset; i < size; i++ {
			a.data[i] = fill
		}
		rt.parallelNodes(func(n int) {
			rt.mach.Compute(n, a.LocalLen(n), tag)
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
			rt.mach.Compute(n, a.LocalLen(n), tag)
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
			c := a.Local(n)
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
		// a.data stays put until redistribute, so the ranking reads it
		// in place.
		old := a.data
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
			local := a.LocalLen(n)
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
//
// args is read during the call and not retained.
func (rt *Runtime) DispatchBlock(name string, args []ArrayID, body func() error) error {
	bp := rt.block(name)
	argStrings := bp.argStrings(args)
	argBytes := 16 + 8*len(args)
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
