package cmrts

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"nvmap/internal/dyninst"
	"nvmap/internal/machine"
)

func newRuntime(t *testing.T, nodes int) *Runtime {
	t.Helper()
	m, err := machine.New(machine.DefaultConfig(nodes))
	if err != nil {
		t.Fatal(err)
	}
	inst := dyninst.NewManager(dyninst.DefaultCosts(), m.AdvanceNode)
	rt, err := New(m, inst, DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func alloc(t *testing.T, rt *Runtime, name string, shape ...int) *Array {
	t.Helper()
	a, err := rt.Allocate(name, shape)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// setEach runs one Elementwise over a storing fn(flat index) in every
// element: the indexed-update shape of a FORALL.
func setEach(rt *Runtime, tag string, a *Array, fn func(i int) float64) error {
	return rt.Elementwise(tag, a, nil, 1, func(_, lo int, out []float64) {
		for i := range out {
			out[i] = fn(lo + i)
		}
	})
}

func fillRamp(t *testing.T, rt *Runtime, a *Array) {
	t.Helper()
	if err := setEach(rt, "ramp", a, func(i int) float64 { return float64(i) }); err != nil {
		t.Fatal(err)
	}
}

func TestNewValidation(t *testing.T) {
	m, _ := machine.New(machine.DefaultConfig(2))
	if _, err := New(nil, dyninst.NewManager(dyninst.CostModel{}, nil), DefaultCosts()); err == nil {
		t.Fatal("nil machine accepted")
	}
	if _, err := New(m, nil, DefaultCosts()); err == nil {
		t.Fatal("nil instrumentation manager accepted")
	}
}

func TestAllocateDistributesBlocks(t *testing.T) {
	rt := newRuntime(t, 4)
	a := alloc(t, rt, "TOT", 10)
	if a.Size() != 10 || a.Rank() != 1 {
		t.Fatalf("size/rank = %d/%d", a.Size(), a.Rank())
	}
	// 10 over 4 nodes: 3,3,2,2.
	wantLens := []int{3, 3, 2, 2}
	subs := a.Subregions()
	for n, want := range wantLens {
		if a.LocalLen(n) != want {
			t.Fatalf("node %d local len = %d, want %d", n, a.LocalLen(n), want)
		}
		if subs[n].Hi-subs[n].Lo != want {
			t.Fatalf("subregion %v length mismatch", subs[n])
		}
	}
	if subs[0].Lo != 0 || subs[3].Hi != 10 {
		t.Fatalf("subregions don't cover: %v", subs)
	}
	if a.HomeNode(0) != 0 || a.HomeNode(9) != 3 || a.HomeNode(5) != 1 {
		t.Fatal("HomeNode wrong")
	}
	if got := subs[2].String(); got != "node2:[6,8)" {
		t.Fatalf("Subregion.String = %q", got)
	}
}

func TestAllocateValidation(t *testing.T) {
	rt := newRuntime(t, 2)
	if _, err := rt.Allocate("bad", nil); err == nil {
		t.Fatal("empty shape accepted")
	}
	if _, err := rt.Allocate("bad", []int{4, 0}); err == nil {
		t.Fatal("zero dimension accepted")
	}
}

func TestAllocateFiresMappingPoint(t *testing.T) {
	rt := newRuntime(t, 2)
	var got []string
	rt.Inst().Insert(dyninst.Mapping(RoutineAlloc), dyninst.Snippet{
		Do: func(ctx dyninst.Context) { got = append([]string(nil), ctx.Args...) },
	})
	a := alloc(t, rt, "A", 8, 8)
	if len(got) != 3 || got[0] != string(a.ID) || got[1] != "A" || got[2] != "8x8" {
		t.Fatalf("mapping point args = %v", got)
	}
	if _, ok := rt.Array(a.ID); !ok {
		t.Fatal("array not registered")
	}
}

func TestFreeLifecycle(t *testing.T) {
	rt := newRuntime(t, 2)
	a := alloc(t, rt, "A", 16)
	if err := rt.Free(a); err != nil {
		t.Fatal(err)
	}
	if err := rt.Free(a); err == nil {
		t.Fatal("double free accepted")
	}
	if _, ok := rt.Array(a.ID); ok {
		t.Fatal("freed array still registered")
	}
	if err := rt.Fill(a, 1, "x"); err == nil {
		t.Fatal("use after free accepted")
	}
	if len(rt.Arrays()) != 0 {
		t.Fatal("Arrays lists freed array")
	}
}

func TestFillAndFlat(t *testing.T) {
	rt := newRuntime(t, 3)
	a := alloc(t, rt, "A", 7)
	if err := rt.Fill(a, 2.5, "fill"); err != nil {
		t.Fatal(err)
	}
	for i, v := range a.Flat() {
		if v != 2.5 {
			t.Fatalf("element %d = %g", i, v)
		}
	}
	// Fill broadcasts the scalar.
	if rt.Count(RoutineBroadcast) != 1 {
		t.Fatalf("broadcasts = %d", rt.Count(RoutineBroadcast))
	}
}

func TestElementwise(t *testing.T) {
	rt := newRuntime(t, 4)
	a := alloc(t, rt, "A", 100)
	b := alloc(t, rt, "B", 100)
	c := alloc(t, rt, "C", 100)
	fillRamp(t, rt, a)
	if err := rt.Fill(b, 10, "fill"); err != nil {
		t.Fatal(err)
	}
	err := rt.Elementwise("add", c, []*Array{a, b}, 1, func(node, _ int, out []float64) {
		av, bv := a.Local(node), b.Local(node)
		for i := range out {
			out[i] = av[i] + bv[i]
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range c.Flat() {
		if v != float64(i)+10 {
			t.Fatalf("c[%d] = %g", i, v)
		}
	}
	// Compute advanced every node's clock.
	for n := 0; n < 4; n++ {
		if rt.Machine().Stats(n).ComputeOps == 0 {
			t.Fatalf("node %d did no compute", n)
		}
	}
}

func TestElementwiseValidation(t *testing.T) {
	rt := newRuntime(t, 2)
	a := alloc(t, rt, "A", 10)
	b := alloc(t, rt, "B", 20)
	if err := rt.Elementwise("x", a, []*Array{b}, 1, func(int, int, []float64) {}); err == nil {
		t.Fatal("non-conformable accepted")
	}
	if err := rt.Elementwise("x", a, []*Array{nil}, 1, nil); err == nil {
		t.Fatal("nil operand accepted")
	}
}

func TestReduceValues(t *testing.T) {
	rt := newRuntime(t, 4)
	a := alloc(t, rt, "A", 101)
	fillRamp(t, rt, a)

	sum, err := rt.Reduce(a, OpSum, "SUM(A)")
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(100 * 101 / 2); sum != want {
		t.Fatalf("SUM = %g, want %g", sum, want)
	}
	max, _ := rt.Reduce(a, OpMax, "MAXVAL(A)")
	if max != 100 {
		t.Fatalf("MAXVAL = %g", max)
	}
	min, _ := rt.Reduce(a, OpMin, "MINVAL(A)")
	if min != 0 {
		t.Fatalf("MINVAL = %g", min)
	}
	if rt.Count(RoutineReduceSum) != 1 || rt.Count(RoutineReduceMax) != 1 || rt.Count(RoutineReduceMin) != 1 {
		t.Fatal("reduce counts wrong")
	}
	// The reduction advanced the CP clock past every node's send.
	if rt.Machine().CPNow() == 0 {
		t.Fatal("CP clock did not advance")
	}
}

func TestReduceOpNames(t *testing.T) {
	if OpSum.String() != "SUM" || OpMax.String() != "MAXVAL" || OpMin.String() != "MINVAL" {
		t.Fatal("op names wrong")
	}
	if OpSum.Routine() != RoutineReduceSum || OpMax.Routine() != RoutineReduceMax || OpMin.Routine() != RoutineReduceMin {
		t.Fatal("op routines wrong")
	}
}

func TestRotate(t *testing.T) {
	rt := newRuntime(t, 4)
	a := alloc(t, rt, "A", 10)
	fillRamp(t, rt, a)
	if err := rt.Rotate(a, 3, "CSHIFT"); err != nil {
		t.Fatal(err)
	}
	flat := a.Flat()
	for i := 0; i < 10; i++ {
		want := float64((i - 3 + 10) % 10)
		if flat[i] != want {
			t.Fatalf("rotated[%d] = %g, want %g", i, flat[i], want)
		}
	}
	if rt.Count(RoutineSend) == 0 {
		t.Fatal("rotation crossed no node boundary?")
	}
	// Negative and oversized offsets.
	if err := rt.Rotate(a, -13, "CSHIFT"); err != nil {
		t.Fatal(err)
	}
	flat = a.Flat()
	if flat[0] != 0 {
		t.Fatalf("after -13 (net -10-3+3=...): flat=%v", flat[:4])
	}
}

func TestShiftEndOff(t *testing.T) {
	rt := newRuntime(t, 2)
	a := alloc(t, rt, "A", 6)
	fillRamp(t, rt, a)
	if err := rt.Shift(a, 2, -1, "EOSHIFT"); err != nil {
		t.Fatal(err)
	}
	want := []float64{-1, -1, 0, 1, 2, 3}
	for i, v := range a.Flat() {
		if v != want[i] {
			t.Fatalf("shifted = %v, want %v", a.Flat(), want)
		}
	}
	if err := rt.Shift(a, -100, 9, "EOSHIFT"); err != nil {
		t.Fatal(err)
	}
	for _, v := range a.Flat() {
		if v != 9 {
			t.Fatal("oversized shift should fill everything")
		}
	}
}

func TestTranspose(t *testing.T) {
	rt := newRuntime(t, 4)
	a := alloc(t, rt, "M", 3, 4)
	fillRamp(t, rt, a) // M[r][c] = 4r + c
	if err := rt.Transpose(a, "TRANSPOSE"); err != nil {
		t.Fatal(err)
	}
	if a.Shape[0] != 4 || a.Shape[1] != 3 {
		t.Fatalf("shape after transpose = %v", a.Shape)
	}
	// New M[c][r] should equal old M[r][c] = 4r + c.
	for c := 0; c < 4; c++ {
		for r := 0; r < 3; r++ {
			got := a.At(c*3 + r)
			if got != float64(4*r+c) {
				t.Fatalf("T[%d][%d] = %g, want %d", c, r, got, 4*r+c)
			}
		}
	}
	b := alloc(t, rt, "V", 5)
	if err := rt.Transpose(b, "x"); err == nil {
		t.Fatal("1-D transpose accepted")
	}
}

func TestScan(t *testing.T) {
	rt := newRuntime(t, 3)
	a := alloc(t, rt, "A", 8)
	if err := rt.Fill(a, 1, "fill"); err != nil {
		t.Fatal(err)
	}
	if err := rt.Scan(a, OpSum, "SCAN"); err != nil {
		t.Fatal(err)
	}
	for i, v := range a.Flat() {
		if v != float64(i+1) {
			t.Fatalf("scan[%d] = %g, want %d", i, v, i+1)
		}
	}
	// Carry chain: nodes-1 sends.
	if rt.Count(RoutineSend) != 2 {
		t.Fatalf("scan sends = %d, want 2", rt.Count(RoutineSend))
	}
}

func TestScanMax(t *testing.T) {
	rt := newRuntime(t, 2)
	a := alloc(t, rt, "A", 5)
	vals := []float64{3, 1, 4, 1, 5}
	if err := setEach(rt, "init", a, func(i int) float64 { return vals[i] }); err != nil {
		t.Fatal(err)
	}
	if err := rt.Scan(a, OpMax, "SCANMAX"); err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 3, 4, 4, 5}
	for i, v := range a.Flat() {
		if v != want[i] {
			t.Fatalf("scanmax = %v, want %v", a.Flat(), want)
		}
	}
}

func TestSort(t *testing.T) {
	rt := newRuntime(t, 4)
	a := alloc(t, rt, "A", 64)
	if err := setEach(rt, "init", a, func(i int) float64 {
		return float64((i*37)%64) - 10
	}); err != nil {
		t.Fatal(err)
	}
	if err := rt.Sort(a, "SORT"); err != nil {
		t.Fatal(err)
	}
	flat := a.Flat()
	for i := 1; i < len(flat); i++ {
		if flat[i-1] > flat[i] {
			t.Fatalf("not sorted at %d: %g > %g", i, flat[i-1], flat[i])
		}
	}
	if rt.Count(RoutineSend) == 0 {
		t.Fatal("sort moved no data between nodes")
	}
}

func TestCleanupAndCounts(t *testing.T) {
	rt := newRuntime(t, 2)
	before := rt.Machine().Now(0)
	rt.Cleanup("reset")
	if rt.Machine().Now(0) == before {
		t.Fatal("cleanup cost nothing")
	}
	if rt.Count(RoutineCleanup) != 1 {
		t.Fatal("cleanup not counted")
	}
}

func TestDispatchBlock(t *testing.T) {
	rt := newRuntime(t, 4)
	a := alloc(t, rt, "A", 32)

	var entryArgs []string
	var argSpans int
	rt.Inst().Insert(dyninst.Entry("cmpe_main_1_"), dyninst.Snippet{
		Do: func(ctx dyninst.Context) {
			entryArgs = append([]string(nil), ctx.Args...)
		},
	})
	rt.Inst().Insert(dyninst.Exit(RoutineArgs), dyninst.Snippet{
		Do: func(ctx dyninst.Context) { argSpans++ },
	})

	ran := false
	err := rt.DispatchBlock("cmpe_main_1_", []ArrayID{a.ID}, func() error {
		ran = true
		return rt.Fill(a, 1, "cmpe_main_1_")
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("body did not run")
	}
	if len(entryArgs) != 1 || entryArgs[0] != string(a.ID) {
		t.Fatalf("block entry args = %v", entryArgs)
	}
	if argSpans != 4 {
		t.Fatalf("argument-processing exits = %d, want one per node", argSpans)
	}
	// Node activations: one dispatch per node.
	for n := 0; n < 4; n++ {
		if rt.Machine().Stats(n).Dispatches != 1 {
			t.Fatalf("node %d dispatches = %d", n, rt.Machine().Stats(n).Dispatches)
		}
	}
	// The CP waited for the block to finish.
	if rt.Machine().CPNow().Before(rt.Machine().Now(0)) {
		t.Fatal("CP did not wait for nodes")
	}
}

func TestUninstrumentedRunHasZeroPerturbation(t *testing.T) {
	rt := newRuntime(t, 4)
	a := alloc(t, rt, "A", 256)
	fillRamp(t, rt, a)
	if _, err := rt.Reduce(a, OpSum, "SUM"); err != nil {
		t.Fatal(err)
	}
	if err := rt.Rotate(a, 5, "CSHIFT"); err != nil {
		t.Fatal(err)
	}
	if st := rt.Inst().Stats(); st.Perturbation != 0 || st.Fires != 0 {
		t.Fatalf("uninstrumented run perturbed: %+v", st)
	}
}

// Property: rotation never loses elements (the multiset is preserved) and
// composing rotate(k) with rotate(-k) is the identity.
func TestRotateInverseProperty(t *testing.T) {
	f := func(size8 uint8, off int8) bool {
		size := int(size8)%50 + 2
		rt := newRuntime(t, 4)
		a, err := rt.Allocate("A", []int{size})
		if err != nil {
			return false
		}
		if err := setEach(rt, "i", a, func(i int) float64 { return float64(i * i) }); err != nil {
			return false
		}
		before := a.Flat()
		if err := rt.Rotate(a, int(off), "r"); err != nil {
			return false
		}
		if err := rt.Rotate(a, -int(off), "r"); err != nil {
			return false
		}
		after := a.Flat()
		for i := range before {
			if before[i] != after[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// scanHome is the linear scan over the section offsets that HomeNode's
// closed form replaced.
func scanHome(a *Array, i int) int {
	for n := 0; n+1 < len(a.offsets); n++ {
		if i < a.offsets[n+1] {
			return n
		}
	}
	return len(a.offsets) - 2
}

func TestHomeNodeMatchesOffsetScan(t *testing.T) {
	for nodes := 1; nodes <= 9; nodes++ {
		rt := newRuntime(t, nodes)
		for size := 1; size <= 70; size++ {
			a := alloc(t, rt, "A", size)
			// Past the end both answer the last node.
			for i := 0; i < size+nodes+2; i++ {
				if got, want := a.HomeNode(i), scanHome(a, i); got != want {
					t.Fatalf("size %d on %d nodes: HomeNode(%d) = %d, scan says %d", size, nodes, i, got, want)
				}
			}
		}
	}
}

// logSends records every point-to-point transfer a runtime makes, as the
// CMRTS_send entry point reports it (sender, bytes) and as the machine
// performs it (sender, receiver, bytes).
func logSends(rt *Runtime) *[]string {
	var log []string
	rt.Inst().Insert(dyninst.Entry(RoutineSend), dyninst.Snippet{
		Do: func(ctx dyninst.Context) {
			log = append(log, fmt.Sprintf("point %d: %d B", ctx.Node, ctx.Bytes))
		},
	})
	rt.Machine().Observe(func(e machine.Event) {
		if e.Kind == machine.EvSend {
			log = append(log, fmt.Sprintf("send %d->%d: %d B", e.Node, e.Peer, e.Bytes))
		}
	})
	return &log
}

// Rotate counts its transfers from interval overlaps and moves the data
// as block copies; the generic redistribute with the same permutation,
// element by element, must produce the same transfer matrix, the same
// sends in the same order, and the same data.
func TestRotateMatchesGenericRedistribute(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	for trial := 0; trial < 300; trial++ {
		nodes := 1 + r.Intn(9)
		size := 1 + r.Intn(70) // often below the node count: empty sections
		offset := r.Intn(4*size+1) - 2*size
		switch trial % 5 {
		case 0:
			offset = 0
		case 1:
			offset = size * (r.Intn(5) - 2)
		}

		fast, generic := newRuntime(t, nodes), newRuntime(t, nodes)
		fastLog, genericLog := logSends(fast), logSends(generic)
		a, b := alloc(t, fast, "A", size), alloc(t, generic, "A", size)
		fillRamp(t, fast, a)
		fillRamp(t, generic, b)

		if err := fast.Rotate(a, offset, "r"); err != nil {
			t.Fatal(err)
		}
		off := ((offset % size) + size) % size
		generic.redistribute(b, func(i int) int { return (i + off) % size }, "r")

		where := fmt.Sprintf("size %d, %d nodes, offset %d", size, nodes, offset)
		if got, want := fmt.Sprint(fast.xfer), fmt.Sprint(generic.xfer); got != want {
			t.Fatalf("%s: transfer matrix %s, generic %s", where, got, want)
		}
		if got, want := fmt.Sprint(*fastLog), fmt.Sprint(*genericLog); got != want {
			t.Fatalf("%s: sends %s, generic %s", where, got, want)
		}
		if got, want := fmt.Sprint(a.Flat()), fmt.Sprint(b.Flat()); got != want {
			t.Fatalf("%s: data %s, generic %s", where, got, want)
		}
	}
}

// Shift counts and moves the same way; its reference is the definition:
// element i lands at i+offset if that is in range, the rest is fill, and
// every surviving element that changes node is one element of a transfer.
func TestShiftMatchesDefinition(t *testing.T) {
	r := rand.New(rand.NewSource(7919))
	for trial := 0; trial < 300; trial++ {
		nodes := 1 + r.Intn(9)
		size := 1 + r.Intn(70)
		offset := r.Intn(2*size+5) - size - 2
		rt := newRuntime(t, nodes)
		a := alloc(t, rt, "A", size)
		fillRamp(t, rt, a)

		want := make([]float64, size)
		counts := make([]int, nodes*nodes)
		for i := range want {
			want[i] = -1
		}
		for i := 0; i < size; i++ {
			if j := i + offset; j >= 0 && j < size {
				want[j] = float64(i)
				counts[scanHome(a, i)*nodes+scanHome(a, j)]++
			}
		}
		if err := rt.Shift(a, offset, -1, "s"); err != nil {
			t.Fatal(err)
		}
		where := fmt.Sprintf("size %d, %d nodes, offset %d", size, nodes, offset)
		if got, want := fmt.Sprint(a.Flat()), fmt.Sprint(want); got != want {
			t.Fatalf("%s: data %s, want %s", where, got, want)
		}
		if got, want := fmt.Sprint(rt.xfer), fmt.Sprint(counts); got != want {
			t.Fatalf("%s: transfer matrix %s, want %s", where, got, want)
		}
	}
}

// Property: SUM equals the arithmetic sum of stored values for any fill
// pattern and node count.
func TestReduceSumProperty(t *testing.T) {
	f := func(vals []float64, nodes8 uint8) bool {
		if len(vals) == 0 {
			return true
		}
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
				return true // skip pathological floats
			}
		}
		nodes := int(nodes8)%7 + 1
		rt := newRuntime(t, nodes)
		a, err := rt.Allocate("A", []int{len(vals)})
		if err != nil {
			return false
		}
		if err := setEach(rt, "init", a, func(i int) float64 { return vals[i] }); err != nil {
			return false
		}
		got, err := rt.Reduce(a, OpSum, "SUM")
		if err != nil {
			return false
		}
		want := 0.0
		for _, v := range vals {
			want += v
		}
		return math.Abs(got-want) <= 1e-6*math.Max(1, math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: transpose twice is the identity on data and shape.
func TestTransposeInvolutionProperty(t *testing.T) {
	f := func(r8, c8 uint8) bool {
		r := int(r8)%6 + 1
		c := int(c8)%6 + 1
		rt := newRuntime(t, 4)
		a, err := rt.Allocate("M", []int{r, c})
		if err != nil {
			return false
		}
		if err := setEach(rt, "i", a, func(i int) float64 { return float64(3*i + 1) }); err != nil {
			return false
		}
		before := a.Flat()
		if err := rt.Transpose(a, "t"); err != nil {
			return false
		}
		if err := rt.Transpose(a, "t"); err != nil {
			return false
		}
		after := a.Flat()
		if a.Shape[0] != r || a.Shape[1] != c {
			return false
		}
		for i := range before {
			if before[i] != after[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkReduce(b *testing.B) {
	m, _ := machine.New(machine.DefaultConfig(16))
	inst := dyninst.NewManager(dyninst.DefaultCosts(), m.AdvanceNode)
	rt, _ := New(m, inst, DefaultCosts())
	a, _ := rt.Allocate("A", []int{4096})
	_ = rt.Fill(a, 1, "fill")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.Reduce(a, OpSum, "SUM"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRotate(b *testing.B) {
	m, _ := machine.New(machine.DefaultConfig(16))
	inst := dyninst.NewManager(dyninst.DefaultCosts(), m.AdvanceNode)
	rt, _ := New(m, inst, DefaultCosts())
	a, _ := rt.Allocate("A", []int{4096})
	_ = rt.Fill(a, 1, "fill")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rt.Rotate(a, 7, "CSHIFT"); err != nil {
			b.Fatal(err)
		}
	}
}

func TestDotProduct(t *testing.T) {
	rt := newRuntime(t, 4)
	a := alloc(t, rt, "A", 33)
	b := alloc(t, rt, "B", 33)
	fillRamp(t, rt, a)
	if err := rt.Fill(b, 3, "fill"); err != nil {
		t.Fatal(err)
	}
	got, err := rt.DotProduct(a, b, "dot")
	if err != nil {
		t.Fatal(err)
	}
	want := 3.0 * 32 * 33 / 2
	if got != want {
		t.Fatalf("DotProduct = %g, want %g", got, want)
	}
	// Tree combine sent nodes-1 messages.
	if rt.Count(RoutineSend) != 3 {
		t.Fatalf("sends = %d, want 3", rt.Count(RoutineSend))
	}
	c := alloc(t, rt, "C", 7)
	if _, err := rt.DotProduct(a, c, "dot"); err == nil {
		t.Fatal("non-conformable dot product accepted")
	}
}
