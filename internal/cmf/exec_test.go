package cmf

import (
	"math"
	"strings"
	"testing"

	"nvmap/internal/cmrts"
	"nvmap/internal/dyninst"
	"nvmap/internal/machine"
)

// newTestRuntime builds a runtime on a fresh default machine of nodes
// nodes.
func newTestRuntime(t *testing.T, nodes int) *cmrts.Runtime {
	t.Helper()
	m, err := machine.New(machine.DefaultConfig(nodes))
	if err != nil {
		t.Fatal(err)
	}
	rt, err := cmrts.New(m, dyninst.NewManager(dyninst.DefaultCosts(), m.AdvanceNode), cmrts.DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func runProgram(t *testing.T, src string, opts Options, nodes int) (*Executor, *cmrts.Runtime, string) {
	t.Helper()
	rt := newTestRuntime(t, nodes)
	cp, err := CompileSource(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	ex := NewExecutor(cp, rt, &out)
	if err := ex.Run(); err != nil {
		t.Fatal(err)
	}
	return ex, rt, out.String()
}

// The paper's Figure 4 example: ASUM = SUM(A); BMAX = MAXVAL(B).
func TestRunFigure4(t *testing.T) {
	src := `PROGRAM hpf
REAL A(100)
REAL B(100)
REAL ASUM
REAL BMAX
FORALL (I = 1:100) A(I) = I
FORALL (I = 1:100) B(I) = 200 - I
ASUM = SUM(A)
BMAX = MAXVAL(B)
END
`
	ex, rt, _ := runProgram(t, src, Options{}, 4)
	if v, _ := ex.Scalar("ASUM"); v != 5050 {
		t.Fatalf("ASUM = %g, want 5050", v)
	}
	if v, _ := ex.Scalar("BMAX"); v != 199 {
		t.Fatalf("BMAX = %g, want 199", v)
	}
	// Each reduction dispatched its own node code block and reduced over
	// the machine.
	if rt.Count(cmrts.RoutineReduceSum) != 1 || rt.Count(cmrts.RoutineReduceMax) != 1 {
		t.Fatal("reductions did not reach the runtime")
	}
}

func TestRunArithmetic(t *testing.T) {
	src := `PROGRAM arith
REAL A(10)
REAL B(10)
REAL S
A = 3
B = A * 2 + 1
B = B / 2 - A
S = SUM(B)
PRINT *, S
END
`
	ex, _, out := runProgram(t, src, Options{}, 3)
	// B = (3*2+1)/2 - 3 = 0.5 each; SUM = 5.
	if v, _ := ex.Scalar("S"); v != 5 {
		t.Fatalf("S = %g", v)
	}
	if !strings.Contains(out, "5") {
		t.Fatalf("PRINT output = %q", out)
	}
}

func TestRunScalarStatements(t *testing.T) {
	src := `PROGRAM s
REAL X
REAL Y
X = 9
Y = SQRT(X) + 1
END
`
	ex, _, _ := runProgram(t, src, Options{}, 2)
	if v, _ := ex.Scalar("Y"); v != 4 {
		t.Fatalf("Y = %g", v)
	}
}

func TestRunDoLoopAccumulates(t *testing.T) {
	src := `PROGRAM loop
REAL A(8)
REAL S
A = 0
DO K = 1, 5
A = A + K
END DO
S = SUM(A)
END
`
	ex, rt, _ := runProgram(t, src, Options{}, 2)
	// A accumulates 1+2+3+4+5 = 15 per element; SUM = 120.
	if v, _ := ex.Scalar("S"); v != 120 {
		t.Fatalf("S = %g, want 120", v)
	}
	// The loop body's block dispatched once per iteration (plus A=0).
	if got := rt.Machine().Stats(0).Dispatches; got != 7 {
		t.Fatalf("dispatches = %d, want 7 (init + 5 iterations + reduce)", got)
	}
}

func TestRunTransforms(t *testing.T) {
	src := `PROGRAM tr
REAL A(6)
REAL B(6)
FORALL (I = 1:6) A(I) = I
B = CSHIFT(A, 2)
END
`
	ex, _, _ := runProgram(t, src, Options{}, 3)
	b, _ := ex.ArrayOf("B")
	// CSHIFT(A,2)(i) = A(i+2): B = 3,4,5,6,1,2.
	want := []float64{3, 4, 5, 6, 1, 2}
	for i, v := range b.Flat() {
		if v != want[i] {
			t.Fatalf("B = %v, want %v", b.Flat(), want)
		}
	}
	// A unchanged by CSHIFT into B.
	a, _ := ex.ArrayOf("A")
	if a.At(0) != 1 {
		t.Fatal("CSHIFT modified its source")
	}
}

func TestRunEOShiftAndSort(t *testing.T) {
	src := `PROGRAM tr
REAL A(5)
REAL B(5)
FORALL (I = 1:5) A(I) = 6 - I
B = EOSHIFT(A, 1, 0)
A = SORT(A)
END
`
	ex, _, _ := runProgram(t, src, Options{}, 2)
	a, _ := ex.ArrayOf("A")
	for i, v := range a.Flat() {
		if v != float64(i+1) {
			t.Fatalf("sorted A = %v", a.Flat())
		}
	}
	b, _ := ex.ArrayOf("B")
	// EOSHIFT(A,1)(i) = A(i+1), last filled: A was 5,4,3,2,1 -> B = 4,3,2,1,0.
	want := []float64{4, 3, 2, 1, 0}
	for i, v := range b.Flat() {
		if v != want[i] {
			t.Fatalf("B = %v, want %v", b.Flat(), want)
		}
	}
}

func TestRunTransposeIntoOtherArray(t *testing.T) {
	src := `PROGRAM tp
REAL M(2,3)
REAL T(3,2)
FORALL (I = 1:6) M(I) = I
T = TRANSPOSE(M)
END
`
	ex, _, _ := runProgram(t, src, Options{}, 2)
	tr, _ := ex.ArrayOf("T")
	if tr.Shape[0] != 3 || tr.Shape[1] != 2 {
		t.Fatalf("T shape = %v", tr.Shape)
	}
	// M = [1 2 3; 4 5 6] -> T = [1 4; 2 5; 3 6] flat: 1,4,2,5,3,6.
	want := []float64{1, 4, 2, 5, 3, 6}
	for i, v := range tr.Flat() {
		if v != want[i] {
			t.Fatalf("T = %v, want %v", tr.Flat(), want)
		}
	}
	m, _ := ex.ArrayOf("M")
	if m.Shape[0] != 2 || m.Shape[1] != 3 || m.At(1) != 2 {
		t.Fatal("TRANSPOSE modified its source")
	}
}

func TestRunScan(t *testing.T) {
	src := `PROGRAM sc
REAL A(6)
A = 2
A = SCAN(A)
END
`
	ex, _, _ := runProgram(t, src, Options{}, 3)
	a, _ := ex.ArrayOf("A")
	for i, v := range a.Flat() {
		if v != float64(2*(i+1)) {
			t.Fatalf("scan = %v", a.Flat())
		}
	}
}

func TestRunElementwiseIntrinsic(t *testing.T) {
	src := `PROGRAM ew
REAL A(4)
A = 16
A = SQRT(A) + ABS(-1)
END
`
	ex, _, _ := runProgram(t, src, Options{}, 2)
	a, _ := ex.ArrayOf("A")
	for _, v := range a.Flat() {
		if v != 5 {
			t.Fatalf("A = %v", a.Flat())
		}
	}
}

func TestRunFusedBlockExecutesAllStatements(t *testing.T) {
	src := `PROGRAM fu
REAL A(8)
REAL B(8)
REAL S
A = 1
B = A + 1
S = SUM(B)
END
`
	exFused, rtFused, _ := runProgram(t, src, Options{Fuse: true}, 2)
	exPlain, rtPlain, _ := runProgram(t, src, Options{}, 2)
	vF, _ := exFused.Scalar("S")
	vP, _ := exPlain.Scalar("S")
	if vF != 16 || vP != 16 {
		t.Fatalf("S fused=%g plain=%g, want 16", vF, vP)
	}
	// Fusion halves the dispatches for the two compute statements.
	dF := rtFused.Machine().Stats(0).Dispatches
	dP := rtPlain.Machine().Stats(0).Dispatches
	if dF != dP-1 {
		t.Fatalf("dispatches fused=%d plain=%d", dF, dP)
	}
}

func TestRunFiresBlockPoints(t *testing.T) {
	m, _ := machine.New(machine.DefaultConfig(2))
	inst := dyninst.NewManager(dyninst.DefaultCosts(), m.AdvanceNode)
	rt, _ := cmrts.New(m, inst, cmrts.DefaultCosts())
	cp, err := CompileSource("PROGRAM pt\nREAL A(8)\nA = 1\nEND\n", Options{})
	if err != nil {
		t.Fatal(err)
	}
	block := cp.Blocks[0].Name
	var entries int
	var gotArgs []string
	inst.Insert(dyninst.Entry(block), dyninst.Snippet{
		Do: func(ctx dyninst.Context) {
			entries++
			gotArgs = append([]string(nil), ctx.Args...)
		},
	})
	if err := NewExecutor(cp, rt, nil).Run(); err != nil {
		t.Fatal(err)
	}
	if entries != 2 {
		t.Fatalf("block entry fired %d times, want once per node", entries)
	}
	if len(gotArgs) != 1 {
		t.Fatalf("block args = %v, want the A array id", gotArgs)
	}
	a, ok := rt.Array(cmrts.ArrayID(gotArgs[0]))
	if !ok || a.Name != "A" {
		t.Fatalf("arg %q does not resolve to array A", gotArgs)
	}
}

func TestFreeAll(t *testing.T) {
	ex, rt, _ := runProgram(t, tinyProgram, Options{}, 2)
	if len(rt.Arrays()) != 1 {
		t.Fatalf("live arrays = %d", len(rt.Arrays()))
	}
	if err := ex.FreeAll(); err != nil {
		t.Fatal(err)
	}
	if len(rt.Arrays()) != 0 {
		t.Fatal("FreeAll left arrays")
	}
}

func TestRunNegativeLiterals(t *testing.T) {
	src := `PROGRAM n
REAL A(4)
A = -2
A = CSHIFT(A, -1)
A = A * -1
END
`
	ex, _, _ := runProgram(t, src, Options{}, 2)
	a, _ := ex.ArrayOf("A")
	for _, v := range a.Flat() {
		if v != 2 {
			t.Fatalf("A = %v", a.Flat())
		}
	}
}

func TestRunLoopVarInExpr(t *testing.T) {
	src := `PROGRAM lv
REAL A(4)
REAL S
A = 0
DO K = 2, 4
A = A * 0 + K
END DO
S = SUM(A)
END
`
	ex, _, _ := runProgram(t, src, Options{}, 2)
	if v, _ := ex.Scalar("S"); v != 16 {
		t.Fatalf("S = %g, want 16 (last K=4 times 4 elems)", v)
	}
}

func TestRunDeterministicVirtualTime(t *testing.T) {
	_, rt1, _ := runProgram(t, fusionProgram, Options{Fuse: true}, 4)
	_, rt2, _ := runProgram(t, fusionProgram, Options{Fuse: true}, 4)
	if rt1.Machine().GlobalNow() != rt2.Machine().GlobalNow() {
		t.Fatalf("virtual times differ: %v vs %v",
			rt1.Machine().GlobalNow(), rt2.Machine().GlobalNow())
	}
	if rt1.Machine().GlobalNow() == 0 {
		t.Fatal("no virtual time elapsed")
	}
}

func TestScalarMathSanity(t *testing.T) {
	src := `PROGRAM sm
REAL X
X = EXP(0) + LOG(1)
END
`
	ex, _, _ := runProgram(t, src, Options{}, 1)
	if v, _ := ex.Scalar("X"); math.Abs(v-1) > 1e-12 {
		t.Fatalf("X = %g", v)
	}
}

func BenchmarkRunStencilProgram(b *testing.B) {
	src := `PROGRAM bench
REAL A(512)
REAL B(512)
REAL S
FORALL (I = 1:512) A(I) = I
DO K = 1, 4
B = CSHIFT(A, 1)
A = A * 0.5 + B * 0.5
END DO
S = SUM(A)
END
`
	cp, err := CompileSource(src, Options{Fuse: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, _ := machine.New(machine.DefaultConfig(8))
		inst := dyninst.NewManager(dyninst.DefaultCosts(), m.AdvanceNode)
		rt, _ := cmrts.New(m, inst, cmrts.DefaultCosts())
		if err := NewExecutor(cp, rt, nil).Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRunWhereMaskedAssignment(t *testing.T) {
	src := `PROGRAM w
REAL A(8)
REAL B(8)
FORALL (I = 1:8) A(I) = I
B = 0
WHERE (A > 4.0) B = A * 10.0
END
`
	ex, _, _ := runProgram(t, src, Options{}, 3)
	b, _ := ex.ArrayOf("B")
	for i, v := range b.Flat() {
		want := 0.0
		if float64(i+1) > 4 {
			want = float64(i+1) * 10
		}
		if v != want {
			t.Fatalf("B = %v, want masked update at %d", b.Flat(), i)
		}
	}
}

func TestRunWhereOperators(t *testing.T) {
	cases := []struct {
		op   string
		want []float64 // mask over values 1..4 compared with 2
	}{
		{">", []float64{0, 0, 9, 9}},
		{"<", []float64{9, 0, 0, 0}},
		{">=", []float64{0, 9, 9, 9}},
		{"<=", []float64{9, 9, 0, 0}},
		{"==", []float64{0, 9, 0, 0}},
		{"/=", []float64{9, 0, 9, 9}},
	}
	for _, c := range cases {
		src := `PROGRAM w
REAL A(4)
REAL B(4)
FORALL (I = 1:4) A(I) = I
B = 0
WHERE (A ` + c.op + ` 2.0) B = 9
END
`
		ex, _, _ := runProgram(t, src, Options{}, 2)
		b, _ := ex.ArrayOf("B")
		for i, v := range b.Flat() {
			if v != c.want[i] {
				t.Fatalf("op %s: B = %v, want %v", c.op, b.Flat(), c.want)
			}
		}
	}
}

func TestWhereKeepsUnmaskedValues(t *testing.T) {
	src := `PROGRAM w
REAL A(6)
FORALL (I = 1:6) A(I) = I
WHERE (A > 3.0) A = A * 0 - 1
END
`
	ex, _, _ := runProgram(t, src, Options{}, 2)
	a, _ := ex.ArrayOf("A")
	want := []float64{1, 2, 3, -1, -1, -1}
	for i, v := range a.Flat() {
		if v != want[i] {
			t.Fatalf("A = %v, want %v", a.Flat(), want)
		}
	}
}

func TestWhereFusesWithComputeStatements(t *testing.T) {
	src := `PROGRAM w
REAL A(8)
REAL B(8)
A = 1
WHERE (A > 0.5) B = 2
B = B + 1
END
`
	cp, err := CompileSource(src, Options{Fuse: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Blocks) != 1 {
		t.Fatalf("WHERE broke fusion: %d blocks", len(cp.Blocks))
	}
}

func TestWhereSemanticErrors(t *testing.T) {
	cases := map[string]string{
		"scalar target":   "PROGRAM p\nREAL X\nWHERE (X > 0) X = 1\nEND\n",
		"non-conformable": "PROGRAM p\nREAL A(4)\nREAL B(8)\nWHERE (B > 0) A = 1\nEND\n",
		"nested reduce":   "PROGRAM p\nREAL A(4)\nWHERE (A > SUM(A)) A = 1\nEND\n",
		"undeclared":      "PROGRAM p\nREAL A(4)\nWHERE (A > Z) A = 1\nEND\n",
		"bad operator":    "PROGRAM p\nREAL A(4)\nWHERE (A + 1) A = 1\nEND\n",
	}
	for name, src := range cases {
		if _, err := CompileSource(src, Options{}); err == nil {
			t.Errorf("%s: accepted\n%s", name, src)
		}
	}
}

func TestWhereString(t *testing.T) {
	prog, err := Parse("PROGRAM p\nREAL A(4)\nWHERE (A >= 2.0) A = A / 2\nEND\n")
	if err != nil {
		t.Fatal(err)
	}
	got := prog.Body[1].(*Where).String()
	if got != "WHERE (A >= 2) A = (A / 2)" {
		t.Fatalf("String = %q", got)
	}
}

func TestRunDotProduct(t *testing.T) {
	src := `PROGRAM dp
REAL A(64)
REAL B(64)
REAL D
FORALL (I = 1:64) A(I) = I
B = 2
D = DOT_PRODUCT(A, B)
END
`
	ex, rt, _ := runProgram(t, src, Options{}, 4)
	if v, _ := ex.Scalar("D"); v != 2*64*65/2 {
		t.Fatalf("D = %g, want %d", v, 2*64*65/2)
	}
	// DOT_PRODUCT is a summation at the runtime level.
	if rt.Count(cmrts.RoutineReduceSum) != 1 {
		t.Fatal("dot product did not fire the summation routine")
	}
}

func TestDotProductErrors(t *testing.T) {
	cases := map[string]string{
		"arity":       "PROGRAM p\nREAL A(4)\nREAL D\nD = DOT_PRODUCT(A)\nEND\n",
		"conformable": "PROGRAM p\nREAL A(4)\nREAL B(8)\nREAL D\nD = DOT_PRODUCT(A, B)\nEND\n",
		"scalar arg":  "PROGRAM p\nREAL A(4)\nREAL X\nREAL D\nD = DOT_PRODUCT(A, X)\nEND\n",
		"into array":  "PROGRAM p\nREAL A(4)\nA = DOT_PRODUCT(A, A)\nEND\n",
	}
	for name, src := range cases {
		if _, err := CompileSource(src, Options{}); err == nil {
			t.Errorf("%s: accepted\n%s", name, src)
		}
	}
}
