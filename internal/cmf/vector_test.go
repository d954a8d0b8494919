package cmf

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"nvmap/internal/cmrts"
	"nvmap/internal/dyninst"
)

// reference is the per-element evaluator the vector programs replaced,
// kept as the obviously-correct model: it interprets a parsed program one
// element at a time over plain slices, and records for every elementwise
// statement what the runtime should be told (destination then leaves, in
// evaluation order) and charged (flops per element).
type reference struct {
	arrays  map[string][]float64
	scalars map[string]float64 // scalars and enclosing DO variables
	args    [][]string
	flops   []int
}

func (r *reference) eval(ex Expr, i int, forallVar string) float64 {
	switch x := ex.(type) {
	case *Num:
		return x.Val
	case *Ref:
		if a, ok := r.arrays[x.Name]; ok {
			return a[i]
		}
		if x.Name == forallVar {
			return float64(i + 1)
		}
		return r.scalars[x.Name]
	case *Index:
		return r.arrays[x.Name][i]
	case *Unary:
		return -r.eval(x.X, i, forallVar)
	case *Binary:
		a, b := r.eval(x.L, i, forallVar), r.eval(x.R, i, forallVar)
		switch x.Op {
		case '+':
			return a + b
		case '-':
			return a - b
		case '*':
			return a * b
		}
		return a / b
	case *Call:
		return refIntrinsics[x.Fn](r.eval(x.Args[0], i, forallVar))
	}
	panic(fmt.Sprintf("reference: unexpected node %T", ex))
}

var refIntrinsics = map[string]func(float64) float64{
	"SQRT": math.Sqrt, "ABS": math.Abs, "EXP": math.Exp, "LOG": math.Log,
}

// refHolds is WHERE's comparison.
func refHolds(op string, a, b float64) bool {
	switch op {
	case ">":
		return a > b
	case "<":
		return a < b
	case ">=":
		return a >= b
	case "<=":
		return a <= b
	case "==":
		return a == b
	}
	return a != b
}

// cost returns an expression's per-element flops and its array leaves in
// evaluation order.
func (r *reference) cost(ex Expr) (int, []string) {
	switch x := ex.(type) {
	case *Ref:
		if _, ok := r.arrays[x.Name]; ok {
			return 0, []string{x.Name}
		}
	case *Index:
		return 0, []string{x.Name}
	case *Unary:
		f, l := r.cost(x.X)
		return f + 1, l
	case *Binary:
		f1, l1 := r.cost(x.L)
		f2, l2 := r.cost(x.R)
		return f1 + f2 + 1, append(l1, l2...)
	case *Call:
		f, l := r.cost(x.Args[0])
		return f + 4, l
	}
	return 0, nil
}

func (r *reference) record(dst string, leaves []string, flops int) {
	r.args = append(r.args, append([]string{dst}, leaves...))
	r.flops = append(r.flops, max(1, flops))
}

func (r *reference) run(body []Stmt) {
	for _, s := range body {
		switch st := s.(type) {
		case *Decl:
			if len(st.Dims) == 0 {
				r.scalars[st.Name] = 0
			} else {
				r.arrays[st.Name] = make([]float64, arraySize(st))
			}
		case *DoLoop:
			for v := st.Lo; v <= st.Hi; v++ {
				r.scalars[st.Var] = float64(v)
				r.run(st.Body)
			}
			delete(r.scalars, st.Var)
		case *Assign:
			dst, isArr := r.arrays[st.LHS]
			if !isArr {
				r.scalars[st.LHS] = r.eval(st.RHS, 0, "")
				continue
			}
			for i := range dst {
				dst[i] = r.eval(st.RHS, i, "")
			}
			// A leafless right-hand side is a fill: one op per element.
			if flops, leaves := r.cost(st.RHS); len(leaves) == 0 {
				r.record(st.LHS, nil, 1)
			} else {
				r.record(st.LHS, leaves, flops)
			}
		case *Forall:
			dst := r.arrays[st.LHS]
			for i := range dst {
				dst[i] = r.eval(st.RHS, i, st.Var)
			}
			flops, _ := r.cost(st.RHS)
			r.record(st.LHS, nil, flops)
		case *Where:
			dst := r.arrays[st.LHS]
			for i := range dst {
				if refHolds(st.CondOp, r.eval(st.CondL, i, ""), r.eval(st.CondR, i, "")) {
					dst[i] = r.eval(st.RHS, i, "")
				}
			}
			f1, l1 := r.cost(st.CondL)
			f2, l2 := r.cost(st.CondR)
			f3, l3 := r.cost(st.RHS)
			r.record(st.LHS, append(append(append(l1, l2...), l3...), st.LHS), f1+f2+f3+1)
		default:
			panic(fmt.Sprintf("reference: unexpected statement %T", s))
		}
	}
}

// sameFloat is bit equality, except that any NaN equals any NaN. When
// both operands of a + or a * are NaNs the hardware returns the first
// operand's payload, and for a commutative operation "first" is whatever
// the Go compiler's register allocator chose — so no two pieces of Go
// code can be required to agree on it, and nothing in the language can
// observe it (PRINT, comparisons, MAXVAL and SORT treat every NaN alike).
// Infinities and signed zeros are compared exactly.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// checkAgainstReference runs src (elementwise statements, scalar
// assignments and DO loops only) through the compiler, the Executor and
// the runtime, and through the reference, and requires bit-identical
// arrays and scalars, the same compute-point arguments in the same order,
// and the same elemental operations charged to every node ("identical" as
// sameFloat defines it). It returns the final arrays.
func checkAgainstReference(t *testing.T, src string, nodes int, opts Options) map[string][]float64 {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("%v\n%s", err, src)
	}
	ref := &reference{arrays: map[string][]float64{}, scalars: map[string]float64{}}
	ref.run(prog.Body)

	rt := newTestRuntime(t, nodes)
	var gotArgs [][]string
	rt.Inst().Insert(dyninst.Entry(cmrts.RoutineCompute), dyninst.Snippet{
		Do: func(ctx dyninst.Context) {
			if ctx.Node != 0 {
				return
			}
			names := make([]string, len(ctx.Args))
			for i, id := range ctx.Args {
				a, _ := rt.Array(cmrts.ArrayID(id))
				names[i] = a.Name
			}
			gotArgs = append(gotArgs, names)
		},
	})
	cp, err := Compile(prog, opts)
	if err != nil {
		t.Fatalf("%v\n%s", err, src)
	}
	ex := NewExecutor(cp, rt, nil)
	if err := ex.Run(); err != nil {
		t.Fatalf("%v\n%s", err, src)
	}

	for name, want := range ref.arrays {
		a, _ := ex.ArrayOf(name)
		got := a.Flat()
		for i := range want {
			if !sameFloat(got[i], want[i]) {
				t.Fatalf("%s(%d) = %v (%#x), reference %v (%#x) on %d nodes\n%s", name, i+1,
					got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]), nodes, src)
			}
		}
	}
	for name, want := range ref.scalars {
		if got, _ := ex.Scalar(name); !sameFloat(got, want) {
			t.Fatalf("scalar %s = %v, reference %v\n%s", name, got, want, src)
		}
	}
	if fmt.Sprint(gotArgs) != fmt.Sprint(ref.args) {
		t.Fatalf("compute-point arguments = %v, reference %v\n%s", gotArgs, ref.args, src)
	}
	for n := 0; n < nodes; n++ {
		want := 0
		for k, flops := range ref.flops {
			a, _ := ex.ArrayOf(ref.args[k][0])
			want += a.LocalLen(n) * flops
		}
		if got := rt.Machine().Stats(n).ComputeOps; got != want {
			t.Fatalf("node %d charged %d elemental ops, reference %d\n%s", n, got, want, src)
		}
	}
	return ref.arrays
}

// genExpr builds a random elementwise expression of at most depth levels
// over arrays A..D, scalars S and T, the enclosing DO variable K, literals
// and — inside a FORALL — the index I.
func genExpr(r *rand.Rand, depth int, forall bool) Expr {
	if depth == 0 || r.Intn(5) == 0 {
		switch k := r.Intn(8); {
		case k < 4:
			name := string(rune('A' + r.Intn(4)))
			if forall {
				return &Index{Name: name, Var: "I"}
			}
			return &Ref{Name: name}
		case k == 4:
			return &Num{Val: []float64{0, 0.5, 1.25, 2, 3, 100}[r.Intn(6)]}
		case k == 5:
			return &Ref{Name: []string{"S", "T"}[r.Intn(2)]}
		case k == 6 && forall:
			return &Ref{Name: "I"}
		default:
			return &Ref{Name: "K"}
		}
	}
	switch k := r.Intn(8); {
	case k < 5:
		return &Binary{Op: "+-*/"[r.Intn(4)], L: genExpr(r, depth-1, forall), R: genExpr(r, depth-1, forall)}
	case k == 5:
		x := genExpr(r, depth-1, forall)
		if _, neg := x.(*Unary); neg {
			return x // "--X" does not lex as two negations
		}
		return &Unary{X: x}
	default:
		return &Call{Fn: []string{"SQRT", "ABS", "EXP", "LOG"}[r.Intn(4)], Args: []Expr{genExpr(r, depth-1, forall)}}
	}
}

var comparators = []string{">", "<", ">=", "<=", "==", "/="}

// genProgram emits a program of random elementwise statements over
// arrays of size elements, inside a DO loop so that every cached
// vecProgram runs twice with a different K, S and T.
func genProgram(r *rand.Rand, size, salt int) string {
	var sb strings.Builder
	sb.WriteString("PROGRAM gen\n")
	for _, a := range "ABCD" {
		fmt.Fprintf(&sb, "REAL %c(%d)\n", a, size)
	}
	sb.WriteString("REAL S\nREAL T\n")
	// Negative, zero, fractional and large values: LOG and SQRT of
	// negatives give NaN, division by zero and EXP of large give ±Inf.
	fmt.Fprintf(&sb, "FORALL (I = 1:%d) A(I) = I - 3\n", size)
	fmt.Fprintf(&sb, "FORALL (I = 1:%d) B(I) = 0.5 * I\n", size)
	fmt.Fprintf(&sb, "FORALL (I = 1:%d) C(I) = 2 - I * I\n", size)
	fmt.Fprintf(&sb, "FORALL (I = 1:%d) D(I) = 400 / I\n", size)
	sb.WriteString("S = 1.5\nT = -2\nDO K = 1, 2\n")
	dst := func() string { return string(rune('A' + r.Intn(4))) }
	for j := 0; j < 2; j++ {
		fmt.Fprintf(&sb, "%s = %s\n", dst(), genExpr(r, 5, false))
		fmt.Fprintf(&sb, "WHERE (%s %s %s) %s = %s\n", genExpr(r, 2, false), comparators[(salt+j)%6],
			genExpr(r, 2, false), dst(), genExpr(r, 3, false))
		fmt.Fprintf(&sb, "FORALL (I = 1:%d) %s(I) = %s\n", size, dst(), genExpr(r, 4, true))
		sb.WriteString("S = S * T + K\n")
	}
	sb.WriteString("T = T - 0.25\nEND DO\nEND\n")
	return sb.String()
}

// The vector evaluator against the per-element reference over generated
// programs: section lengths on both sides of every strip boundary, node
// counts that leave some sections empty, fused and unfused blocks.
func TestVectorEvaluatorMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	var nans, infs, salt int
	for _, size := range []int{1, 3, strip - 1, strip, strip + 1, 3*strip + 7} {
		for _, nodes := range []int{1, 3, 8} {
			for rep := 0; rep < 4; rep++ {
				salt++
				src := genProgram(r, size, salt)
				for _, vals := range checkAgainstReference(t, src, nodes, Options{Fuse: salt%2 == 0}) {
					for _, v := range vals {
						if math.IsNaN(v) {
							nans++
						} else if math.IsInf(v, 0) {
							infs++
						}
					}
				}
			}
		}
	}
	if nans == 0 || infs == 0 {
		t.Fatalf("generated programs produced %d NaNs and %d infinities; the comparison must cover both", nans, infs)
	}
}

func TestVectorEvaluatorNamedCases(t *testing.T) {
	const decls = "PROGRAM named\nREAL A(600)\nREAL B(600)\nREAL C(600)\nREAL S\nREAL T\n" +
		"FORALL (I = 1:600) A(I) = I - 300\nFORALL (I = 1:600) B(I) = 0.5 * I\n"
	for name, body := range map[string]string{
		// Every instruction is index-aligned, so writing the destination
		// section directly is safe when it is also read.
		"destination among the sources": "A = A * B + A\nC = C + 3.0\n" +
			"FORALL (I = 1:600) A(I) = A(I) + I\nWHERE (A > 1.0) A = A * 0 - 1\nB = B\n",
		"WHERE with a bare scalar right-hand side": "S = 7\nT = 40.5\n" +
			"WHERE (A > S) B = T\nWHERE (A <= 2.0) B = 9\nWHERE (S < T) A = -S\n",
		// Fails if a cached program captures scalars at lowering.
		"scalar operand changes every iteration": "DO K = 1, 4\nS = S + 1.0\nA = A + S\n" +
			"B = B * (S + K) - T\nT = T + K\nEND DO\n",
		"leafless statements": "S = 3\nA = S * 2\nFORALL (I = 1:600) B(I) = S\nFORALL (I = 1:600) A(I) = I\n",
	} {
		src := decls + body + "END\n"
		for _, nodes := range []int{1, 3, 8} {
			t.Run(fmt.Sprintf("%s/%d", name, nodes), func(t *testing.T) {
				checkAgainstReference(t, src, nodes, Options{Fuse: true})
			})
		}
	}
}

// A statement needs only as many temporaries as are live at once, and
// the last instruction writes the destination.
func TestVectorProgramTemporaries(t *testing.T) {
	for src, want := range map[string]int{
		"P = Q * 0.5 + W * 0.25": 2,
		"P = P + 3.0":            0,
		"P = Q":                  0,
		"P = ((((Q + W) * Q) - W) / Q) + SQRT(W)":     2,
		"P = Q + (W * (Q - (W / (Q + ABS(-W)))))":     1,
		"P = (Q * W + P) * (Q - W) / SQRT(P)":         2,
		"WHERE (P > Q * 2) P = W + 1":                 2,
		"FORALL (I = 1:8) P(I) = 2 * I + Q(I) * W(I)": 2,
	} {
		cp, err := CompileSource("PROGRAM t\nREAL P(8)\nREAL Q(8)\nREAL W(8)\n"+src+"\nEND\n", Options{})
		if err != nil {
			t.Fatal(err)
		}
		ex := NewExecutor(cp, newTestRuntime(t, 2), nil)
		if err := ex.Run(); err != nil {
			t.Fatal(err)
		}
		if got := ex.progs[cp.Infos[5].Slot].temps; got != want {
			t.Errorf("%s: %d temporaries, want %d", src, got, want)
		}
	}
}
