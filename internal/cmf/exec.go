package cmf

import (
	"fmt"
	"io"
	"math"

	"nvmap/internal/cmrts"
	"nvmap/internal/vtime"
)

// serialCost is the control-processor cost charged per serial statement.
const serialCost = 500 * vtime.Nanosecond

// Executor runs a compiled program on the simulated CM Run-Time System.
// Every parallel statement executes inside its node code block's
// dispatch, so the dyninst points the tool may have instrumented (block
// entry/exit, runtime routines, mapping points) fire exactly as they
// would in the real system.
type Executor struct {
	cp      *Compiled
	rt      *cmrts.Runtime
	out     io.Writer
	scalars map[string]float64
	arrays  map[string]*cmrts.Array
	loops   map[string]float64
}

// NewExecutor binds a compiled program to a runtime. out receives PRINT
// output; nil discards it.
func NewExecutor(cp *Compiled, rt *cmrts.Runtime, out io.Writer) *Executor {
	if out == nil {
		out = io.Discard
	}
	return &Executor{
		cp:      cp,
		rt:      rt,
		out:     out,
		scalars: make(map[string]float64),
		arrays:  make(map[string]*cmrts.Array),
		loops:   make(map[string]float64),
	}
}

// Scalar reads a scalar's final value (after Run).
func (e *Executor) Scalar(name string) (float64, bool) {
	v, ok := e.scalars[name]
	return v, ok
}

// ArrayOf returns the runtime array bound to a source-level name.
func (e *Executor) ArrayOf(name string) (*cmrts.Array, bool) {
	a, ok := e.arrays[name]
	return a, ok
}

// Run executes the program to completion. Arrays remain allocated
// afterwards so the tool can keep presenting them; call FreeAll to
// release them through the runtime's mapping points.
func (e *Executor) Run() error {
	return e.execScope(e.cp.Prog.Body)
}

// FreeAll deallocates every array the program allocated.
func (e *Executor) FreeAll() error {
	for _, name := range e.cp.ArrayOrder {
		if a, ok := e.arrays[name]; ok {
			if err := e.rt.Free(a); err != nil {
				return err
			}
			delete(e.arrays, name)
		}
	}
	return nil
}

func (e *Executor) execScope(body []Stmt) error {
	for i := 0; i < len(body); i++ {
		s := body[i]
		switch st := s.(type) {
		case *Decl:
			if err := e.execDecl(st); err != nil {
				return err
			}
		case *DoLoop:
			for v := st.Lo; v <= st.Hi; v++ {
				e.loops[st.Var] = float64(v)
				if err := e.execScope(st.Body); err != nil {
					return err
				}
			}
			delete(e.loops, st.Var)
		case *Print:
			val, err := e.evalScalar(st.Arg)
			if err != nil {
				return err
			}
			e.rt.Machine().AdvanceCP(serialCost)
			fmt.Fprintf(e.out, " %g\n", val)
		default:
			info := e.cp.Infos[s.Line()]
			if info == nil {
				return errf(s.Line(), "internal: no semantic info at execution")
			}
			if info.Kind == KindSerial {
				if err := e.execSerial(info); err != nil {
					return err
				}
				continue
			}
			// Parallel statement: execute its whole block at the block's
			// first statement; later statements of a fused block were
			// already executed within the dispatch.
			if info.Block.Stmts[0] != s {
				continue
			}
			if err := e.execBlock(info.Block); err != nil {
				return err
			}
			// Skip the other statements of the block in this pass.
			for i+1 < len(body) {
				next, ok := e.cp.Infos[body[i+1].Line()]
				if !ok || next.Block != info.Block {
					break
				}
				i++
			}
		}
	}
	return nil
}

func (e *Executor) execDecl(d *Decl) error {
	if len(d.Dims) == 0 {
		e.scalars[d.Name] = 0
		return nil
	}
	a, err := e.rt.Allocate(d.Name, d.Dims)
	if err != nil {
		return err
	}
	e.arrays[d.Name] = a
	return nil
}

func (e *Executor) execSerial(info *StmtInfo) error {
	st, ok := info.Stmt.(*Assign)
	if !ok {
		return errf(info.Stmt.Line(), "internal: serial statement %T", info.Stmt)
	}
	v, err := e.evalScalar(st.RHS)
	if err != nil {
		return err
	}
	e.rt.Machine().AdvanceCP(serialCost)
	e.scalars[st.LHS] = v
	return nil
}

// execBlock dispatches a node code block and executes its statements.
func (e *Executor) execBlock(b *Block) error {
	ids := make([]cmrts.ArrayID, 0, len(b.Arrays))
	for _, name := range b.Arrays {
		if a, ok := e.arrays[name]; ok {
			ids = append(ids, a.ID)
		}
	}
	return e.rt.DispatchBlock(b.Name, ids, func() error {
		for _, s := range b.Stmts {
			if err := e.execParallelStmt(s, b); err != nil {
				return err
			}
		}
		return nil
	})
}

func (e *Executor) execParallelStmt(s Stmt, b *Block) error {
	tag := b.Name
	switch st := s.(type) {
	case *Forall:
		return e.execForall(st, tag)
	case *Where:
		return e.execWhere(st, tag)
	case *Assign:
		info := e.cp.Infos[st.Ln]
		switch info.Kind {
		case KindCompute:
			return e.execCompute(st, tag)
		case KindReduce:
			return e.execReduce(st, info, tag)
		case KindTransform:
			return e.execTransform(st, info, tag)
		}
	}
	return errf(s.Line(), "internal: unexpected parallel statement %T", s)
}

// execCompute runs an elementwise parallel assignment. A right-hand side
// with no array operands is a scalar fill: the control processor
// broadcasts the value to the nodes (CM Fortran semantics for scalar
// promotion), which is where Figure 9's Broadcasts come from.
func (e *Executor) execCompute(st *Assign, tag string) error {
	dst := e.arrays[st.LHS]
	var leaves []*cmrts.Array
	eval, flops, err := e.compileElem(st.RHS, &leaves, "")
	if err != nil {
		return err
	}
	if len(leaves) == 0 {
		return e.rt.Fill(dst, eval(nil, 0), tag)
	}
	// The evaluator reads in (never retains or mutates it), so the
	// runtime's gather slice is used directly.
	return e.rt.Elementwise(tag, dst, leaves, flops, func(in []float64) float64 {
		return eval(in, 0)
	})
}

// execWhere runs a masked assignment: dst[i] = rhs[i] where the
// condition holds, unchanged elsewhere. The destination participates as
// a source so unmasked elements keep their values.
func (e *Executor) execWhere(st *Where, tag string) error {
	dst := e.arrays[st.LHS]
	var leaves []*cmrts.Array
	condL, fl1, err := e.compileElem(st.CondL, &leaves, "")
	if err != nil {
		return err
	}
	condR, fl2, err := e.compileElem(st.CondR, &leaves, "")
	if err != nil {
		return err
	}
	rhs, fl3, err := e.compileElem(st.RHS, &leaves, "")
	if err != nil {
		return err
	}
	// The old destination value is the final leaf.
	oldSlot := len(leaves)
	leaves = append(leaves, dst)
	cmp, err := comparator(st.CondOp)
	if err != nil {
		return err
	}
	return e.rt.Elementwise(tag, dst, leaves, fl1+fl2+fl3+1, func(in []float64) float64 {
		if cmp(condL(in, 0), condR(in, 0)) {
			return rhs(in, 0)
		}
		return in[oldSlot]
	})
}

func comparator(op string) (func(a, b float64) bool, error) {
	switch op {
	case ">":
		return func(a, b float64) bool { return a > b }, nil
	case "<":
		return func(a, b float64) bool { return a < b }, nil
	case ">=":
		return func(a, b float64) bool { return a >= b }, nil
	case "<=":
		return func(a, b float64) bool { return a <= b }, nil
	case "==":
		return func(a, b float64) bool { return a == b }, nil
	case "/=":
		return func(a, b float64) bool { return a != b }, nil
	default:
		return nil, fmt.Errorf("cmf: internal: unknown comparison %q", op)
	}
}

// execForall runs a FORALL statement as an indexed elementwise update.
func (e *Executor) execForall(st *Forall, tag string) error {
	dst := e.arrays[st.LHS]
	var leaves []*cmrts.Array
	eval, flops, err := e.compileElem(st.RHS, &leaves, st.Var)
	if err != nil {
		return err
	}
	// In a FORALL, leaves are read by flat index directly, gathered
	// into one scratch vector for the whole statement.
	vals := make([]float64, len(leaves))
	return e.rt.ElementwiseIndexed(tag, dst, flops, func(flat int) float64 {
		for k, a := range leaves {
			vals[k] = a.At(flat)
		}
		return eval(vals, float64(flat+1))
	})
}

func (e *Executor) execReduce(st *Assign, info *StmtInfo, tag string) error {
	call := st.RHS.(*Call)
	src := e.arrays[call.Args[0].(*Ref).Name]
	if info.Intrinsic == "DOT_PRODUCT" {
		other := e.arrays[call.Args[1].(*Ref).Name]
		v, err := e.rt.DotProduct(src, other, tag)
		if err != nil {
			return err
		}
		e.scalars[st.LHS] = v
		return nil
	}
	var op cmrts.ReduceOp
	switch info.Intrinsic {
	case "SUM":
		op = cmrts.OpSum
	case "MAXVAL":
		op = cmrts.OpMax
	case "MINVAL":
		op = cmrts.OpMin
	default:
		return errf(st.Ln, "internal: unknown reduction %s", info.Intrinsic)
	}
	v, err := e.rt.Reduce(src, op, tag)
	if err != nil {
		return err
	}
	e.scalars[st.LHS] = v
	return nil
}

func (e *Executor) execTransform(st *Assign, info *StmtInfo, tag string) error {
	call := st.RHS.(*Call)
	src := e.arrays[call.Args[0].(*Ref).Name]
	dst := e.arrays[st.LHS]

	// Materialise into the destination first when source and destination
	// differ (Fortran transform intrinsics return a new value).
	if dst != src {
		if err := e.rt.Elementwise(tag, dst, []*cmrts.Array{src}, 1,
			func(v []float64) float64 { return v[0] }); err != nil {
			return err
		}
	}

	intLitVal := func(ex Expr) int {
		switch a := ex.(type) {
		case *Num:
			return int(a.Val)
		case *Unary:
			return -int(a.X.(*Num).Val)
		}
		return 0
	}

	switch info.Intrinsic {
	case "CSHIFT":
		// CSHIFT(A, k)(i) = A(i+k): elements move left by k, i.e. the
		// element at flat index i lands at i-k.
		k := intLitVal(call.Args[1])
		return e.rt.Rotate(dst, -k, tag)
	case "EOSHIFT":
		k := intLitVal(call.Args[1])
		fill := 0.0
		if len(call.Args) == 3 {
			fill = call.Args[2].(*Num).Val
		}
		return e.rt.Shift(dst, -k, fill, tag)
	case "TRANSPOSE":
		if dst != src {
			// The copy laid the source's row-major data into dst; adopt
			// the source's logical shape before transposing so dst ends
			// with its declared (reversed) shape.
			copy(dst.Shape, src.Shape)
		}
		return e.rt.Transpose(dst, tag)
	case "SCAN":
		return e.rt.Scan(dst, cmrts.OpSum, tag)
	case "SORT":
		return e.rt.Sort(dst, tag)
	default:
		return errf(st.Ln, "internal: unknown transform %s", info.Intrinsic)
	}
}

// compileElem compiles an elementwise expression into an evaluator.
// Array leaves are appended to *leaves in evaluation order; the evaluator
// receives their per-element values in vals and the FORALL index value
// (1-based) in idx. Scalar and loop-variable references are captured at
// compile time — i.e., at statement execution, matching Fortran
// semantics. flops estimates per-element arithmetic work.
func (e *Executor) compileElem(ex Expr, leaves *[]*cmrts.Array, forallVar string) (func(vals []float64, idx float64) float64, int, error) {
	switch x := ex.(type) {
	case *Num:
		v := x.Val
		return func([]float64, float64) float64 { return v }, 0, nil
	case *Ref:
		if a, isArr := e.arrays[x.Name]; isArr {
			slot := len(*leaves)
			*leaves = append(*leaves, a)
			return func(vals []float64, _ float64) float64 { return vals[slot] }, 0, nil
		}
		if forallVar != "" && x.Name == forallVar {
			return func(_ []float64, idx float64) float64 { return idx }, 0, nil
		}
		v, err := e.evalScalar(x)
		if err != nil {
			return nil, 0, err
		}
		return func([]float64, float64) float64 { return v }, 0, nil
	case *Index:
		a, ok := e.arrays[x.Name]
		if !ok {
			return nil, 0, fmt.Errorf("cmf: internal: indexed array %s unbound", x.Name)
		}
		slot := len(*leaves)
		*leaves = append(*leaves, a)
		return func(vals []float64, _ float64) float64 { return vals[slot] }, 0, nil
	case *Unary:
		inner, fl, err := e.compileElem(x.X, leaves, forallVar)
		if err != nil {
			return nil, 0, err
		}
		return func(vals []float64, idx float64) float64 { return -inner(vals, idx) }, fl + 1, nil
	case *Binary:
		l, fl1, err := e.compileElem(x.L, leaves, forallVar)
		if err != nil {
			return nil, 0, err
		}
		r, fl2, err := e.compileElem(x.R, leaves, forallVar)
		if err != nil {
			return nil, 0, err
		}
		op := x.Op
		return func(vals []float64, idx float64) float64 {
			a, b := l(vals, idx), r(vals, idx)
			switch op {
			case '+':
				return a + b
			case '-':
				return a - b
			case '*':
				return a * b
			default:
				return a / b
			}
		}, fl1 + fl2 + 1, nil
	case *Call:
		inner, fl, err := e.compileElem(x.Args[0], leaves, forallVar)
		if err != nil {
			return nil, 0, err
		}
		fn, err := elemFn(x.Fn)
		if err != nil {
			return nil, 0, err
		}
		return func(vals []float64, idx float64) float64 { return fn(inner(vals, idx)) }, fl + 4, nil
	default:
		return nil, 0, fmt.Errorf("cmf: internal: unknown expression node %T", ex)
	}
}

func elemFn(name string) (func(float64) float64, error) {
	switch name {
	case "SQRT":
		return math.Sqrt, nil
	case "ABS":
		return math.Abs, nil
	case "EXP":
		return math.Exp, nil
	case "LOG":
		return math.Log, nil
	default:
		return nil, fmt.Errorf("cmf: internal: %s is not elementwise", name)
	}
}

// evalScalar evaluates a control-processor expression.
func (e *Executor) evalScalar(ex Expr) (float64, error) {
	switch x := ex.(type) {
	case *Num:
		return x.Val, nil
	case *Ref:
		if v, ok := e.scalars[x.Name]; ok {
			return v, nil
		}
		if v, ok := e.loops[x.Name]; ok {
			return v, nil
		}
		return 0, fmt.Errorf("cmf: internal: unbound scalar %s", x.Name)
	case *Unary:
		v, err := e.evalScalar(x.X)
		return -v, err
	case *Binary:
		l, err := e.evalScalar(x.L)
		if err != nil {
			return 0, err
		}
		r, err := e.evalScalar(x.R)
		if err != nil {
			return 0, err
		}
		switch x.Op {
		case '+':
			return l + r, nil
		case '-':
			return l - r, nil
		case '*':
			return l * r, nil
		default:
			return l / r, nil
		}
	case *Call:
		v, err := e.evalScalar(x.Args[0])
		if err != nil {
			return 0, err
		}
		fn, err := elemFn(x.Fn)
		if err != nil {
			return 0, err
		}
		return fn(v), nil
	default:
		return 0, fmt.Errorf("cmf: internal: unknown scalar expression %T", ex)
	}
}
