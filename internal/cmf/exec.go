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
//
// Elementwise statements (parallel assignment, WHERE, FORALL) are not
// interpreted per element: each is lowered once to a vecProgram (see
// vector.go) that the runtime runs over every node's section a strip at
// a time.
type Executor struct {
	cp      *Compiled
	rt      *cmrts.Runtime
	out     io.Writer
	scalars map[string]float64
	arrays  map[string]*cmrts.Array
	loops   map[string]float64

	// progs caches the lowered elementwise statements by StmtInfo.Slot.
	// The cache is the Executor's, not the Compiled's: a program binds
	// this run's arrays and carries execution state.
	progs []*vecProgram
	// scratch backs the temporaries of whichever vecProgram is running;
	// ids is execBlock's argument list. Both are reused by every
	// statement, so a warmed loop iteration allocates neither. low is the
	// lowering state, reused the same way.
	scratch []float64
	ids     []cmrts.ArrayID
	low     lowerer
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
		progs:   make([]*vecProgram, cp.parallelStmts),
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
	e.ids = e.ids[:0]
	for _, name := range b.Arrays {
		if a, ok := e.arrays[name]; ok {
			e.ids = append(e.ids, a.ID)
		}
	}
	return e.rt.DispatchBlock(b.Name, e.ids, func() error {
		for _, s := range b.Stmts {
			if err := e.execParallelStmt(s, b.Name); err != nil {
				return err
			}
		}
		return nil
	})
}

func (e *Executor) execParallelStmt(s Stmt, tag string) error {
	info := e.cp.Infos[s.Line()]
	if info.Kind == KindCompute {
		return e.execElementwise(info, tag)
	}
	if st, ok := s.(*Assign); ok {
		switch info.Kind {
		case KindReduce:
			return e.execReduce(st, info, tag)
		case KindTransform:
			return e.execTransform(st, info, tag)
		}
	}
	return errf(s.Line(), "internal: unexpected parallel statement %T", s)
}

// execElementwise runs a parallel assignment, WHERE or FORALL: the
// statement's vecProgram — lowered on its first execution, cached after —
// computes every node's section in one Elementwise call.
func (e *Executor) execElementwise(info *StmtInfo, tag string) error {
	p := e.progs[info.Slot]
	if p == nil {
		var err error
		if p, err = e.lower(info.Stmt); err != nil {
			return err
		}
		e.progs[info.Slot] = p
	}
	dst := p.dst
	// Scalars and loop variables have their value as of this execution.
	for i, ex := range p.scalars {
		v, err := e.evalScalar(ex)
		if err != nil {
			return err
		}
		p.vals[i] = v
	}
	srcs := p.leaves
	switch {
	case p.forall:
		// A FORALL's compute points report the destination only.
		srcs = nil
	case len(srcs) == 0:
		// A right-hand side with no array operands — the program's one
		// scalar operand — is a scalar fill: the control processor
		// broadcasts the value to the nodes (CM Fortran semantics for
		// scalar promotion), which is where Figure 9's Broadcasts come
		// from.
		return e.rt.Fill(dst, p.vals[0], tag)
	}
	// Node 0 holds the longest section.
	width := min(strip, dst.LocalLen(0))
	if need := p.temps * width; len(e.scratch) < need {
		e.scratch = make([]float64, need)
	}
	return e.rt.Elementwise(tag, dst, srcs, p.flops, func(node, lo int, out []float64) {
		p.run(node, lo, out, e.scratch, width)
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
			func(node, _ int, out []float64) { copy(out, src.Local(node)) }); err != nil {
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
