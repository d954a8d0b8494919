package cmf

import (
	"fmt"
	"math"
	"slices"

	"nvmap/internal/cmrts"
)

// strip is how many elements one vector instruction processes before the
// next instruction runs: long enough to amortise instruction dispatch,
// short enough that a statement's temporaries (2 KiB each) stay in the
// host's first-level cache.
const strip = 256

// opcode names one strip-wide instruction. Every arithmetic instruction
// is a single Go floating-point operation whose result is stored before
// the next instruction loads it, so no compiler on any GOARCH can fuse a
// multiply into an add: each element sees the IEEE operations of the
// source expression, one rounding each, in the source's order.
type opcode uint8

const (
	opAdd opcode = iota
	opSub
	opMul
	opDiv
	opNeg
	opSqrt
	opAbs
	opExp
	opLog
	opMove   // out = a
	opIndex  // out = the FORALL index (1-based flat index)
	opSelect // out = c where cmp(a, b) holds, unchanged elsewhere
)

// operandKind says where an instruction finds an operand.
type operandKind uint8

const (
	inScalar operandKind = iota // vals[n], evaluated at the start of the execution
	inLeaf                      // leaves[n]'s local section, read in place
	inTemp                      // strip-sized temporary n
	inOut                       // the destination's local section
)

type operand struct {
	kind operandKind
	n    int32
}

type instr struct {
	op           opcode
	out, a, b, c operand
}

// vecProgram is one elementwise statement (parallel assignment, WHERE or
// FORALL) lowered to straight-line vector instructions. An Executor
// lowers a statement the first time it executes it and reuses the
// program afterwards: the array bindings are fixed (declarations cannot
// sit inside loops), and everything that can change between executions —
// scalars, enclosing DO variables — lives in scalars, re-evaluated by
// evalScalar at the start of each execution, which is Fortran's
// captured-at-execution meaning.
type vecProgram struct {
	dst    *cmrts.Array // the array the statement assigns
	instrs []instr
	// leaves are the array operands in evaluation order (duplicates
	// kept): what the compute points report after the destination.
	leaves []*cmrts.Array
	// scalars are the maximal array-free subtrees, one operand each;
	// vals holds their values for the current execution.
	scalars []Expr
	vals    []float64
	// flops is the per-element arithmetic estimate, counted over the
	// whole expression (scalar subtrees included).
	flops int
	// temps is how many temporaries are live at once.
	temps int
	// cmp is WHERE's comparison (nil otherwise); forall marks a FORALL.
	cmp    func(a, b float64) bool
	forall bool
}

// value is an operand during lowering. A scalar one is still an
// expression: it becomes a slot in scalars only when a vector instruction
// consumes it, so an array-free subtree of any size is one operand.
type value struct {
	operand
	scalar Expr
}

// lowerer builds a vecProgram. An Executor keeps one and reuses it for
// every statement: p's slices grow in the lowerer's buffers, and finish
// copies them out at their final size. A statement outside any loop is
// lowered to run once, so its program should cost no more memory than it
// needs.
type lowerer struct {
	e         *Executor
	p         vecProgram
	forallVar string
	busy      []bool // busy[t]: temporary t holds a live value
}

// startLowering returns the Executor's lowerer, reset for a statement
// that assigns the array named lhs.
func (e *Executor) startLowering(lhs, forallVar string) *lowerer {
	l := &e.low
	l.e, l.forallVar, l.busy = e, forallVar, l.busy[:0]
	l.p = vecProgram{
		dst:    e.arrays[lhs],
		instrs: l.p.instrs[:0], leaves: l.p.leaves[:0], scalars: l.p.scalars[:0],
		forall: forallVar != "",
	}
	return l
}

func (l *lowerer) finish() *vecProgram {
	p := l.p
	p.instrs, p.leaves, p.scalars = slices.Clone(p.instrs), slices.Clone(p.leaves), slices.Clone(p.scalars)
	p.vals = make([]float64, len(p.scalars))
	return &p
}

// lower lowers an elementwise statement.
func (e *Executor) lower(s Stmt) (*vecProgram, error) {
	switch st := s.(type) {
	case *Assign:
		return e.lowerCompute(st.LHS, st.RHS, "")
	case *Forall:
		return e.lowerCompute(st.LHS, st.RHS, st.Var)
	case *Where:
		return e.lowerWhere(st)
	default:
		return nil, errf(s.Line(), "internal: %T is not elementwise", s)
	}
}

// lowerCompute lowers "lhs = rhs". forallVar names the FORALL index, ""
// outside a FORALL.
func (e *Executor) lowerCompute(lhs string, rhs Expr, forallVar string) (*vecProgram, error) {
	l := e.startLowering(lhs, forallVar)
	v, err := l.lower(rhs, true)
	if err != nil {
		return nil, err
	}
	if v.kind != inOut {
		// A bare leaf, scalar or index: nothing wrote the destination yet.
		l.emit(instr{op: opMove, a: l.use(v)}, true)
	}
	return l.finish(), nil
}

// lowerWhere lowers a masked assignment. Both condition sides and the
// right-hand side are evaluated for every element and the select keeps
// the old value where the condition fails; evaluating the right-hand side
// eagerly is safe only because no float operation traps. The destination
// is the final leaf (its old value is a source), read in place by the
// select.
func (e *Executor) lowerWhere(st *Where) (*vecProgram, error) {
	l := e.startLowering(st.LHS, "")
	in := instr{op: opSelect}
	var err error
	if in.a, err = l.operandOf(st.CondL); err != nil {
		return nil, err
	}
	if in.b, err = l.operandOf(st.CondR); err != nil {
		return nil, err
	}
	if in.c, err = l.operandOf(st.RHS); err != nil {
		return nil, err
	}
	if l.p.cmp, err = comparator(st.CondOp); err != nil {
		return nil, err
	}
	l.p.flops++
	l.p.leaves = append(l.p.leaves, l.p.dst)
	l.emit(in, true)
	return l.finish(), nil
}

// lower emits the instructions computing ex and returns where its value
// is. toOut asks for the instruction producing the value (if any) to
// write the destination section directly.
func (l *lowerer) lower(ex Expr, toOut bool) (value, error) {
	switch x := ex.(type) {
	case *Num:
		return value{scalar: x}, nil
	case *Ref:
		if a, isArr := l.e.arrays[x.Name]; isArr {
			return l.leaf(a), nil
		}
		if l.forallVar != "" && x.Name == l.forallVar {
			return l.emit(instr{op: opIndex}, toOut), nil
		}
		return value{scalar: x}, nil
	case *Index:
		a, ok := l.e.arrays[x.Name]
		if !ok {
			return value{}, fmt.Errorf("cmf: internal: indexed array %s unbound", x.Name)
		}
		return l.leaf(a), nil
	case *Unary:
		v, err := l.lower(x.X, false)
		if err != nil {
			return value{}, err
		}
		l.p.flops++
		if v.scalar != nil {
			return value{scalar: x}, nil
		}
		return l.emit(instr{op: opNeg, a: v.operand}, toOut), nil
	case *Binary:
		a, err := l.lower(x.L, false)
		if err != nil {
			return value{}, err
		}
		b, err := l.lower(x.R, false)
		if err != nil {
			return value{}, err
		}
		l.p.flops++
		if a.scalar != nil && b.scalar != nil {
			return value{scalar: x}, nil
		}
		op := opDiv
		switch x.Op {
		case '+':
			op = opAdd
		case '-':
			op = opSub
		case '*':
			op = opMul
		}
		return l.emit(instr{op: op, a: l.use(a), b: l.use(b)}, toOut), nil
	case *Call:
		v, err := l.lower(x.Args[0], false)
		if err != nil {
			return value{}, err
		}
		op, err := elemOp(x.Fn)
		if err != nil {
			return value{}, err
		}
		l.p.flops += 4
		if v.scalar != nil {
			return value{scalar: x}, nil
		}
		return l.emit(instr{op: op, a: v.operand}, toOut), nil
	default:
		return value{}, fmt.Errorf("cmf: internal: unknown expression node %T", ex)
	}
}

func (l *lowerer) leaf(a *cmrts.Array) value {
	l.p.leaves = append(l.p.leaves, a)
	return value{operand: operand{kind: inLeaf, n: int32(len(l.p.leaves) - 1)}}
}

// operandOf lowers ex into an instruction operand.
func (l *lowerer) operandOf(ex Expr) (operand, error) {
	v, err := l.lower(ex, false)
	if err != nil {
		return operand{}, err
	}
	return l.use(v), nil
}

// use turns a value into an instruction operand, giving a scalar
// expression its slot.
func (l *lowerer) use(v value) operand {
	if v.scalar == nil {
		return v.operand
	}
	l.p.scalars = append(l.p.scalars, v.scalar)
	return operand{kind: inScalar, n: int32(len(l.p.scalars) - 1)}
}

// emit appends in and returns its result. Unless the result goes to the
// destination, it overwrites a temporary operand in place when there is
// one — every instruction reads element i of its operands before it
// writes element i — so a statement needs only as many temporaries as
// are live at once. Temporaries the instruction consumed are free again.
func (l *lowerer) emit(in instr, toOut bool) value {
	operands := [...]operand{in.a, in.b, in.c}
	switch {
	case toOut:
		in.out = operand{kind: inOut}
	case in.a.kind == inTemp:
		in.out = in.a
	case in.b.kind == inTemp:
		in.out = in.b
	case in.c.kind == inTemp:
		in.out = in.c
	default:
		t := 0
		for t < len(l.busy) && l.busy[t] {
			t++
		}
		if t == len(l.busy) {
			l.busy = append(l.busy, false)
			l.p.temps = len(l.busy)
		}
		l.busy[t] = true
		in.out = operand{kind: inTemp, n: int32(t)}
	}
	for _, o := range operands {
		if o.kind == inTemp && o != in.out {
			l.busy[o.n] = false
		}
	}
	l.p.instrs = append(l.p.instrs, in)
	return value{operand: in.out}
}

func elemOp(name string) (opcode, error) {
	switch name {
	case "SQRT":
		return opSqrt, nil
	case "ABS":
		return opAbs, nil
	case "EXP":
		return opExp, nil
	case "LOG":
		return opLog, nil
	default:
		return 0, fmt.Errorf("cmf: internal: %s is not elementwise", name)
	}
}

// run computes one node's destination section out (first flat index lo),
// a strip at a time. tmp backs the temporaries at width elements each.
func (p *vecProgram) run(node, lo int, out, tmp []float64, width int) {
	for at := 0; at < len(out); at += width {
		n := min(width, len(out)-at)
		// vec is the strip of a vector operand, nil for a scalar one.
		vec := func(o operand) []float64 {
			switch o.kind {
			case inLeaf:
				return p.leaves[o.n].Local(node)[at : at+n]
			case inTemp:
				return tmp[int(o.n)*width:][:n]
			case inOut:
				return out[at : at+n]
			}
			return nil
		}
		for k := range p.instrs {
			in := &p.instrs[k]
			o := vec(in.out)
			switch in.op {
			case opAdd, opSub, opMul, opDiv:
				switch {
				case in.a.kind == inScalar:
					scalarOpVec(in.op, o, p.vals[in.a.n], vec(in.b))
				case in.b.kind == inScalar:
					vecOpScalar(in.op, o, vec(in.a), p.vals[in.b.n])
				default:
					vecOpVec(in.op, o, vec(in.a), vec(in.b))
				}
			case opMove:
				if in.a.kind == inScalar {
					v := p.vals[in.a.n]
					for i := range o {
						o[i] = v
					}
				} else {
					copy(o, vec(in.a))
				}
			case opIndex:
				for i := range o {
					o[i] = float64(lo + at + i + 1)
				}
			case opSelect:
				p.selectWhere(o, in, vec(in.a), vec(in.b), vec(in.c))
			default:
				unaryOpVec(in.op, o, vec(in.a))
			}
		}
	}
}

// selectWhere is WHERE's strip: out[i] = c[i] where cmp(a[i], b[i]). A
// nil strip stands for the operand's scalar.
func (p *vecProgram) selectWhere(out []float64, in *instr, av, bv, cv []float64) {
	var a, b, c float64
	if av == nil {
		a = p.vals[in.a.n]
	}
	if bv == nil {
		b = p.vals[in.b.n]
	}
	if cv == nil {
		c = p.vals[in.c.n]
	}
	for i := range out {
		if av != nil {
			a = av[i]
		}
		if bv != nil {
			b = bv[i]
		}
		if cv != nil {
			c = cv[i]
		}
		if p.cmp(a, b) {
			out[i] = c
		}
	}
}

func vecOpVec(op opcode, out, a, b []float64) {
	a, b = a[:len(out)], b[:len(out)]
	switch op {
	case opAdd:
		for i := range out {
			out[i] = a[i] + b[i]
		}
	case opSub:
		for i := range out {
			out[i] = a[i] - b[i]
		}
	case opMul:
		for i := range out {
			out[i] = a[i] * b[i]
		}
	default:
		for i := range out {
			out[i] = a[i] / b[i]
		}
	}
}

func vecOpScalar(op opcode, out, a []float64, b float64) {
	a = a[:len(out)]
	switch op {
	case opAdd:
		for i := range out {
			out[i] = a[i] + b
		}
	case opSub:
		for i := range out {
			out[i] = a[i] - b
		}
	case opMul:
		for i := range out {
			out[i] = a[i] * b
		}
	default:
		for i := range out {
			out[i] = a[i] / b
		}
	}
}

func scalarOpVec(op opcode, out []float64, a float64, b []float64) {
	b = b[:len(out)]
	switch op {
	case opAdd:
		for i := range out {
			out[i] = a + b[i]
		}
	case opSub:
		for i := range out {
			out[i] = a - b[i]
		}
	case opMul:
		for i := range out {
			out[i] = a * b[i]
		}
	default:
		for i := range out {
			out[i] = a / b[i]
		}
	}
}

func unaryOpVec(op opcode, out, a []float64) {
	a = a[:len(out)]
	switch op {
	case opNeg:
		for i := range out {
			out[i] = -a[i]
		}
	case opSqrt:
		for i := range out {
			out[i] = math.Sqrt(a[i])
		}
	case opAbs:
		for i := range out {
			out[i] = math.Abs(a[i])
		}
	case opExp:
		for i := range out {
			out[i] = math.Exp(a[i])
		}
	default:
		for i := range out {
			out[i] = math.Log(a[i])
		}
	}
}
