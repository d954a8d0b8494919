package cmf

import (
	"fmt"
	"sort"
	"strings"
)

// StmtKind classifies executable statements for lowering.
type StmtKind int

// Statement kinds.
const (
	// KindSerial runs on the control processor (scalar assignments,
	// PRINT).
	KindSerial StmtKind = iota
	// KindCompute is an elementwise parallel assignment or FORALL.
	KindCompute
	// KindReduce assigns a reduction intrinsic's result to a scalar.
	KindReduce
	// KindTransform is a whole-array transformation (CSHIFT, EOSHIFT,
	// TRANSPOSE, SCAN, SORT).
	KindTransform
)

// String names the kind (also the keyword in compiler listings).
func (k StmtKind) String() string {
	switch k {
	case KindSerial:
		return "serial"
	case KindCompute:
		return "compute"
	case KindReduce:
		return "reduce"
	case KindTransform:
		return "transform"
	default:
		return fmt.Sprintf("StmtKind(%d)", int(k))
	}
}

// Block is a compiler-generated node code block: the unit the control
// processor dispatches to the nodes, and the Base-level noun the tool's
// static mappings connect to source lines (Figure 2's cmpe_corr_6_()).
type Block struct {
	Name      string
	Kind      StmtKind
	Intrinsic string // reduction/transform intrinsic, "" for compute
	Lines     []int
	Stmts     []Stmt
	Arrays    []string // source-level array names the block touches
}

// StmtInfo is the semantic record for one executable statement.
type StmtInfo struct {
	Stmt      Stmt
	Kind      StmtKind
	Intrinsic string
	Arrays    []string
	Block     *Block // nil for serial statements
	// Slot numbers the parallel statements densely (0 for serial ones):
	// the index of the statement's entry in an Executor's caches.
	Slot int
}

// Options configures compilation.
type Options struct {
	// Fuse merges runs of adjacent elementwise statements into a single
	// node code block, the optimizing-compiler behaviour that produces
	// the one-to-many mappings of Figure 2. Off, every parallel
	// statement gets its own block.
	Fuse bool
	// SourceFile names the source in listings and PIF descriptions.
	SourceFile string
}

// Compiled is a semantically checked, lowered program.
type Compiled struct {
	Prog    *Program
	Opts    Options
	Arrays  map[string]*Decl // declared parallel arrays by name
	Scalars map[string]*Decl // declared scalars by name
	Infos   map[int]*StmtInfo
	Blocks  []*Block
	// ArrayOrder lists array names in declaration order.
	ArrayOrder []string
	// parallelStmts counts the statements that got a StmtInfo.Slot.
	parallelStmts int
}

// Compile parses (if necessary the caller already has a Program),
// semantically checks, and lowers a program.
func Compile(prog *Program, opts Options) (compiled *Compiled, err error) {
	if prog == nil {
		return nil, fmt.Errorf("cmf: nil program")
	}
	// Compile accepts hand-built Programs, so malformed ASTs (nil
	// statements, foreign node types) must come back as errors, not
	// crash the caller.
	defer func() {
		if r := recover(); r != nil {
			compiled, err = nil, fmt.Errorf("cmf: invalid program: %v", r)
		}
	}()
	c := &compiler{
		out: &Compiled{
			Prog:    prog,
			Opts:    opts,
			Arrays:  make(map[string]*Decl),
			Scalars: make(map[string]*Decl),
			Infos:   make(map[int]*StmtInfo),
		},
	}
	if err := c.checkScope(prog.Body, nil); err != nil {
		return nil, err
	}
	if err := c.lowerScope(prog.Body); err != nil {
		return nil, err
	}
	return c.out, nil
}

// CompileSource is the one-call convenience: parse then compile.
func CompileSource(src string, opts Options) (*Compiled, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Compile(prog, opts)
}

type compiler struct {
	out      *Compiled
	blockSeq int
}

// arraySize returns an array's element count.
func arraySize(d *Decl) int {
	size := 1
	for _, v := range d.Dims {
		size *= v
	}
	return size
}

// checkScope performs semantic analysis on a statement list. loopVars
// holds the enclosing DO/FORALL induction variables.
func (c *compiler) checkScope(body []Stmt, loopVars []string) error {
	for _, s := range body {
		switch st := s.(type) {
		case *Decl:
			// Fortran puts declarations before executable statements. One
			// inside a loop would allocate again on every iteration; its
			// absence is also what lets an Executor bind a statement's
			// arrays once.
			if len(loopVars) > 0 {
				return errf(st.Ln, "declaration of %s inside a DO loop", st.Name)
			}
			if err := c.declare(st); err != nil {
				return err
			}
		case *Assign:
			if err := c.checkAssign(st, loopVars); err != nil {
				return err
			}
		case *Forall:
			if err := c.checkForall(st, loopVars); err != nil {
				return err
			}
		case *Where:
			if err := c.checkWhere(st, loopVars); err != nil {
				return err
			}
		case *DoLoop:
			if _, clash := c.out.Arrays[st.Var]; clash {
				return errf(st.Ln, "loop variable %s shadows an array", st.Var)
			}
			if err := c.checkScope(st.Body, append(loopVars, st.Var)); err != nil {
				return err
			}
		case *Print:
			if err := c.checkScalarExpr(st.Arg, st.Ln, loopVars); err != nil {
				return err
			}
			c.out.Infos[st.Ln] = &StmtInfo{Stmt: st, Kind: KindSerial}
		default:
			return errf(s.Line(), "unsupported statement %T", s)
		}
	}
	return nil
}

func (c *compiler) declare(d *Decl) error {
	if _, dup := c.out.Arrays[d.Name]; dup {
		return errf(d.Ln, "%s already declared", d.Name)
	}
	if _, dup := c.out.Scalars[d.Name]; dup {
		return errf(d.Ln, "%s already declared", d.Name)
	}
	if len(d.Dims) > 0 {
		if d.IsInt {
			return errf(d.Ln, "INTEGER arrays are not supported; %s must be REAL", d.Name)
		}
		c.out.Arrays[d.Name] = d
		c.out.ArrayOrder = append(c.out.ArrayOrder, d.Name)
	} else {
		c.out.Scalars[d.Name] = d
	}
	return nil
}

func isLoopVar(name string, loopVars []string) bool {
	for _, v := range loopVars {
		if v == name {
			return true
		}
	}
	return false
}

func (c *compiler) checkAssign(st *Assign, loopVars []string) error {
	if _, isArr := c.out.Arrays[st.LHS]; isArr {
		return c.checkParallelAssign(st, loopVars)
	}
	if _, isScal := c.out.Scalars[st.LHS]; isScal {
		return c.checkScalarAssign(st, loopVars)
	}
	if isLoopVar(st.LHS, loopVars) {
		return errf(st.Ln, "cannot assign to loop variable %s", st.LHS)
	}
	return errf(st.Ln, "assignment to undeclared name %s", st.LHS)
}

func (c *compiler) checkScalarAssign(st *Assign, loopVars []string) error {
	// Reduction form: S = SUM(A), S = DOT_PRODUCT(A, B), etc.
	if call, ok := st.RHS.(*Call); ok && reductionIntrinsics[call.Fn] {
		wantArgs := 1
		if call.Fn == "DOT_PRODUCT" {
			wantArgs = 2
		}
		if len(call.Args) != wantArgs {
			return errf(st.Ln, "%s takes exactly %d array argument(s)", call.Fn, wantArgs)
		}
		var names []string
		var size int
		for i, arg := range call.Args {
			ref, ok := arg.(*Ref)
			if !ok {
				return errf(st.Ln, "%s argument must be a whole array", call.Fn)
			}
			d, isArr := c.out.Arrays[ref.Name]
			if !isArr {
				return errf(st.Ln, "%s argument %s is not a parallel array", call.Fn, ref.Name)
			}
			if i == 0 {
				size = arraySize(d)
			} else if arraySize(d) != size {
				return errf(st.Ln, "%s arguments are not conformable", call.Fn)
			}
			names = append(names, ref.Name)
		}
		c.out.Infos[st.Ln] = &StmtInfo{
			Stmt: st, Kind: KindReduce, Intrinsic: call.Fn, Arrays: names,
		}
		return nil
	}
	if err := c.checkScalarExpr(st.RHS, st.Ln, loopVars); err != nil {
		return err
	}
	c.out.Infos[st.Ln] = &StmtInfo{Stmt: st, Kind: KindSerial}
	return nil
}

// checkScalarExpr validates a pure control-processor expression.
func (c *compiler) checkScalarExpr(e Expr, line int, loopVars []string) error {
	var err error
	refErr := exprRefs(e, func(name string, indexed bool) {
		if err != nil {
			return
		}
		if indexed {
			err = errf(line, "indexed reference %s(...) outside FORALL", name)
			return
		}
		if _, isArr := c.out.Arrays[name]; isArr {
			err = errf(line, "array %s used in scalar expression", name)
			return
		}
		if _, isScal := c.out.Scalars[name]; !isScal && !isLoopVar(name, loopVars) {
			err = errf(line, "undeclared name %s", name)
		}
	})
	if err == nil && refErr != nil {
		err = errf(line, "%v", refErr)
	}
	if err != nil {
		return err
	}
	return checkCalls(e, line, func(call *Call) error {
		if !elementwiseIntrinsics[call.Fn] {
			return errf(line, "%s cannot appear inside a scalar expression", call.Fn)
		}
		if len(call.Args) != 1 {
			return errf(line, "%s takes exactly one argument", call.Fn)
		}
		return nil
	})
}

// checkCalls visits all Call nodes.
func checkCalls(e Expr, line int, fn func(*Call) error) error {
	switch x := e.(type) {
	case *Unary:
		return checkCalls(x.X, line, fn)
	case *Binary:
		if err := checkCalls(x.L, line, fn); err != nil {
			return err
		}
		return checkCalls(x.R, line, fn)
	case *Call:
		if err := fn(x); err != nil {
			return err
		}
		for _, a := range x.Args {
			if err := checkCalls(a, line, fn); err != nil {
				return err
			}
		}
	}
	return nil
}

func (c *compiler) checkParallelAssign(st *Assign, loopVars []string) error {
	lhs := c.out.Arrays[st.LHS]
	// Whole-RHS transform: A = CSHIFT(B, 1) etc.
	if call, ok := st.RHS.(*Call); ok && transformIntrinsics[call.Fn] {
		return c.checkTransform(st, lhs, call)
	}
	// Elementwise expression.
	arrays := map[string]bool{st.LHS: true}
	var err error
	refErr := exprRefs(st.RHS, func(name string, indexed bool) {
		if err != nil {
			return
		}
		if indexed {
			err = errf(st.Ln, "indexed reference %s(...) outside FORALL", name)
			return
		}
		if d, isArr := c.out.Arrays[name]; isArr {
			if arraySize(d) != arraySize(lhs) {
				err = errf(st.Ln, "array %s (%d elems) is not conformable with %s (%d elems)",
					name, arraySize(d), st.LHS, arraySize(lhs))
				return
			}
			arrays[name] = true
			return
		}
		if _, isScal := c.out.Scalars[name]; !isScal && !isLoopVar(name, loopVars) {
			err = errf(st.Ln, "undeclared name %s", name)
		}
	})
	if err == nil && refErr != nil {
		err = errf(st.Ln, "%v", refErr)
	}
	if err != nil {
		return err
	}
	if err := checkCalls(st.RHS, st.Ln, func(call *Call) error {
		if reductionIntrinsics[call.Fn] || transformIntrinsics[call.Fn] {
			return errf(st.Ln, "%s cannot be nested inside an elementwise expression", call.Fn)
		}
		if len(call.Args) != 1 {
			return errf(st.Ln, "%s takes exactly one argument", call.Fn)
		}
		return nil
	}); err != nil {
		return err
	}
	c.out.Infos[st.Ln] = &StmtInfo{
		Stmt: st, Kind: KindCompute, Arrays: sortedNames(arrays),
	}
	return nil
}

func (c *compiler) checkTransform(st *Assign, lhs *Decl, call *Call) error {
	argRef := func(i int) (*Decl, error) {
		ref, ok := call.Args[i].(*Ref)
		if !ok {
			return nil, errf(st.Ln, "%s argument must be a whole array", call.Fn)
		}
		d, isArr := c.out.Arrays[ref.Name]
		if !isArr {
			return nil, errf(st.Ln, "%s argument %s is not a parallel array", call.Fn, ref.Name)
		}
		return d, nil
	}
	intLit := func(i int) error {
		switch a := call.Args[i].(type) {
		case *Num:
			if a.Val != float64(int(a.Val)) {
				return errf(st.Ln, "%s offset must be an integer literal", call.Fn)
			}
			return nil
		case *Unary:
			if n, ok := a.X.(*Num); ok && n.Val == float64(int(n.Val)) {
				return nil
			}
		}
		return errf(st.Ln, "%s offset must be an integer literal", call.Fn)
	}

	var src *Decl
	var err error
	switch call.Fn {
	case "CSHIFT":
		if len(call.Args) != 2 {
			return errf(st.Ln, "CSHIFT takes (array, offset)")
		}
		if src, err = argRef(0); err != nil {
			return err
		}
		if err := intLit(1); err != nil {
			return err
		}
	case "EOSHIFT":
		if len(call.Args) != 2 && len(call.Args) != 3 {
			return errf(st.Ln, "EOSHIFT takes (array, offset [, fill])")
		}
		if src, err = argRef(0); err != nil {
			return err
		}
		if err := intLit(1); err != nil {
			return err
		}
		if len(call.Args) == 3 {
			if _, ok := call.Args[2].(*Num); !ok {
				return errf(st.Ln, "EOSHIFT fill must be a numeric literal")
			}
		}
	case "TRANSPOSE":
		if len(call.Args) != 1 {
			return errf(st.Ln, "TRANSPOSE takes one array")
		}
		if src, err = argRef(0); err != nil {
			return err
		}
		if len(src.Dims) != 2 {
			return errf(st.Ln, "TRANSPOSE needs a 2-D array, %s is %d-D", src.Name, len(src.Dims))
		}
		if len(lhs.Dims) != 2 || lhs.Dims[0] != src.Dims[1] || lhs.Dims[1] != src.Dims[0] {
			return errf(st.Ln, "%s must be declared %dx%d to hold TRANSPOSE(%s)",
				st.LHS, src.Dims[1], src.Dims[0], src.Name)
		}
	case "SCAN", "SORT":
		if len(call.Args) != 1 {
			return errf(st.Ln, "%s takes one array", call.Fn)
		}
		if src, err = argRef(0); err != nil {
			return err
		}
	default:
		return errf(st.Ln, "unknown transform %s", call.Fn)
	}
	if arraySize(src) != arraySize(lhs) {
		return errf(st.Ln, "%s result (%d elems) is not conformable with %s (%d elems)",
			call.Fn, arraySize(src), st.LHS, arraySize(lhs))
	}
	arrays := map[string]bool{st.LHS: true, src.Name: true}
	c.out.Infos[st.Ln] = &StmtInfo{
		Stmt: st, Kind: KindTransform, Intrinsic: call.Fn, Arrays: sortedNames(arrays),
	}
	return nil
}

// checkWhere validates a masked assignment: the target must be a
// parallel array, and the condition sides and right-hand side must be
// elementwise expressions conformable with it.
func (c *compiler) checkWhere(st *Where, loopVars []string) error {
	lhs, isArr := c.out.Arrays[st.LHS]
	if !isArr {
		return errf(st.Ln, "WHERE target %s is not a parallel array", st.LHS)
	}
	arrays := map[string]bool{st.LHS: true}
	for _, e := range []Expr{st.CondL, st.CondR, st.RHS} {
		var err error
		refErr := exprRefs(e, func(name string, indexed bool) {
			if err != nil {
				return
			}
			if indexed {
				err = errf(st.Ln, "indexed reference %s(...) outside FORALL", name)
				return
			}
			if d, isArr := c.out.Arrays[name]; isArr {
				if arraySize(d) != arraySize(lhs) {
					err = errf(st.Ln, "array %s is not conformable with WHERE target %s", name, st.LHS)
					return
				}
				arrays[name] = true
				return
			}
			if _, isScal := c.out.Scalars[name]; !isScal && !isLoopVar(name, loopVars) {
				err = errf(st.Ln, "undeclared name %s", name)
			}
		})
		if err == nil && refErr != nil {
			err = errf(st.Ln, "%v", refErr)
		}
		if err != nil {
			return err
		}
		if err := checkCalls(e, st.Ln, func(call *Call) error {
			if reductionIntrinsics[call.Fn] || transformIntrinsics[call.Fn] {
				return errf(st.Ln, "%s cannot appear inside WHERE", call.Fn)
			}
			if len(call.Args) != 1 {
				return errf(st.Ln, "%s takes exactly one argument", call.Fn)
			}
			return nil
		}); err != nil {
			return err
		}
	}
	c.out.Infos[st.Ln] = &StmtInfo{Stmt: st, Kind: KindCompute, Arrays: sortedNames(arrays)}
	return nil
}

func (c *compiler) checkForall(st *Forall, loopVars []string) error {
	lhs, isArr := c.out.Arrays[st.LHS]
	if !isArr {
		return errf(st.Ln, "FORALL target %s is not a parallel array", st.LHS)
	}
	// The index runs over the flattened array (row-major), so FORALL works
	// for any rank as long as it covers the array entirely.
	if st.Lo != 1 || st.Hi != arraySize(lhs) {
		return errf(st.Ln, "FORALL range must cover %s entirely (1:%d), got %d:%d",
			st.LHS, arraySize(lhs), st.Lo, st.Hi)
	}
	arrays := map[string]bool{st.LHS: true}
	var err error
	refErr := exprRefs(st.RHS, func(name string, indexed bool) {
		if err != nil {
			return
		}
		if indexed {
			d, isArr := c.out.Arrays[name]
			if !isArr {
				err = errf(st.Ln, "indexed name %s is not a parallel array", name)
				return
			}
			if arraySize(d) != arraySize(lhs) {
				err = errf(st.Ln, "array %s is not conformable with FORALL target %s", name, st.LHS)
				return
			}
			arrays[name] = true
			return
		}
		if name == st.Var {
			return
		}
		if _, isArrRef := c.out.Arrays[name]; isArrRef {
			err = errf(st.Ln, "whole array %s cannot appear in a FORALL body; index it with %s", name, st.Var)
			return
		}
		if _, isScal := c.out.Scalars[name]; !isScal && !isLoopVar(name, loopVars) {
			err = errf(st.Ln, "undeclared name %s", name)
		}
	})
	if err == nil && refErr != nil {
		err = errf(st.Ln, "%v", refErr)
	}
	if err != nil {
		return err
	}
	// Index nodes must use the FORALL variable.
	err = checkIndexVars(st.RHS, st.Var, st.Ln)
	if err != nil {
		return err
	}
	if err := checkCalls(st.RHS, st.Ln, func(call *Call) error {
		if !elementwiseIntrinsics[call.Fn] {
			return errf(st.Ln, "%s cannot appear inside FORALL", call.Fn)
		}
		return nil
	}); err != nil {
		return err
	}
	c.out.Infos[st.Ln] = &StmtInfo{Stmt: st, Kind: KindCompute, Arrays: sortedNames(arrays)}
	return nil
}

func checkIndexVars(e Expr, v string, line int) error {
	switch x := e.(type) {
	case *Index:
		if x.Var != v {
			return errf(line, "index variable must be %s, got %s", v, x.Var)
		}
	case *Unary:
		return checkIndexVars(x.X, v, line)
	case *Binary:
		if err := checkIndexVars(x.L, v, line); err != nil {
			return err
		}
		return checkIndexVars(x.R, v, line)
	case *Call:
		for _, a := range x.Args {
			if err := checkIndexVars(a, v, line); err != nil {
				return err
			}
		}
	}
	return nil
}

func sortedNames(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// lowerScope assigns node code blocks to the parallel statements of one
// scope. With fusion on, maximal runs of adjacent elementwise statements
// share one block; reductions and transforms always get their own.
func (c *compiler) lowerScope(body []Stmt) error {
	var run []*StmtInfo
	flush := func() {
		if len(run) > 0 {
			c.newBlock(run)
			run = nil
		}
	}
	for _, s := range body {
		if d, ok := s.(*DoLoop); ok {
			flush()
			if err := c.lowerScope(d.Body); err != nil {
				return err
			}
			continue
		}
		info, ok := c.out.Infos[s.Line()]
		if !ok {
			// Declarations carry no info record.
			if _, isDecl := s.(*Decl); isDecl {
				flush()
				continue
			}
			return errf(s.Line(), "internal: statement missing semantic info")
		}
		switch info.Kind {
		case KindSerial:
			flush()
		case KindCompute:
			if c.out.Opts.Fuse {
				run = append(run, info)
			} else {
				c.newBlock([]*StmtInfo{info})
			}
		case KindReduce, KindTransform:
			flush()
			c.newBlock([]*StmtInfo{info})
		}
	}
	flush()
	return nil
}

func (c *compiler) newBlock(infos []*StmtInfo) {
	c.blockSeq++
	b := &Block{
		Name: fmt.Sprintf("cmpe_%s_%d_()", strings.ToLower(c.out.Prog.Name), c.blockSeq),
		Kind: infos[0].Kind,
	}
	arrays := map[string]bool{}
	for _, info := range infos {
		info.Block = b
		info.Slot = c.out.parallelStmts
		c.out.parallelStmts++
		b.Lines = append(b.Lines, info.Stmt.Line())
		b.Stmts = append(b.Stmts, info.Stmt)
		if info.Intrinsic != "" {
			b.Intrinsic = info.Intrinsic
		}
		for _, a := range info.Arrays {
			arrays[a] = true
		}
	}
	b.Arrays = sortedNames(arrays)
	c.out.Blocks = append(c.out.Blocks, b)
}
