package cmf

import (
	"errors"
	"strings"
	"testing"
)

func compileSrc(t *testing.T, src string, opts Options) *Compiled {
	t.Helper()
	cp, err := CompileSource(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

const fusionProgram = `PROGRAM corr
REAL A(64)
REAL B(64)
REAL ASUM
A = 1.0
B = A * 2.0
ASUM = SUM(A)
A = B + 1.0
A = CSHIFT(A, 1)
END
`

func TestCompileAssignsBlocks(t *testing.T) {
	cp := compileSrc(t, fusionProgram, Options{})
	// Without fusion: 4 parallel assignments + 1 reduction + 1 transform?
	// Statements: A=1 (compute), B=A*2 (compute), ASUM=SUM(A) (reduce),
	// A=B+1 (compute), A=CSHIFT (transform) => 5 blocks unfused.
	if len(cp.Blocks) != 5 {
		t.Fatalf("blocks = %d, want 5", len(cp.Blocks))
	}
	for i, b := range cp.Blocks {
		if len(b.Lines) != 1 {
			t.Fatalf("unfused block %d has lines %v", i, b.Lines)
		}
		if !strings.HasPrefix(b.Name, "cmpe_corr_") || !strings.HasSuffix(b.Name, "_()") {
			t.Fatalf("block name %q not compiler-shaped", b.Name)
		}
	}
	if cp.Blocks[2].Kind != KindReduce || cp.Blocks[2].Intrinsic != "SUM" {
		t.Fatalf("reduce block = %+v", cp.Blocks[2])
	}
	if cp.Blocks[4].Kind != KindTransform || cp.Blocks[4].Intrinsic != "CSHIFT" {
		t.Fatalf("transform block = %+v", cp.Blocks[4])
	}
}

func TestCompileFusionMergesAdjacentCompute(t *testing.T) {
	cp := compileSrc(t, fusionProgram, Options{Fuse: true})
	// Fused: [A=1, B=A*2] ; SUM ; [A=B+1] ; CSHIFT => 4 blocks.
	if len(cp.Blocks) != 4 {
		t.Fatalf("fused blocks = %d, want 4", len(cp.Blocks))
	}
	first := cp.Blocks[0]
	if len(first.Lines) != 2 {
		t.Fatalf("first fused block lines = %v", first.Lines)
	}
	if first.Lines[0] != 5 || first.Lines[1] != 6 {
		t.Fatalf("fused lines = %v, want [5 6]", first.Lines)
	}
	// Both statements map to the same block: the Figure 2 situation.
	if cp.Infos[5].Block != cp.Infos[6].Block {
		t.Fatal("fused statements have different blocks")
	}
	if got := strings.Join(first.Arrays, ","); got != "A,B" {
		t.Fatalf("fused block arrays = %q", got)
	}
}

func TestCompileStatementKinds(t *testing.T) {
	cp := compileSrc(t, `PROGRAM k
REAL A(8)
REAL S
S = 3.0
A = S
S = SUM(A)
A = SORT(A)
FORALL (I = 1:8) A(I) = I
PRINT *, S
END
`, Options{})
	wants := map[int]StmtKind{
		4: KindSerial,    // S = 3.0
		5: KindCompute,   // A = S
		6: KindReduce,    // S = SUM(A)
		7: KindTransform, // A = SORT(A)
		8: KindCompute,   // FORALL
		9: KindSerial,    // PRINT
	}
	for line, want := range wants {
		info, ok := cp.Infos[line]
		if !ok {
			t.Fatalf("no info for line %d", line)
		}
		if info.Kind != want {
			t.Errorf("line %d kind = %v, want %v", line, info.Kind, want)
		}
	}
	// Serial statements have no block.
	if cp.Infos[4].Block != nil || cp.Infos[9].Block != nil {
		t.Fatal("serial statements assigned blocks")
	}
}

func TestCompileSemanticErrors(t *testing.T) {
	cases := map[string]string{
		"undeclared LHS":     "PROGRAM p\nX = 1\nEND\n",
		"undeclared RHS":     "PROGRAM p\nREAL X\nX = Y\nEND\n",
		"dup decl":           "PROGRAM p\nREAL X\nREAL X\nEND\n",
		"integer array":      "PROGRAM p\nINTEGER A(4)\nEND\n",
		"non-conformable":    "PROGRAM p\nREAL A(4)\nREAL B(5)\nA = B\nEND\n",
		"array in scalar":    "PROGRAM p\nREAL A(4)\nREAL X\nX = A\nEND\n",
		"scalar = transform": "PROGRAM p\nREAL A(4)\nREAL X\nX = CSHIFT(A, 1)\nEND\n",
		"reduce into array":  "PROGRAM p\nREAL A(4)\nA = SUM(A)\nEND\n",
		"nested reduce":      "PROGRAM p\nREAL A(4)\nA = A + SUM(A)\nEND\n",
		"nested transform":   "PROGRAM p\nREAL A(4)\nA = 1 + CSHIFT(A, 1)\nEND\n",
		"sum arity":          "PROGRAM p\nREAL A(4)\nREAL X\nX = SUM(A, A)\nEND\n",
		"sum of scalar":      "PROGRAM p\nREAL X\nREAL Y\nX = SUM(Y)\nEND\n",
		"cshift offset":      "PROGRAM p\nREAL A(4)\nA = CSHIFT(A, 1.5)\nEND\n",
		"cshift offset expr": "PROGRAM p\nREAL A(4)\nREAL K\nA = CSHIFT(A, K)\nEND\n",
		"eoshift fill":       "PROGRAM p\nREAL A(4)\nA = EOSHIFT(A, 1, A)\nEND\n",
		"transpose 1d":       "PROGRAM p\nREAL A(4)\nA = TRANSPOSE(A)\nEND\n",
		"transpose shape":    "PROGRAM p\nREAL M(2,3)\nREAL T(2,3)\nT = TRANSPOSE(M)\nEND\n",
		"transform conform":  "PROGRAM p\nREAL A(4)\nREAL B(8)\nA = SORT(B)\nEND\n",
		"forall not array":   "PROGRAM p\nREAL X\nFORALL (I = 1:4) X(I) = I\nEND\n",
		"forall partial":     "PROGRAM p\nREAL A(8)\nFORALL (I = 1:4) A(I) = I\nEND\n",
		"forall whole array": "PROGRAM p\nREAL A(4)\nREAL B(4)\nFORALL (I = 1:4) A(I) = B\nEND\n",
		"forall bad conform": "PROGRAM p\nREAL A(4)\nREAL B(8)\nFORALL (I = 1:4) A(I) = B(I)\nEND\n",
		"forall reduce":      "PROGRAM p\nREAL A(4)\nFORALL (I = 1:4) A(I) = SUM(A)\nEND\n",
		"assign loop var":    "PROGRAM p\nREAL A(4)\nDO K = 1, 2\nK = 3\nEND DO\nEND\n",
		"loop shadows array": "PROGRAM p\nREAL A(4)\nDO A = 1, 2\nEND DO\nEND\n",
		"index outside":      "PROGRAM p\nREAL A(4)\nREAL B(4)\nA = B(I)\nEND\n",
		"print array":        "PROGRAM p\nREAL A(4)\nPRINT *, A\nEND\n",
	}
	for name, src := range cases {
		if _, err := CompileSource(src, Options{}); err == nil {
			t.Errorf("%s: accepted\n%s", name, src)
		}
	}
}

// A declaration inside a DO body used to compile: every iteration
// allocated the array again (re-firing the allocation mapping point and
// re-zeroing the data) and FreeAll released only the last one.
func TestCompileRejectsDeclarationInLoop(t *testing.T) {
	for name, src := range map[string]string{
		"array":  "PROGRAM p\nREAL S\nDO K = 1, 3\nREAL A(8)\nA = A + 1.0\nS = SUM(A)\nEND DO\nEND\n",
		"scalar": "PROGRAM p\nREAL A(8)\nDO K = 1, 3\nREAL S\nS = SUM(A)\nEND DO\nEND\n",
		"nested": "PROGRAM p\nDO K = 1, 3\nDO J = 1, 2\nREAL A(8)\nEND DO\nEND DO\nEND\n",
	} {
		_, err := CompileSource(src, Options{})
		var se *SyntaxError
		if !errors.As(err, &se) || se.Line != 4 || !strings.Contains(se.Msg, "inside a DO loop") {
			t.Errorf("%s: err = %v, want a line-4 declaration-in-loop error", name, err)
		}
	}
}

func TestCompileLoopVarUsableInExpr(t *testing.T) {
	src := `PROGRAM p
REAL A(4)
DO K = 1, 3
A = A + K
END DO
END
`
	if _, err := CompileSource(src, Options{}); err != nil {
		t.Fatalf("loop var in parallel expr rejected: %v", err)
	}
}

func TestListingFormat(t *testing.T) {
	cp := compileSrc(t, fusionProgram, Options{Fuse: true, SourceFile: "corr.fcm"})
	listing := cp.Listing()
	wants := []string{
		"program: CORR",
		"source: corr.fcm",
		"array: name=A rank=1 dims=64 line=2",
		"array: name=B rank=1 dims=64 line=3",
		"statement: line=5 kind=compute block=cmpe_corr_1_()",
		"statement: line=7 kind=reduce block=cmpe_corr_2_() intrinsic=SUM",
		"block: name=cmpe_corr_1_() kind=compute intrinsic=- lines=5,6 arrays=A,B",
		`text="A = 1"`,
	}
	for _, w := range wants {
		if !strings.Contains(listing, w) {
			t.Errorf("listing missing %q:\n%s", w, listing)
		}
	}
}

func TestListingDefaultSource(t *testing.T) {
	cp := compileSrc(t, tinyProgram, Options{})
	if !strings.Contains(cp.Listing(), "source: corr.fcm") {
		t.Fatalf("default source name wrong:\n%s", cp.Listing())
	}
}

func TestStmtKindString(t *testing.T) {
	for k, want := range map[StmtKind]string{
		KindSerial: "serial", KindCompute: "compute",
		KindReduce: "reduce", KindTransform: "transform",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", int(k), k.String())
		}
	}
}

func BenchmarkCompile(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := CompileSource(fusionProgram, Options{Fuse: true}); err != nil {
			b.Fatal(err)
		}
	}
}
