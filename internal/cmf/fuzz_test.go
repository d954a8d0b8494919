package cmf

import (
	"strings"
	"testing"
)

// FuzzCompile drives the full parse + semantic check + lowering
// pipeline with arbitrary source. Any input may be rejected, but none
// may panic: the compiler ingests user programs.
func FuzzCompile(f *testing.F) {
	seeds := []string{
		"PROGRAM p\nREAL A(8)\nREAL S\nFORALL (I = 1:8) A(I) = I\nS = SUM(A)\nEND\n",
		"PROGRAM p\nREAL A(8)\nREAL B(8)\nB = CSHIFT(A, 1)\nEND\n",
		"PROGRAM p\nREAL A(4)\nWHERE (A > 2.0) A = A * 0.5\nEND\n",
		"PROGRAM p\nINTEGER K\nDO K = 1, 3\nPRINT *, K\nEND DO\nEND\n",
		"PROGRAM p\nREAL A(8)\nA = A + SQRT(A)\nEND\n",
		"PROGRAM p\nEND",
		"",
		"FORALL FORALL (",
		"PROGRAM p\nREAL A(0)\nEND\n",
		"PROGRAM p\nREAL A(8)\nA = B\nEND\n",
		"PROGRAM p\nREAL S\nDO K = 1, 3\nREAL A(8)\nA = A + 1.0\nS = SUM(A)\nEND DO\nEND\n",
	}
	for _, s := range seeds {
		f.Add(s, false)
		f.Add(s, true)
	}
	f.Fuzz(func(t *testing.T, src string, fuse bool) {
		compiled, err := CompileSource(src, Options{Fuse: fuse})
		if err == nil && compiled == nil {
			t.Fatal("nil Compiled without error")
		}
		if err != nil && strings.Contains(err.Error(), "cmf: invalid program") {
			// The recover guard is for hand-built ASTs; parsed source
			// reaching it means a semantic check panicked.
			t.Fatalf("parsed source tripped the compiler's panic guard: %v", err)
		}
	})
}
