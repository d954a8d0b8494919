package nvmap

import (
	"os/exec"
	"strings"
	"testing"
)

// Smoke-build and run the fault-injection and crash-recovery example
// commands: they are executable documentation of the degradation and
// recovery semantics, and each one self-checks (convergence,
// determinism) and exits non-zero on violation.
func TestExamplesSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("example subprocesses skipped in -short")
	}
	cases := []struct {
		pkg  string
		want []string
	}{
		{"./examples/faulty", []string{
			"=== clean run ===",
			"report identical: true",
		}},
		{"./examples/crashy", []string{
			"all count metrics converged to the clean run",
			"(partial: lost node 2",
			"supervisor's belief about node 2: dead",
			"report identical: true",
		}},
		{"./examples/observed", []string{
			"=== observability plane ===",
			"perturbation report:",
		}},
		{"./examples/placement", []string{
			"=== identity placement on an 8-ring torus ===",
			"hottest statement at the HW level: line5",
			"=== greedy placement computed from the measured traffic ===",
			"abstraction levels of a topology session:",
			"greedy strictly reduces congestion and dilation: true",
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(strings.TrimPrefix(tc.pkg, "./examples/"), func(t *testing.T) {
			t.Parallel()
			out, err := exec.Command("go", "run", tc.pkg).CombinedOutput()
			if err != nil {
				t.Fatalf("go run %s: %v\n%s", tc.pkg, err, out)
			}
			for _, want := range tc.want {
				if !strings.Contains(string(out), want) {
					t.Fatalf("%s output missing %q:\n%s", tc.pkg, want, out)
				}
			}
		})
	}
}
