package serve

// Canned deterministic workloads. The server, the load tests and the
// recovery-under-service tests all draw from the same generator, so
// "scenario crashy, seed 42, 8 nodes" names exactly one run everywhere:
// same program text, same fault schedule, same recovery tuning. The
// generator is a splitmix64 stream (stable across Go releases, like the
// chaos soak's) seeded only by the request, never by wall clock.

import (
	"fmt"
	"strings"

	"nvmap"
	"nvmap/internal/fault"
	"nvmap/internal/vtime"
)

// Scenario kinds accepted in SessionRequest.Scenario.
const (
	ScenarioPlain    = "plain"    // fault-free, modest program
	ScenarioFaulty   = "faulty"   // lossy messages + bounded channel
	ScenarioCrashy   = "crashy"   // transient crashes + one permanent loss
	ScenarioParallel = "parallel" // fault-free, large arrays
)

// ScenarioKinds lists every valid kind, in the order load mixes cycle
// through them.
var ScenarioKinds = []string{ScenarioPlain, ScenarioFaulty, ScenarioCrashy, ScenarioParallel}

// ValidScenario reports whether kind names a canned workload.
func ValidScenario(kind string) bool {
	for _, k := range ScenarioKinds {
		if k == kind {
			return true
		}
	}
	return false
}

// srng is the generator's splitmix64 stream.
type srng struct{ state uint64 }

func (r *srng) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *srng) intn(n int) int { return int(r.next() % uint64(n)) }

// ScenarioProgram renders the deterministic CM Fortran program for
// (kind, seed). Parallel scenarios use large arrays (a data-heavy
// run); the others stay modest so a loaded daemon turns sessions over
// quickly.
func ScenarioProgram(kind string, seed int64) string {
	r := &srng{state: uint64(seed)*2654435761 + hashKind(kind)}
	size := 64
	iters := 4 + r.intn(4)
	if kind == ScenarioParallel {
		size = 2048
		iters = 6 + r.intn(4)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "PROGRAM svc\nREAL A(%d)\nREAL B(%d)\nREAL S\n", size, size)
	fmt.Fprintf(&b, "FORALL (I = 1:%d) A(I) = I\n", size)
	fmt.Fprintf(&b, "FORALL (I = 1:%d) B(I) = 2 * I\n", size)
	fmt.Fprintf(&b, "DO K = 1, %d\n", iters)
	b.WriteString("B = A * 2.0 + B\n")
	if r.intn(2) == 0 {
		b.WriteString("S = SUM(B)\n")
	} else {
		b.WriteString("S = DOT_PRODUCT(A, B)\n")
	}
	fmt.Fprintf(&b, "A = CSHIFT(A, %d)\n", 1+r.intn(3))
	b.WriteString("END DO\n")
	b.WriteString("S = SUM(A)\nEND\n")
	return b.String()
}

// ScenarioPlan composes the deterministic fault plan and recovery
// tuning for (kind, seed, nodes). Plain and parallel scenarios return
// (nil, nil). Crashy plans always include at least one transient crash
// and, on partitions of 2+ nodes, one permanent crash on the highest
// node — so lost-node partial annotations are exercised by every crashy
// run.
func ScenarioPlan(kind string, seed int64, nodes int) (*fault.Plan, *nvmap.RecoveryConfig) {
	r := &srng{state: uint64(seed)*0x9E3779B9 + hashKind(kind)}
	switch kind {
	case ScenarioFaulty:
		p := &fault.Plan{Seed: int64(r.next() % (1 << 31))}
		p.Messages = fault.MessageFaults{
			DropProb:  0.05 + float64(r.intn(10))/100,
			DelayProb: 0.2,
			DelayMax:  vtime.Duration(1+r.intn(4)) * vtime.Microsecond,
		}
		p.Channel = fault.ChannelFaults{
			Capacity: 8 + r.intn(56),
			Policy:   fault.DropOldest,
		}
		return p, nil
	case ScenarioCrashy:
		p := &fault.Plan{Seed: int64(r.next() % (1 << 31))}
		p.CrashAt(0, vtime.Time(vtime.Duration(10+r.intn(30))*vtime.Microsecond)).
			RestartAfter(vtime.Duration(5+r.intn(10)) * vtime.Microsecond)
		if nodes >= 2 {
			// Permanent loss of the highest node: answers over it must
			// come back partial, lost time must accrue.
			p.CrashAt(nodes-1, vtime.Time(vtime.Duration(20+r.intn(40))*vtime.Microsecond))
		}
		rc := &nvmap.RecoveryConfig{
			CheckpointEvery: 20 * vtime.Microsecond,
			Timeout:         5 * vtime.Microsecond,
			Probes:          2,
		}
		return p, rc
	default:
		return nil, nil
	}
}

// hashKind folds the scenario name into the stream seed so different
// kinds at the same seed do not share schedules.
func hashKind(kind string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(kind); i++ {
		h = (h ^ uint64(kind[i])) * 1099511628211
	}
	return h
}
