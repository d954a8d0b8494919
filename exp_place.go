package nvmap

import (
	"fmt"
	"strings"

	"nvmap/internal/machine"
	"nvmap/internal/nv"
	"nvmap/internal/place"
	"nvmap/internal/sas"
	"nvmap/internal/vtime"
)

// placeProgram is dominated by a half-length circular shift: on 8 nodes,
// CSHIFT(A, 128) over 256 elements makes node i exchange its whole
// subgrid with node (i+4)%8 — the worst case for an identity placement
// on a ring, and easy money for a placement that pairs partners up.
const placeProgram = `PROGRAM torus
REAL A(256)
REAL S
FORALL (I = 1:256) A(I) = I
A = CSHIFT(A, 128)
S = SUM(A)
END
`

// placeTopology is the 8-node ring torus every placement run uses.
func placeTopology() machine.Topology {
	return machine.Topology{GridX: 8, GridY: 1, Torus: true, LinkHop: 2 * vtime.Microsecond}
}

// placeRun is one measured placement: the interconnect counters plus the
// per-statement Routes attribution from the SAS.
type placeRun struct {
	name     string
	stats    machine.NetStats
	elapsed  vtime.Duration
	traffic  [][]int64
	topStmt  string
	topCount float64
}

// runPlacement executes placeProgram under one placement and measures
// the interconnect. Per-statement SAS questions pair each statement's
// {lineN Executes} with {? Routes}: link-traffic events attributed to
// the CMF statement that caused them.
func runPlacement(name string, placement []int) (*placeRun, error) {
	opts := []Option{
		WithNodes(8),
		WithSourceFile("torus.fcm"),
		WithTopology(placeTopology()),
	}
	if placement != nil {
		opts = append(opts, WithPlacement(placement))
	}
	s, err := NewSession(placeProgram, opts...)
	if err != nil {
		return nil, err
	}
	w := s.EnableSASMonitor(false)
	// One question per source statement: its cross-link traffic.
	lines := map[int]bool{}
	for _, b := range s.Program.Blocks {
		for _, line := range b.Lines {
			lines[line] = true
		}
	}
	asked := map[int]*AskedQuestion{}
	for line := range lines {
		noun := nv.NounID(fmt.Sprintf("line%d", line))
		q, err := w.AskQuestion(sas.Q(
			fmt.Sprintf("{line%d Executes}, {? Routes}", line),
			sas.T(verbExecutes, noun), sas.T(verbRoutes, sas.Any)))
		if err != nil {
			return nil, err
		}
		asked[line] = q
	}
	if _, err := s.Run(); err != nil {
		return nil, err
	}
	r := &placeRun{
		name:    name,
		stats:   s.Machine.NetStats(),
		elapsed: s.Elapsed(),
		traffic: s.Machine.TrafficMatrix(),
	}
	now := s.Now()
	// The statement with the most attributed link crossings; ties break
	// toward the lowest line so the report is deterministic.
	for line := 0; line < 64; line++ {
		q, ok := asked[line]
		if !ok {
			continue
		}
		agg, err := q.Answer(now)
		if err != nil {
			return nil, err
		}
		if agg.Count > r.topCount {
			r.topCount = agg.Count
			r.topStmt = fmt.Sprintf("line%d", line)
		}
	}
	return r, nil
}

// dilation is the average links crossed per routed message.
func (r *placeRun) dilation() float64 {
	if r.stats.Messages == 0 {
		return 0
	}
	return float64(r.stats.LinkHops) / float64(r.stats.Messages)
}

// ExperimentPlacement compares the three placement algorithms on the
// circular-shift workload: identity as the baseline, then recursive
// bisection and the greedy congestion-aware placement computed from the
// traffic matrix measured under identity. The report tables congestion
// (heaviest link bytes), dilation (average links per message) and
// cross-link messages, and answers "which CMF statement causes the
// cross-link traffic" through per-statement SAS questions at the
// hardware level.
func ExperimentPlacement() (string, error) {
	// Pass 1: measure the application's traffic matrix under the
	// identity placement — the measured mapping information the
	// topology-aware algorithms consume.
	identity, err := runPlacement("identity", nil)
	if err != nil {
		return "", err
	}
	topo := placeTopology()
	runs := []*placeRun{identity}
	for _, alg := range []string{"bisection", "greedy"} {
		fn, err := place.ByName(alg)
		if err != nil {
			return "", err
		}
		r, err := runPlacement(alg, fn(8, &topo, identity.traffic))
		if err != nil {
			return "", err
		}
		runs = append(runs, r)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "torus.fcm on 8 nodes over a %v: CSHIFT(A, 128) pairs node i\n", &topo)
	b.WriteString("with node (i+4)%8, so the identity placement drags every exchange\n")
	b.WriteString("across 4 links while a traffic-aware placement puts partners side\n")
	b.WriteString("by side. The traffic matrix measured under identity feeds the\n")
	b.WriteString("bisection and greedy placements (measured mapping information).\n\n")
	fmt.Fprintf(&b, "%-10s %10s %10s %10s %10s %14s\n",
		"placement", "messages", "crosslink", "dilation", "congestion", "virtual time")
	for _, r := range runs {
		fmt.Fprintf(&b, "%-10s %10d %10d %10.2f %9dB %14v\n",
			r.name, r.stats.Messages, r.stats.CrossMessages, r.dilation(), r.stats.MaxLinkBytes, r.elapsed)
	}
	b.WriteString("\nWhich CMF statement causes the cross-link traffic? (per-statement\n")
	b.WriteString("SAS question {lineN Executes}, {? Routes}, answered per placement)\n\n")
	for _, r := range runs {
		fmt.Fprintf(&b, "  %-10s %s with %.0f link crossings\n", r.name, r.topStmt, r.topCount)
	}

	// The tentpole's acceptance bar: the greedy placement strictly
	// reduces both congestion and dilation against identity, and the
	// attribution names the CSHIFT statement (line 5 of torus.fcm).
	greedy := runs[2]
	if greedy.stats.MaxLinkBytes >= identity.stats.MaxLinkBytes {
		return "", fmt.Errorf("place: greedy congestion %dB not below identity %dB",
			greedy.stats.MaxLinkBytes, identity.stats.MaxLinkBytes)
	}
	if greedy.dilation() >= identity.dilation() {
		return "", fmt.Errorf("place: greedy dilation %.2f not below identity %.2f",
			greedy.dilation(), identity.dilation())
	}
	if identity.topStmt != "line5" {
		return "", fmt.Errorf("place: identity attributes cross-link traffic to %s, want line5 (the CSHIFT)",
			identity.topStmt)
	}
	b.WriteString("\nUnder identity the SAS pins the traffic on the CSHIFT statement\n")
	b.WriteString("(line5); once a traffic-aware placement shortens the shift routes,\n")
	b.WriteString("the attribution shifts with the load. The greedy placement strictly\n")
	b.WriteString("reduces both congestion and dilation.\n")
	return b.String(), nil
}
