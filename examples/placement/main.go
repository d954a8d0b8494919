// placement demonstrates topology-aware machines and
// placement-as-mapping: the same circular-shift workload runs on an
// 8-node ring torus under the identity placement and under the greedy
// congestion-aware placement computed from the traffic matrix measured
// in the first run. The interconnect counters (congestion, dilation)
// quantify the win, the session's Levels() enumeration shows the
// hardware levels joining the abstraction stack, and a SAS question at
// the hardware level names the CMF statement causing the cross-link
// traffic.
package main

import (
	"fmt"
	"log"

	"nvmap"
	"nvmap/internal/machine"
	"nvmap/internal/nv"
	"nvmap/internal/place"
	"nvmap/internal/sas"
	"nvmap/internal/vtime"
)

const program = `PROGRAM torus
REAL A(256)
REAL S
FORALL (I = 1:256) A(I) = I
A = CSHIFT(A, 128)
S = SUM(A)
END
`

func topology() machine.Topology {
	return machine.Topology{GridX: 8, GridY: 1, Torus: true, LinkHop: 2 * vtime.Microsecond}
}

// run executes the workload under one placement (nil = identity) and
// returns the machine's interconnect view plus the cross-link question's
// answer.
func run(placement []int) (machine.NetStats, [][]int64, string, error) {
	opts := []nvmap.Option{
		nvmap.WithNodes(8),
		nvmap.WithSourceFile("torus.fcm"),
		nvmap.WithTopology(topology()),
	}
	if placement != nil {
		opts = append(opts, nvmap.WithPlacement(placement))
	}
	s, err := nvmap.NewSession(program, opts...)
	if err != nil {
		return machine.NetStats{}, nil, "", err
	}
	w := s.EnableSASMonitor(false)
	// "Which CMF statement causes cross-link traffic?" — one question
	// per statement pairing {lineN Executes} with {? Routes}.
	type lineQ struct {
		line int
		q    *nvmap.AskedQuestion
	}
	var qs []lineQ
	seen := map[int]bool{}
	for _, b := range s.Program.Blocks {
		for _, line := range b.Lines {
			if seen[line] {
				continue
			}
			seen[line] = true
			noun := nv.NounID(fmt.Sprintf("line%d", line))
			q, err := w.AskQuestion(sas.Q(
				fmt.Sprintf("line%d routes", line),
				sas.T("Executes", noun), sas.T("Routes", sas.Any)))
			if err != nil {
				return machine.NetStats{}, nil, "", err
			}
			qs = append(qs, lineQ{line, q})
		}
	}
	if _, err := s.Run(); err != nil {
		return machine.NetStats{}, nil, "", err
	}
	now := s.Now()
	top, topCount := "", float64(0)
	for _, q := range qs {
		agg, err := q.q.Answer(now)
		if err != nil {
			return machine.NetStats{}, nil, "", err
		}
		if agg.Count > topCount {
			topCount = agg.Count
			top = fmt.Sprintf("line%d (%0.f crossings)", q.line, agg.Count)
		}
	}
	return s.Machine.NetStats(), s.Machine.TrafficMatrix(), top, nil
}

func main() {
	fmt.Println("=== identity placement on an 8-ring torus ===")
	idStats, traffic, idTop, err := run(nil)
	if err != nil {
		log.Fatal(err)
	}
	dil := func(st machine.NetStats) float64 {
		return float64(st.LinkHops) / float64(st.Messages)
	}
	fmt.Printf("messages=%d crosslink=%d dilation=%.2f congestion=%dB\n",
		idStats.Messages, idStats.CrossMessages, dil(idStats), idStats.MaxLinkBytes)
	fmt.Printf("hottest statement at the HW level: %s\n\n", idTop)

	// The measured traffic matrix is mapping information: feed it to the
	// greedy placement and rerun.
	topo := topology()
	greedy := place.Greedy(8, &topo, traffic)
	fmt.Println("=== greedy placement computed from the measured traffic ===")
	fmt.Printf("placement: %v\n", greedy)
	grStats, _, grTop, err := run(greedy)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("messages=%d crosslink=%d dilation=%.2f congestion=%dB\n",
		grStats.Messages, grStats.CrossMessages, dil(grStats), grStats.MaxLinkBytes)
	fmt.Printf("hottest statement at the HW level: %s\n\n", grTop)

	// The session sees the hardware levels as ordinary levels of
	// abstraction.
	s, err := nvmap.NewSession(program, nvmap.WithNodes(8), nvmap.WithTopology(topology()))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("abstraction levels of a topology session:")
	for _, l := range s.Levels() {
		fmt.Printf("  %-8s rank %2d  nouns %2d  verbs %d  metrics %2d\n",
			l.Name, l.Rank, l.Nouns, l.Verbs, l.Metrics)
	}

	ok := grStats.MaxLinkBytes < idStats.MaxLinkBytes && dil(grStats) < dil(idStats)
	fmt.Printf("\ngreedy strictly reduces congestion and dilation: %v\n", ok)
	if !ok {
		log.Fatal("placement failed to improve the interconnect load")
	}
}
