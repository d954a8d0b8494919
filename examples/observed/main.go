// Observed: run a program under the self-observability plane — the
// measurement tool pointed at itself. The plane traces every pipeline
// stage (machine collectives, node regions, daemon traffic, SAS
// notifications, sampling rounds) as spans, publishes every component's
// statistics on one metrics registry, and attributes the run's
// wall-clock self-cost back to named stages and abstraction levels.
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"strings"

	"nvmap"
	"nvmap/internal/obs"
	"nvmap/internal/paradyn"
)

const program = `PROGRAM observed
REAL A(1024)
REAL B(1024)
REAL ASUM
FORALL (I = 1:1024) A(I) = I
B = A * 0.5 + 1.0
B = CSHIFT(B, 16)
ASUM = SUM(A)
PRINT *, ASUM
END
`

func main() {
	s, err := nvmap.NewSession(program,
		nvmap.WithNodes(8),
		nvmap.WithSourceFile("observed.fcm"),
		nvmap.WithOutput(io.Discard),
		nvmap.WithObservability())
	if err != nil {
		log.Fatal(err)
	}
	s.Tool.EnableDynamicMapping()
	s.Tool.EnableGating()
	for _, id := range []string{"summations", "summation_time", "point_to_point_ops", "idle_time"} {
		if _, err := s.Tool.EnableMetric(id, paradyn.WholeProgram()); err != nil {
			log.Fatal(err)
		}
	}
	mon := s.EnableSASMonitor(false)
	if _, err := mon.Ask("sums while sending", "{? Sums}, {? Sends}"); err != nil {
		log.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		log.Fatal(err)
	}
	s.Tool.SampleAll(s.Now())

	var cb, pb bytes.Buffer
	plane := s.Observability()
	if err := obs.WriteChromeTrace(&cb, plane.Tracer); err != nil {
		log.Fatal(err)
	}
	if err := obs.WritePrometheus(&pb, plane.Metrics, false); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("=== observability plane ===\n")
	fmt.Printf("chrome trace: %d bytes, prometheus text: %d bytes\n\n", cb.Len(), pb.Len())

	fmt.Println("stable metrics (excerpt):")
	shown := 0
	for _, line := range strings.Split(pb.String(), "\n") {
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		fmt.Println(" ", line)
		if shown++; shown >= 12 {
			fmt.Println("  ...")
			break
		}
	}

	fmt.Println("\nperturbation report:")
	fmt.Print(s.PerturbationReport().String())
}
