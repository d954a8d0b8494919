// Command faulty demonstrates deterministic fault injection and the
// degradation semantics of the mapping stack: the same program runs
// clean and under a seeded fault plan (message loss, node slowdown,
// bounded daemon channel), and a lossy cross-node SAS link is shown
// converging to the lossless answers via retransmission and resync.
package main

import (
	"fmt"
	"log"

	"nvmap"
	"nvmap/internal/fault"
	"nvmap/internal/nv"
	"nvmap/internal/paradyn"
	"nvmap/internal/sas"
	"nvmap/internal/vtime"
)

const program = `PROGRAM faulty
REAL A(256)
REAL B(256)
REAL S
REAL T
FORALL (I = 1:256) A(I) = I
FORALL (I = 1:256) B(I) = 2 * I
S = SUM(A)
T = MAXVAL(B)
END
`

// run executes the program with the given fault plan (nil = clean) and
// returns the session, its metrics, and the degradation report.
func run(plan *fault.Plan) (*nvmap.Session, []*paradyn.EnabledMetric, *nvmap.DegradationReport) {
	s, err := nvmap.NewSession(program,
		nvmap.WithNodes(4),
		nvmap.WithSourceFile("faulty.fcm"),
		nvmap.WithFaults(plan))
	if err != nil {
		log.Fatal(err)
	}
	s.Tool.EnableDynamicMapping()
	var ems []*paradyn.EnabledMetric
	for _, id := range []string{"summation_time", "point_to_point_ops", "idle_time"} {
		em, err := s.Tool.EnableMetric(id, paradyn.WholeProgram())
		if err != nil {
			log.Fatal(err)
		}
		ems = append(ems, em)
	}
	report, err := s.Run()
	if err != nil {
		log.Fatal(err)
	}
	return s, ems, report
}

func main() {
	plan := &fault.Plan{
		Seed: 2026,
		Messages: fault.MessageFaults{
			DropProb: 0.10, DelayProb: 0.25, DelayMax: 30 * vtime.Microsecond,
		},
		Nodes: fault.NodeFaults{
			Slowdown: map[int]float64{2: 1.5},
		},
		Channel: fault.ChannelFaults{Capacity: 2, Policy: fault.DropOldest},
	}

	fmt.Println("=== clean run ===")
	s, ems, rep := run(nil)
	fmt.Printf("virtual elapsed: %v\n", s.Elapsed())
	fmt.Print(paradyn.Table("metrics", s.MetricRows(ems)))
	fmt.Printf("degradation: %s", rep)

	fmt.Println("\n=== faulted run (seed 2026) ===")
	fs, fems, frep := run(plan)
	fmt.Printf("virtual elapsed: %v\n", fs.Elapsed())
	fmt.Print(paradyn.Table("metrics", fs.MetricRows(fems)))
	fmt.Printf("degradation report:\n%s", frep)

	// Determinism: the same seed reproduces the same degraded run.
	fs2, _, frep2 := run(plan)
	fmt.Printf("\nsame seed, second run: elapsed %v, report identical: %v\n",
		fs2.Elapsed(), frep.String() == frep2.String())

	// The Section 4.2.3 client/server question over a lossy link: the
	// client exports {query QueryActive} sentences to the server's SAS
	// over a channel that drops 40% of events, duplicates 20% and
	// reorders 20% — and still converges to the lossless answer, thanks
	// to sequence numbers, retransmission and snapshot resync.
	fmt.Println("\n=== lossy cross-node SAS link ===")
	lossless := playClientServer(nil, nil)
	inj := fault.NewInjector(&fault.Plan{Seed: 7, SAS: fault.SASFaults{
		DropProb: 0.4, DupProb: 0.2, ReorderProb: 0.2, Resync: true,
	}})
	var link *sas.ReliableLink
	lossy := playClientServer(inj, &link)
	fmt.Printf("disk reads charged to query7: lossless %.0f, lossy %.0f\n", lossless, lossy)
	st := link.Stats()
	fmt.Printf("link: sent %d, retransmits %d, resyncs %d, duplicates dropped %d, gaps %d\n",
		st.Sent, st.Retransmits, st.Resyncs, st.DuplicatesDropped, st.Gaps)
	if lossless != lossy {
		log.Fatalf("lossy link did not converge: %g != %g", lossy, lossless)
	}
}

// playClientServer runs the client/server query scenario and returns
// the reads charged to query7 on the server. With an injector, the
// export runs over a lossy transport behind a ReliableLink whose
// retransmit timer (Flush) fires after every client state change.
func playClientServer(inj *fault.Injector, out **sas.ReliableLink) float64 {
	reg := sas.NewRegistry(2, sas.Options{})
	client, server := reg.Node(0), reg.Node(1)
	qid, err := server.AddQuestion(sas.Q("reads for query7",
		sas.T("QueryActive", "query7"), sas.T("DiskRead", sas.Any)))
	if err != nil {
		log.Fatal(err)
	}
	flush := func(vtime.Time) {}
	if inj == nil {
		if err := client.Export(sas.T("QueryActive", sas.Any), server, nil); err != nil {
			log.Fatal(err)
		}
	} else {
		link, err := client.ExportReliable(sas.T("QueryActive", sas.Any), server,
			&sas.LossyTransport{Inj: inj}, true)
		if err != nil {
			log.Fatal(err)
		}
		flush = link.Flush
		*out = link
	}

	now := vtime.Time(0)
	tick := func() vtime.Time { now += 10; return now }
	disk := func() { server.RecordEvent(nv.NewSentence("DiskRead", "disk0"), tick(), 1) }
	for _, q := range []struct {
		name  string
		reads int
	}{{"query7", 5}, {"query3", 3}, {"query7", 2}} {
		client.Activate(nv.NewSentence("QueryActive", nv.NounID(q.name)), tick())
		flush(now)
		for i := 0; i < q.reads; i++ {
			disk()
		}
		if err := client.Deactivate(nv.NewSentence("QueryActive", nv.NounID(q.name)), tick()); err != nil {
			log.Fatal(err)
		}
		flush(now)
		disk() // a read between queries: never charged
	}
	res, err := server.Result(qid, now)
	if err != nil {
		log.Fatal(err)
	}
	return res.Count
}
