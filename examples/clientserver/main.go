// clientserver demonstrates Section 4.2.3: performance questions that
// need SAS information from more than one node. A database server
// performs disk reads on behalf of clients; to measure "server reads from
// disk while client query Q is active", the client's SAS exports the
// query-activity sentence to the server's SAS whenever it becomes active
// or inactive.
package main

import (
	"fmt"
	"log"

	"nvmap/internal/nv"
	"nvmap/internal/sas"
	"nvmap/internal/vtime"
)

func main() {
	reg := sas.NewRegistry(2, sas.Options{})
	client := reg.Node(0)
	server := reg.Node(1)

	// The server-side question spans both nodes' activity.
	q7, err := server.AddQuestion(sas.Q("reads for query7",
		sas.T("QueryActive", "query7"),
		sas.T("DiskRead", sas.Any)))
	if err != nil {
		log.Fatal(err)
	}
	qAny, err := server.AddQuestion(sas.Q("reads for any query",
		sas.T("QueryActive", sas.Any),
		sas.T("DiskRead", sas.Any)))
	if err != nil {
		log.Fatal(err)
	}

	// "The client's SAS would need to send one sentence (client query is
	// active) to the server's SAS whenever that sentence became active or
	// inactive."
	if err := client.Export(sas.T("QueryActive", sas.Any), server, sas.SyncTransport{}); err != nil {
		log.Fatal(err)
	}

	disk := nv.NewSentence("DiskRead", "disk0")
	clock := vtime.Time(0)
	read := func(n int) {
		for i := 0; i < n; i++ {
			clock = clock.Add(400 * vtime.Microsecond)
			server.RecordEvent(disk, clock, 1)
			server.RecordSpan(disk, clock, clock.Add(150*vtime.Microsecond), 150*vtime.Microsecond)
		}
	}
	runQuery := func(name string, reads int) {
		sn := nv.NewSentence("QueryActive", nv.NounID(name))
		clock = clock.Add(vtime.Millisecond)
		client.Activate(sn, clock)
		read(reads)
		clock = clock.Add(vtime.Millisecond)
		if err := client.Deactivate(sn, clock); err != nil {
			log.Fatal(err)
		}
	}

	read(2)               // background reads before any query
	runQuery("query7", 5) // the query of interest
	runQuery("query9", 3) // another client's query
	read(1)               // trailing background read

	r7, err := server.Result(q7, clock)
	if err != nil {
		log.Fatal(err)
	}
	rAny, err := server.Result(qAny, clock)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("distributed SAS: client exports query activity to the server")
	fmt.Printf("  disk reads for query7:    %3.0f (want 5), read time %v\n", r7.Count, r7.EventTime)
	fmt.Printf("  disk reads for any query: %3.0f (want 8), read time %v\n", rAny.Count, rAny.EventTime)
	fmt.Printf("  background reads charged to no query: %d\n", 3)
}
