// Command nvprofd is the multi-tenant profiling daemon: a long-running
// HTTP service that accepts concurrent tenant sessions (compile → run →
// answer questions), shares the process-wide interner and compile memo
// across tenants, and streams answers and degradation reports as NDJSON.
//
// Endpoints:
//
//	POST /v1/sessions   run a session; body is a serve.SessionRequest,
//	                    response is an NDJSON event stream
//	GET  /v1/stats      lifecycle counters + per-tenant usage (JSON)
//	GET  /healthz       "ok", or 503 "draining" once SIGTERM arrived
//	GET  /metrics       the daemon's own obs plane, Prometheus text
//	GET  /trace         span ring as Chrome trace_event JSON
//
// Overload behavior: up to -max-concurrent sessions run at once with
// -queue-depth requests waiting; beyond that the daemon fast-rejects
// with 429 + Retry-After. Queued sessions are admitted at degraded
// sampling fidelity (the budget governor's shed ladder) before anything
// is rejected. Per-tenant ceilings come from -tenant-sessions,
// -tenant-vtime and -tenant-alloc, enforced by running each session
// under the tenant's remaining budget.
//
// On SIGTERM/SIGINT the daemon stops admitting, gives in-flight runs
// -drain-grace to finish, then cuts the stragglers at an exact
// virtual-time operation boundary — their partial reports still flush
// to the clients — and exits 0.
//
// Usage:
//
//	nvprofd -addr :9091
//	nvprofd -addr :9091 -max-concurrent 8 -queue-depth 16 \
//	        -tenant-sessions 4 -tenant-vtime 50ms -drain-grace 10s
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"nvmap/internal/serve"
	"nvmap/internal/vtime"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:9091", "listen address")
		maxConc      = flag.Int("max-concurrent", 0, "run-slot pool size (0 = GOMAXPROCS)")
		queueDepth   = flag.Int("queue-depth", 0, "admission wait-queue bound (0 = 2x pool)")
		admitTimeout = flag.Duration("admit-timeout", 5*time.Second, "max time a request queues for a slot")
		deadline     = flag.Duration("deadline", 30*time.Second, "default per-run wall deadline")
		drainGrace   = flag.Duration("drain-grace", 10*time.Second, "SIGTERM grace before in-flight runs are cut")
		maxNodes     = flag.Int("max-nodes", 64, "largest partition a request may ask for")
		tenantSess   = flag.Int("tenant-sessions", 0, "default per-tenant concurrent-session cap (0 = unlimited)")
		tenantVTime  = flag.Duration("tenant-vtime", 0, "default per-tenant cumulative virtual-time quota (0 = unlimited)")
		tenantAlloc  = flag.Int64("tenant-alloc", 0, "default per-tenant cumulative allocation quota, bytes (0 = unlimited)")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "nvprofd: unexpected arguments: %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}

	srv := serve.NewServer(serve.Config{
		MaxConcurrent:   *maxConc,
		QueueDepth:      *queueDepth,
		AdmitTimeout:    *admitTimeout,
		DefaultDeadline: *deadline,
		MaxNodes:        *maxNodes,
		DefaultQuota: serve.TenantQuota{
			MaxSessions:    *tenantSess,
			MaxVirtualTime: vtime.Duration(*tenantVTime),
			MaxAllocBytes:  *tenantAlloc,
		},
	})
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

	errc := make(chan error, 1)
	go func() {
		log.Printf("nvprofd: listening on %s", *addr)
		errc <- hs.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigc:
		log.Printf("nvprofd: %v: draining (grace %v)", sig, *drainGrace)
	case err := <-errc:
		log.Fatalf("nvprofd: serve: %v", err)
	}

	srv.Drain(*drainGrace)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("nvprofd: shutdown: %v", err)
	}
	c := srv.Counters()
	log.Printf("nvprofd: drained; admitted %d, completed %d, cut %d, shed %d, rejected busy %d / quota %d / draining %d, panics %d",
		c.Admitted, c.Completed, c.Cut, c.Shed, c.RejectedBusy, c.RejectedQuota, c.RejectedDraining, c.Panics)
}
