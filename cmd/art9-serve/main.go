// Command art9-serve runs the streaming evaluation service: the same
// workloads art9-batch evaluates from a manifest file, served resident
// over HTTP with warm caches and persistent worker pools.
//
// Usage:
//
//	art9-serve                                  # :9009, 1 shard, GOMAXPROCS workers
//	art9-serve -addr :8080 -shards 4 -workers 2 # 4 engines × 2 workers
//	art9-serve -job-timeout 30s                 # cap each evaluation job
//	art9-serve -peers http://h1:9009,http://h2:9009
//	                                            # front a fleet: fan jobs out to
//	                                            # downstream art9-serve instances
//	                                            # (-shards 0 for proxy-only)
//	                                            # behind the health-aware
//	                                            # Balancer: peers are probed,
//	                                            # jobs go to the least-loaded
//	                                            # live backend, and a dying
//	                                            # peer's jobs are re-run on the
//	                                            # survivors
//	art9-serve -chunk 32 -peers ...             # chunked dispatch: up to 32
//	                                            # jobs per peer ride one
//	                                            # acknowledged suite stream,
//	                                            # sized by scraped capacity
//	art9-serve -autoscale-min 1 -autoscale-max 4
//	                                            # elastic pool: local shards
//	                                            # float between the bounds;
//	                                            # /v1/stats carries the scale
//	                                            # state and event log
//	art9-serve -autoscale-max 2 -standby-peers http://h1:9009
//	                                            # standby peers dialed only
//	                                            # once the local ceiling is
//	                                            # exhausted
//	art9-serve -cache -cache-peers http://h1:9009
//	                                            # fleet-wide result cache:
//	                                            # jobs already evaluated here
//	                                            # or on a cache peer replay
//	                                            # instead of running, and the
//	                                            # /v1/cache endpoints answer
//	                                            # sibling lookups/fills
//
// Endpoints:
//
//	GET  /v1/healthz  liveness + pool shape
//	GET  /v1/stats    engine + cache counters
//	GET  /v1/capacity process-local free workers + queue depth
//	POST /v1/eval     one job (workload or inline source) → one report
//	POST /v1/suite    manifest → NDJSON report lines in completion order
//	                  (?ack=1: start/end acknowledgement rows for chunked
//	                  failover dispatch)
//	POST /v1/cache/lookup  result-cache keys → NDJSON hit/miss rows
//	                  (with -cache; absent otherwise)
//	POST /v1/cache/fill    sibling-computed rows → stored count
//	                  (with -cache; absent otherwise)
//
// Shutdown: SIGINT/SIGTERM stops accepting connections, drains in-flight
// requests (bounded by -shutdown-timeout) — each NDJSON stream runs to
// its last job — then closes the engines, which resolves anything still
// queued with an engine-closed error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/remote"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", ":9009", "listen address")
	jobTimeout := flag.Duration("job-timeout", 0, "per-evaluation-job timeout (0: none)")
	readTimeout := flag.Duration("read-timeout", 10*time.Second, "HTTP read-header timeout")
	shutdownTimeout := flag.Duration("shutdown-timeout", 30*time.Second, "graceful-shutdown drain budget")
	fleet := remote.FleetFlags(flag.CommandLine, 1)
	flag.Parse()

	cfg, warn, err := fleet()
	if err != nil {
		fatal(err)
	}
	if warn != "" {
		fmt.Fprintln(os.Stderr, "art9-serve: warning:", warn)
	}
	cfg.JobTimeout = *jobTimeout
	srv, err := serve.New(cfg)
	if err != nil {
		fatal(err)
	}

	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: *readTimeout,
	}

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "art9-serve: listening on %s (%d local shard(s), %d peer(s))\n",
		*addr, cfg.Shards, len(cfg.Peers))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		fatal(err) // listener died before any signal
	case <-ctx.Done():
	}

	fmt.Fprintln(os.Stderr, "art9-serve: draining in-flight requests")
	sctx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "art9-serve: shutdown:", err)
	}
	srv.Close() // handlers are done submitting; drain the engines
	fmt.Fprintln(os.Stderr, "art9-serve: stopped")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "art9-serve:", err)
	os.Exit(1)
}
