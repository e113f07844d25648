// Command art9-batch runs a manifest of benchmark programs concurrently
// through an evaluation backend and emits a JSON report — the format CI
// archives as BENCH_*.json to track the performance trajectory.
//
// Usage:
//
//	art9-batch                                   # example manifest, stdout
//	art9-batch -manifest suite.json -o out.json  # explicit in/out
//	art9-batch -workers 4 -timeout 30s           # pool size, per-job cap
//	art9-batch -shards 4                         # 4 local engine shards
//	art9-batch -peers http://h1:9009,http://h2:9009
//	                                             # fan the manifest out across
//	                                             # remote art9-serve instances
//	                                             # (add -shards N to mix in
//	                                             # local pools) behind the
//	                                             # health-aware Balancer: jobs
//	                                             # on a dying peer are re-run
//	                                             # on surviving backends; the
//	                                             # report gains per-backend
//	                                             # failover counters
//	art9-batch -chunk 32 -peers ...              # chunked dispatch: up to 32
//	                                             # jobs per backend travel as
//	                                             # one acknowledged suite
//	                                             # stream, sized by scraped
//	                                             # capacity; a severed chunk
//	                                             # re-runs only its
//	                                             # unresolved jobs
//	art9-batch -autoscale-min 1 -autoscale-max 4 # elastic pool: local shards
//	                                             # float between the bounds,
//	                                             # growing under queued load
//	                                             # and draining before every
//	                                             # shrink; the report gains
//	                                             # the scale-event log
//	art9-batch -autoscale-max 2 \
//	           -standby-peers http://h1:9009     # standby peers are dialed
//	                                             # only once the local bound
//	                                             # is exhausted
//	art9-batch -cache \
//	           -cache-peers http://h1:9009       # fleet-wide result cache:
//	                                             # jobs whose content-addressed
//	                                             # spec was already evaluated
//	                                             # (here or on a cache peer)
//	                                             # replay instead of running;
//	                                             # the report's cache.results
//	                                             # section counts hits
//
// A manifest names jobs drawn from the built-in suite, inline RV32
// sources, or assembly files, plus the technologies to evaluate each
// job's cycle counts against:
//
//	{
//	  "technologies": ["cntfet32", "stratixv"],
//	  "jobs": [
//	    {"name": "bubble", "workload": "bubble"},
//	    {"name": "mine", "file": "prog.s", "iterations": 10}
//	  ]
//	}
//
// File jobs are read locally and shipped to peers by content, never by
// path. The manifest schema and per-job report rows are shared with the
// art9-serve HTTP endpoints (internal/bench), so a job renders the same
// whether it ran from this CLI, over the network, or on a remote peer.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/bench"
	"repro/internal/remote"
	"repro/internal/xlate"
)

func main() {
	manifest := flag.String("manifest", "examples/batch/manifest.json", "batch manifest (JSON)")
	out := flag.String("o", "-", "report destination (- for stdout)")
	timeout := flag.Duration("timeout", 0, "per-job timeout (0: none)")
	compact := flag.Bool("compact", false, "emit the report without indentation")
	fleet := remote.FleetFlags(flag.CommandLine, 0)
	flag.Parse()

	cfg, warn, err := fleet()
	if err != nil {
		fatal(err)
	}
	if warn != "" {
		fmt.Fprintln(os.Stderr, "art9-batch: warning:", warn)
	}
	cfg.JobTimeout = *timeout

	m, err := bench.LoadManifest(*manifest)
	if err != nil {
		fatal(err)
	}
	techs, err := m.ResolveTechnologies()
	if err != nil {
		fatal(err)
	}
	jobs, err := m.EngineJobs(filepath.Dir(*manifest), xlate.Options{})
	if err != nil {
		fatal(err)
	}
	// Stamp the flag onto each job (manifest timeout_ms wins): a job's
	// own Timeout rides the wire spec, so the bound holds on remote
	// peers too — cfg.JobTimeout only covers local shards.
	bench.ApplyJobTimeout(jobs, *timeout)

	ev, err := remote.NewBackendWith(cfg)
	if err != nil {
		fatal(err)
	}
	defer func() {
		// The run is complete by the time this fires; a close failure
		// means a backend could not shut down cleanly (a wedged peer,
		// an unreachable standby) and deserves a visible warning even
		// though the report has already been written.
		if cerr := ev.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "art9-batch: close:", cerr)
		}
	}()

	start := time.Now()
	results, _ := ev.Run(context.Background(), jobs)
	wall := time.Since(start)

	rep := bench.Report{
		Schema:  "art9-batch/v1",
		Created: time.Now().UTC().Format(time.RFC3339),
		WallMS:  float64(wall.Microseconds()) / 1e3,
		Peers:   len(cfg.Peers),
	}
	for _, r := range results {
		jr := bench.JobReportOf(r, techs)
		if !jr.OK {
			rep.Failures++
		}
		rep.Jobs = append(rep.Jobs, jr)
	}
	rep.Cache = bench.SharedCacheReport()
	// With -cache, surface the result-cache counters: a warm fleet shows
	// nonzero hits here and rows that never rode a worker (worker -1).
	rep.Cache.Results = bench.ResultCacheReportFor(ev)
	// Per-run counters only: a long-lived peer's lifetime totals would
	// say nothing about this batch. Workers therefore counts local
	// pools; remote capacity is the peers field.
	rep.Engine = bench.RunReportFor(ev)
	rep.Workers = rep.Engine.Workers
	// Behind a Balancer, record the fleet behaviour: which backends
	// carried the work and how many jobs had to be re-run elsewhere.
	rep.Balancer = bench.BalancerReportFor(ev)

	if err := emit(*out, rep, !*compact); err != nil {
		fatal(err)
	}
	if rep.Failures > 0 {
		fatal(fmt.Errorf("%d of %d jobs failed", rep.Failures, len(rep.Jobs)))
	}
}

func emit(dest string, rep bench.Report, indent bool) error {
	var raw []byte
	var err error
	if indent {
		raw, err = json.MarshalIndent(rep, "", "  ")
	} else {
		raw, err = json.Marshal(rep)
	}
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	if dest == "-" {
		_, err = os.Stdout.Write(raw)
		return err
	}
	return os.WriteFile(dest, raw, 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "art9-batch:", err)
	os.Exit(1)
}
