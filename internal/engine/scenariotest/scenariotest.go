// Package scenariotest is the shared fault-injection harness of the
// evaluation stack: deterministic job sets, a healthy single-engine
// reference, canonical result rendering, and one Check entry point that
// pins a topology × fault scenario's merged output — byte-identical to
// the healthy reference for failover topologies, exactly-once with
// typed backend errors for the rest. Every Evaluator topology (Engine,
// Balancer — per-job, chunked or retry-less — remote clients, and
// mixes) runs through the same harness, so the balancer and serve fault
// suites stop re-implementing their own setup and a new topology gets
// the whole fault matrix by writing one builder.
//
// The harness only imports engine, faulttest and bench; topologies that
// need the HTTP layers (internal/remote, internal/serve) are built by
// the caller and handed in as plain Evaluators, which keeps this
// package importable from every layer's tests without cycles.
package scenariotest

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/xlate"
)

// Jobs builds n deterministic closure jobs; job i resolves to i*i.
// Closure jobs run on any local backend (including faulttest.Flaky) but
// cannot travel to remote backends — use BenchJobs for those.
func Jobs(n int) []engine.Job {
	return SlowJobs(n, 0)
}

// SlowJobs builds the same deterministic jobs with a per-job execution
// time, so dispatch rounds are stable under any scheduling — scenarios
// that need a backend to receive work across several rounds (e.g. to
// hit a scripted mid-suite death) use these.
func SlowJobs(n int, d time.Duration) []engine.Job {
	jobs := make([]engine.Job, n)
	for i := range jobs {
		i := i
		jobs[i] = engine.Job{ID: fmt.Sprintf("job-%02d", i),
			Fn: func(ctx context.Context) (any, error) {
				if d > 0 {
					select {
					case <-ctx.Done():
						return nil, ctx.Err()
					case <-time.After(d):
					}
				}
				return i * i, nil
			}}
	}
	return jobs
}

// BenchJobs builds n spec-carrying evaluation jobs — copies of the fast
// "bubble" workload under distinct names — able to run on any backend:
// local pools execute the closure, remote clients ship the spec over
// the wire. Results render comparably through RenderRows whichever path
// they took.
func BenchJobs(t *testing.T, n int) []engine.Job {
	t.Helper()
	var m bench.Manifest
	for i := 0; i < n; i++ {
		m.Jobs = append(m.Jobs, bench.ManifestJob{
			Name: fmt.Sprintf("bubble-%02d", i), Workload: "bubble"})
	}
	jobs, err := m.EngineJobs("", xlate.Options{})
	if err != nil {
		t.Fatalf("scenariotest: building bench jobs: %v", err)
	}
	return jobs
}

// Render canonicalizes a closure-job result set for byte-identical
// comparison: one "id=value" line per result, sorted. Errors render as
// their message so a faulty run can never masquerade as a healthy one.
func Render(t *testing.T, rs []engine.Result) string {
	t.Helper()
	lines := make([]string, len(rs))
	for i, r := range rs {
		if r.Err != nil {
			lines[i] = fmt.Sprintf("%s=ERR(%v)", r.ID, r.Err)
			continue
		}
		lines[i] = fmt.Sprintf("%s=%v", r.ID, r.Value)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// RenderRows canonicalizes a bench-job result set: one
// "name=metricsJSON" line per result, sorted. Local results (*Outcome)
// and remote results (the peer's *JobReport row) render through the one
// bench.JobReportOf mapping, so a mixed fleet's merged output compares
// byte for byte against a purely local reference.
func RenderRows(t *testing.T, rs []engine.Result) string {
	t.Helper()
	lines := make([]string, len(rs))
	for i, r := range rs {
		jr := bench.JobReportOf(r, nil)
		if !jr.OK {
			kind := jr.ErrorKind
			if kind == "" {
				kind = jr.Error
			}
			lines[i] = fmt.Sprintf("%s=ERR(%s)", jr.Name, kind)
			continue
		}
		mb, err := json.Marshal(jr.Metrics)
		if err != nil {
			t.Fatalf("scenariotest: marshalling metrics of %s: %v", jr.Name, err)
		}
		lines[i] = fmt.Sprintf("%s=%s", jr.Name, mb)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// reference runs jobs on a plain single engine and renders the result
// set — the oracle every fault scenario's merged output is pinned
// against.
func reference(t *testing.T, jobs []engine.Job, render func(*testing.T, []engine.Result) string) string {
	t.Helper()
	eng := engine.New(engine.Options{Workers: 2})
	defer eng.Close()
	rs, err := eng.Run(context.Background(), jobs)
	if err != nil {
		t.Fatalf("scenariotest: healthy reference run: %v", err)
	}
	return render(t, rs)
}

// Reference is the healthy single-engine oracle for closure jobs.
func Reference(t *testing.T, jobs []engine.Job) string {
	t.Helper()
	return reference(t, jobs, Render)
}

// ReferenceRows is the healthy single-engine oracle for bench jobs.
func ReferenceRows(t *testing.T, jobs []engine.Job) string {
	t.Helper()
	return reference(t, jobs, RenderRows)
}

// CheckExactlyOnce asserts the dedup contract: every submitted job
// resolved exactly once — no result lost to a dying backend, none
// duplicated by failover.
func CheckExactlyOnce(t *testing.T, jobs []engine.Job, rs []engine.Result) {
	t.Helper()
	if len(rs) != len(jobs) {
		t.Errorf("resolved %d results for %d jobs", len(rs), len(jobs))
	}
	seen := map[string]int{}
	for _, r := range rs {
		seen[r.ID]++
	}
	for _, j := range jobs {
		switch c := seen[j.ID]; {
		case c == 0:
			t.Errorf("job %s never resolved", j.ID)
		case c > 1:
			t.Errorf("job %s resolved %d times, want exactly once", j.ID, c)
		}
	}
}

// Expect describes what a scenario's merged output must satisfy.
type Expect int

const (
	// Identical: the merged result set must be byte-identical to the
	// healthy single-engine reference — the guarantee failover
	// topologies (Balancer fronts, per-job or chunked) make for every
	// survivable fault.
	Identical Expect = iota
	// Degraded: every job still resolves exactly once, but jobs held by
	// a dead backend may fail — and every such failure must carry a
	// backend-level (engine.Retryable) error, never a silent wrong
	// value. The retry-less (MaxRetries -1) Balancer baseline.
	Degraded
)

// Check runs jobs through ev via both Run and Stream and pins the
// scenario's contract: exactly-once resolution always, plus — per
// expect — byte-identity with the healthy reference want (rendered by
// render, which must match how want was produced) or typed degradation.
// Stream runs after Run on the same evaluator, so scripted faults that
// tripped during Run stay tripped — a dead backend stays dead across
// both modes, exactly like a real dead peer.
func Check(t *testing.T, ev engine.Evaluator, jobs []engine.Job, want string,
	render func(*testing.T, []engine.Result) string, expect Expect) {
	t.Helper()

	run := func(mode string, rs []engine.Result) {
		t.Helper()
		CheckExactlyOnce(t, jobs, rs)
		switch expect {
		case Identical:
			if got := render(t, rs); got != want {
				t.Errorf("%s result set diverged from healthy single engine:\ngot:\n%s\nwant:\n%s", mode, got, want)
			}
		case Degraded:
			for _, r := range rs {
				if r.Err != nil && !engine.Retryable(r.Err) {
					t.Errorf("%s: job %s failed with non-backend error %v", mode, r.ID, r.Err)
				}
			}
		}
	}

	rs, err := ev.Run(context.Background(), jobs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	run("Run", rs)

	var streamed []engine.Result
	for r := range ev.Stream(context.Background(), jobs) {
		streamed = append(streamed, r)
	}
	run("Stream", streamed)
}
