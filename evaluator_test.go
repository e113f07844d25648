// Facade tests for the unified Evaluator surface: the functional-options
// constructor, the typed errors, and the optional machine sizing of
// Run/RunFunctional.
package art9_test

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	art9 "repro"
	"repro/internal/engine"
	"repro/internal/serve"
)

func runSuiteOn(t *testing.T, ev art9.Evaluator) map[string]art9.EngineResult {
	t.Helper()
	results, err := ev.Run(context.Background(), art9.SuiteJobs())
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]art9.EngineResult{}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("job %s: %v", r.ID, r.Err)
		}
		byID[r.ID] = r
	}
	return byID
}

func TestNewDefaultIsLocalPool(t *testing.T) {
	ev, err := art9.New()
	if err != nil {
		t.Fatal(err)
	}
	defer ev.Close()
	if _, ok := ev.(*art9.Engine); !ok {
		t.Fatalf("New() built %T, want a single local *Engine", ev)
	}
	got := runSuiteOn(t, ev)
	if len(got) != len(art9.Benchmarks()) {
		t.Fatalf("suite resolved %d jobs, want %d", len(got), len(art9.Benchmarks()))
	}
	if st := ev.Stats(); st.Completed != uint64(len(got)) {
		t.Errorf("stats %+v, want %d completed", st, len(got))
	}
}

func TestNewWithShards(t *testing.T) {
	ev, err := art9.New(art9.WithShards(2), art9.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer ev.Close()
	set, ok := ev.(*art9.Balancer)
	if !ok {
		t.Fatalf("New(WithShards(2)) built %T, want *Balancer", ev)
	}
	if set.Size() != 2 {
		t.Fatalf("shard count %d, want 2", set.Size())
	}
	runSuiteOn(t, ev)
	if st := ev.Stats(); st.Workers != 2 {
		t.Errorf("stats %+v, want 2 workers across the set", st)
	}
}

// TestNewWithShardsIndependentCaches asserts WithShards(2) builds a
// Balancer over two separate local engines — the shards stand in for
// remote peers. Every job shares the process-wide program and analysis
// caches, whichever shard runs it.
func TestNewWithShardsIndependentCaches(t *testing.T) {
	ev, err := art9.New(art9.WithShards(2), art9.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer ev.Close()
	set := ev.(*art9.Balancer)
	e0, ok0 := set.Backend(0).(*art9.Engine)
	e1, ok1 := set.Backend(1).(*art9.Engine)
	if !ok0 || !ok1 {
		t.Fatal("New(WithShards(2)) backends are not local engines")
	}
	if e0 == e1 {
		t.Error("both shards are the same engine")
	}
}

func TestNewWithPeers(t *testing.T) {
	peer, err := serve.New(serve.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(peer.Handler())
	defer func() {
		ts.Close()
		peer.Close()
	}()

	// Remote-only: no explicit shards, so every job crosses the wire.
	ev, err := art9.New(art9.WithPeers(ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer ev.Close()
	serial, err := art9.RunBenchmark(art9.Benchmarks()[0])
	if err != nil {
		t.Fatal(err)
	}
	got := runSuiteOn(t, ev)
	row := got[serial.Workload.Name]
	jr, ok := row.Value.(*art9.JobReport)
	if !ok {
		t.Fatalf("remote result value %T, want *JobReport", row.Value)
	}
	if jr.Metrics == nil || jr.Metrics.Checksum != serial.Checksum {
		t.Errorf("remote metrics %+v disagree with local checksum %d", jr.Metrics, serial.Checksum)
	}
	if st := peer.Backend().Stats(); st.Completed < uint64(len(got)) {
		t.Errorf("peer completed %d jobs, want at least %d (remote-only fan-out)", st.Completed, len(got))
	}

	// Mixed: one local shard + the peer behind one Balancer.
	mixed, err := art9.New(art9.WithShards(1), art9.WithWorkers(1), art9.WithPeers(ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer mixed.Close()
	if set, ok := mixed.(*art9.Balancer); !ok || set.Size() != 2 {
		t.Fatalf("mixed evaluator %T, want a 2-backend Balancer", mixed)
	}
	runSuiteOn(t, mixed)

	if _, err := art9.New(art9.WithPeers("ftp://nope")); err == nil {
		t.Error("New accepted an invalid peer URL")
	}
}

// TestResultCacheFrontsPeerTopologies pins that WithResultCache is
// never silently dropped when peers are involved: a lone peer and a
// mixed local+peer fleet both get a cache-carrying front, so a second
// identical Run replays every job (Worker -1) instead of recomputing.
func TestResultCacheFrontsPeerTopologies(t *testing.T) {
	peer, err := serve.New(serve.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(peer.Handler())
	defer func() {
		ts.Close()
		peer.Close()
	}()

	for _, tc := range []struct {
		name string
		opts []art9.Option
	}{
		{"lone peer", []art9.Option{art9.WithPeers(ts.URL), art9.WithResultCache()}},
		{"local shard and peer", []art9.Option{art9.WithShards(1), art9.WithWorkers(1),
			art9.WithPeers(ts.URL), art9.WithResultCache()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ev, err := art9.New(tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer ev.Close()
			if engine.ResultCacheOf(ev) == nil {
				t.Fatalf("%T carries no result cache", ev)
			}
			runSuiteOn(t, ev)
			for id, r := range runSuiteOn(t, ev) {
				if r.Worker != -1 {
					t.Errorf("warm job %s ran on worker %d, want a cache replay (-1)", id, r.Worker)
				}
			}
		})
	}
}

func TestTypedErrors(t *testing.T) {
	ev, err := art9.New(art9.WithWorkers(1), art9.WithJobTimeout(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	r := <-ev.(*art9.Engine).Submit(context.Background(), art9.EngineJob{ID: "slow",
		Fn: func(ctx context.Context) (any, error) { <-ctx.Done(); return nil, ctx.Err() }})
	if !errors.Is(r.Err, art9.ErrTimeout) {
		t.Errorf("timeout error %v, want art9.ErrTimeout", r.Err)
	}
	ev.Close()
	results, _ := ev.Run(context.Background(), art9.SuiteJobs()[:1])
	if !errors.Is(results[0].Err, art9.ErrClosed) {
		t.Errorf("post-Close error %v, want art9.ErrClosed", results[0].Err)
	}
}

func TestRunAcceptsSimConfig(t *testing.T) {
	prog, err := art9.Assemble("LDI T1, 42\nHALT")
	if err != nil {
		t.Fatal(err)
	}
	// Default sizing still works and is the no-argument path.
	if _, _, err := art9.Run(prog, nil); err != nil {
		t.Fatal(err)
	}
	// An explicit machine sizing is honoured: a 1-word instruction
	// memory cannot hold the 2-word program.
	if _, _, err := art9.Run(prog, nil, art9.SimConfig{TIMWords: 1}); err == nil {
		t.Error("Run ignored the caller's SimConfig (1-word TIM fit a 2-word program)")
	}
	if _, _, err := art9.RunFunctional(prog, nil, art9.SimConfig{TIMWords: 1}); err == nil {
		t.Error("RunFunctional ignored the caller's SimConfig")
	}
	// A generous explicit sizing behaves like the default.
	s, res, err := art9.Run(prog, nil, art9.SimConfig{TIMWords: 64, TDMWords: 64, MaxSteps: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if s.Reg(1).Int() != 42 || res.Cycles == 0 {
		t.Errorf("sized run: T1=%d cycles=%d, want 42 and non-zero", s.Reg(1).Int(), res.Cycles)
	}
}

// TestRunRejectsMultipleSimConfigs pins the variadic contract: the
// optional SimConfig is at most one — extras used to be silently
// discarded, hiding caller bugs where two configs disagreed.
func TestRunRejectsMultipleSimConfigs(t *testing.T) {
	prog, err := art9.Assemble("LDI T1, 42\nHALT")
	if err != nil {
		t.Fatal(err)
	}
	a := art9.SimConfig{TIMWords: 64, TDMWords: 64}
	b := art9.SimConfig{TIMWords: 128}
	if _, _, err := art9.Run(prog, nil, a, b); err == nil {
		t.Error("Run silently accepted two SimConfigs")
	}
	if _, _, err := art9.RunFunctional(prog, nil, a, b); err == nil {
		t.Error("RunFunctional silently accepted two SimConfigs")
	}
}
