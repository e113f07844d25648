package scenariotest_test

// The result-cache scenarios: a cache-enabled topology must be
// invisible in the rows — warm (replayed) output byte-identical to the
// cold computed run and to the healthy no-cache reference — and a cache
// peer dying mid-suite must degrade dispatch to computing, never to
// lost, duplicated, or failed jobs.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/engine/scenariotest"
	"repro/internal/remote"
	"repro/internal/serve"
)

// cacheServePeer spins a cache-enabled art9-serve instance and returns
// its base URL — a live /v1/cache tier for the topology under test.
func cacheServePeer(t *testing.T) string {
	t.Helper()
	s, err := serve.New(serve.Config{Workers: 1, Cache: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts.URL
}

// TestScenarioResultCacheWarmIdentical pins the cache's transparency
// contract across every dispatch front: the cold run computes and the
// warm run replays, and both render byte-identical to the healthy
// no-cache single-engine reference. Check's Run pass is the cold run
// and its Stream pass re-submits the same jobs on the same evaluator —
// the warm run — so one Check covers both halves of the pin; the hit
// counters afterwards prove the warm half actually rode the cache.
func TestScenarioResultCacheWarmIdentical(t *testing.T) {
	topologies := []struct {
		name  string
		build func(t *testing.T) engine.Evaluator
	}{
		{name: "engine", build: func(t *testing.T) engine.Evaluator {
			return mustBackend(t, remote.BackendConfig{
				Cache: true, Workers: 2})
		}},
		{name: "shard-set", build: func(t *testing.T) engine.Evaluator {
			return mustBackend(t, remote.BackendConfig{
				Cache: true, Shards: 2, Workers: 2})
		}},
		{name: "failover", build: func(t *testing.T) engine.Evaluator {
			return mustBackend(t, remote.BackendConfig{
				Cache: true, Failover: true, Shards: 2,
				HealthInterval: -1, Workers: 2})
		}},
		{name: "failover-chunked", build: func(t *testing.T) engine.Evaluator {
			return mustBackend(t, remote.BackendConfig{
				Cache: true, Failover: true, Shards: 2, Chunk: 3,
				HealthInterval: -1, Workers: 2})
		}},
		{name: "autoscale", build: func(t *testing.T) engine.Evaluator {
			return mustBackend(t, remote.BackendConfig{
				Cache: true, AutoscaleMin: 1, AutoscaleMax: 2,
				ScaleInterval: -1, Workers: 2})
		}},
		{name: "engine-with-cache-peer", build: func(t *testing.T) engine.Evaluator {
			return mustBackend(t, remote.BackendConfig{
				Cache: true, CachePeers: []string{cacheServePeer(t)},
				Workers: 2})
		}},
	}
	for _, tc := range topologies {
		t.Run(tc.name, func(t *testing.T) {
			jobs := scenariotest.BenchJobs(t, 6)
			want := scenariotest.ReferenceRows(t, jobs)
			ev := tc.build(t)
			defer ev.Close()

			scenariotest.Check(t, ev, jobs, want, scenariotest.RenderRows, scenariotest.Identical)

			adapter, ok := engine.ResultCacheOf(ev).(*bench.ResultCache)
			if !ok {
				t.Fatal("no result cache reachable from the topology")
			}
			st := adapter.Stats()
			if st.Hits == 0 {
				t.Errorf("cache stats %+v: the warm pass never hit", st)
			}
			if st.Puts == 0 {
				t.Errorf("cache stats %+v: the cold pass never stored", st)
			}
		})
	}
}

// dyingCachePeer proxies a healthy cache-enabled serve instance but
// severs every connection after the first `healthy` requests — the
// cache peer that dies mid-suite.
type dyingCachePeer struct {
	inner   http.Handler
	healthy int32
	count   atomic.Int32
}

func (d *dyingCachePeer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if d.count.Add(1) > d.healthy {
		panic(http.ErrAbortHandler) // sever the connection mid-request
	}
	d.inner.ServeHTTP(w, r)
}

// TestScenarioCachePeerDiesMidSuite pins the degradation contract: when
// the cache peer starts severing connections partway through a suite,
// dispatch falls back to computing — every job resolves exactly once,
// rows stay byte-identical to the healthy reference, and the transport
// failures surface as PeerErrors counters, never as job errors.
func TestScenarioCachePeerDiesMidSuite(t *testing.T) {
	backendPeer, err := serve.New(serve.Config{Workers: 1, Cache: true})
	if err != nil {
		t.Fatal(err)
	}
	// A budget of one: the cold run's first peer lookup succeeds, and
	// everything after — including the write-behind fill flushes, which
	// batch into far fewer requests than there are jobs — is severed.
	dying := &dyingCachePeer{inner: backendPeer.Handler(), healthy: 1}
	ts := httptest.NewServer(dying)
	t.Cleanup(func() {
		ts.Close()
		backendPeer.Close()
	})

	jobs := scenariotest.BenchJobs(t, 8)
	want := scenariotest.ReferenceRows(t, jobs)
	ev := mustBackend(t, remote.BackendConfig{
		Cache: true, CachePeers: []string{ts.URL},
		Workers: 2,
	})
	defer ev.Close()

	rs, err := ev.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	scenariotest.CheckExactlyOnce(t, jobs, rs)
	if got := scenariotest.RenderRows(t, rs); got != want {
		t.Errorf("rows diverged with a dying cache peer:\ngot:\n%s\nwant:\n%s", got, want)
	}

	adapter, ok := engine.ResultCacheOf(ev).(*bench.ResultCache)
	if !ok {
		t.Fatal("no result cache reachable from the topology")
	}
	st := adapter.Stats()

	// The tier stays usable after the peer's death: a warm re-run
	// answers from the local store, still byte-identical.
	warm, err := ev.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	scenariotest.CheckExactlyOnce(t, jobs, warm)
	if got := scenariotest.RenderRows(t, warm); got != want {
		t.Errorf("warm rows diverged after the cache peer died:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if after := adapter.Stats(); after.Hits <= st.Hits {
		t.Errorf("warm run after peer death never hit the local store: %+v -> %+v", st, after)
	}

	// Peer fills are write-behind, so the transport failures against
	// the severed peer are only guaranteed visible once Close drains
	// the queue. The drain itself must not error: a dead peer degrades,
	// never fails.
	if err := ev.Close(); err != nil {
		t.Fatalf("Close with a dead cache peer: %v", err)
	}
	if after := adapter.Stats(); after.PeerErrors == 0 {
		t.Errorf("cache stats %+v: the dying peer never surfaced as PeerErrors", after)
	}
}

// mustBackend builds a topology through the shared composition rules,
// failing the test on a config the rule set rejects.
func mustBackend(t *testing.T, cfg remote.BackendConfig) engine.Evaluator {
	t.Helper()
	ev, err := remote.NewBackendWith(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}
