package remote

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/rescache"
	"repro/internal/xlate"
)

// cachePeerStub is a minimal /v1/cache peer: an LRU behind the wire
// protocol, counting lookups and fills.
type cachePeerStub struct {
	store   *rescache.LRU
	lookups atomic.Int64
	fills   atomic.Int64
}

func newCachePeerStub() *cachePeerStub {
	return &cachePeerStub{store: rescache.NewLRU(0, 0)}
}

func (s *cachePeerStub) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/v1/cache/lookup":
		s.lookups.Add(1)
		var req CacheLookupRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		enc := json.NewEncoder(w)
		for _, k := range req.Keys {
			row := CacheRow{Key: k}
			if v, ok := s.store.Get(r.Context(), k); ok {
				row.Found, row.Value = true, v
			}
			enc.Encode(row)
		}
	case "/v1/cache/fill":
		s.fills.Add(1)
		var req CacheFillRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		for _, e := range req.Entries {
			s.store.Put(r.Context(), e.Key, e.Value)
		}
		json.NewEncoder(w).Encode(CacheFillReply{Stored: len(req.Entries)})
	default:
		http.NotFound(w, r)
	}
}

func TestNewCacheClientRejectsBadURLs(t *testing.T) {
	for _, bad := range []string{"", "host:9009", "ftp://host", "http://"} {
		if _, err := NewCacheClient(bad); err == nil {
			t.Errorf("NewCacheClient(%q) accepted a bad URL", bad)
		}
	}
	c, err := NewCacheClient("http://host:9009/")
	if err != nil {
		t.Fatal(err)
	}
	if c.Peer() != "http://host:9009" {
		t.Errorf("Peer() = %q, want normalized base", c.Peer())
	}
}

func TestCacheClientRoundTrip(t *testing.T) {
	peer := newCachePeerStub()
	srv := httptest.NewServer(peer)
	defer srv.Close()
	c, err := NewCacheClient(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	if _, ok := c.Get(ctx, "k1"); ok {
		t.Fatal("empty peer answered a lookup")
	}
	c.Put(ctx, "k1", []byte(`{"ok":true,"worker":-1}`))
	v, ok := c.Get(ctx, "k1")
	if !ok {
		t.Fatal("filled key missed")
	}
	var row struct {
		OK bool `json:"ok"`
	}
	if err := json.Unmarshal(v, &row); err != nil || !row.OK {
		t.Fatalf("round-tripped value %q: %v", v, err)
	}
	st := c.Stats()
	if st.PeerHits != 1 || st.PeerMisses != 1 || st.PeerErrors != 0 {
		t.Fatalf("stats %+v, want 1 peer hit / 1 miss / 0 errors", st)
	}
}

func TestCacheClientDegradesOnDeadAndOldPeers(t *testing.T) {
	// A dead peer: every op degrades to a miss and a PeerErrors tick.
	srv := httptest.NewServer(http.NotFoundHandler())
	dead, err := NewCacheClient(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	ctx := context.Background()
	if _, ok := dead.Get(ctx, "k"); ok {
		t.Fatal("dead peer answered a lookup")
	}
	dead.Put(ctx, "k", []byte(`{}`))
	if st := dead.Stats(); st.PeerErrors != 2 {
		t.Fatalf("stats %+v, want 2 peer errors", st)
	}

	// A peer predating the cache protocol answers 404: a standing
	// miss, not an error — mixed-version fleets stay healthy.
	old := httptest.NewServer(http.NotFoundHandler())
	defer old.Close()
	oc, err := NewCacheClient(old.URL)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := oc.Get(ctx, "k"); ok {
		t.Fatal("pre-cache peer answered a lookup")
	}
	oc.Put(ctx, "k", []byte(`{}`))
	if st := oc.Stats(); st.PeerErrors != 0 || st.PeerMisses != 1 {
		t.Fatalf("stats %+v, want a clean miss against a pre-cache peer", st)
	}

	// Garbage in the reply stream degrades to a miss, not a panic.
	garbled := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("<html>not ndjson</html>\n"))
	}))
	defer garbled.Close()
	gc, err := NewCacheClient(garbled.URL)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := gc.Get(ctx, "k"); ok {
		t.Fatal("garbled reply answered a lookup")
	}
	if st := gc.Stats(); st.PeerErrors != 1 {
		t.Fatalf("stats %+v, want the garbled reply counted as a peer error", st)
	}
}

func TestNewResultCacheTier(t *testing.T) {
	peer := newCachePeerStub()
	srv := httptest.NewServer(peer)
	defer srv.Close()

	if _, err := NewResultCache(BackendConfig{CachePeers: []string{"not a url"}}); err == nil {
		t.Fatal("bad cache peer URL accepted")
	}

	tier, err := NewResultCache(BackendConfig{CachePeers: []string{srv.URL}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// A value seeded on the peer is found remotely and filled locally:
	// the second lookup never leaves the process.
	peer.store.Put(ctx, "warm", []byte(`{"ok":true}`))
	if _, ok := tier.Get(ctx, "warm"); !ok {
		t.Fatal("peer-seeded key missed")
	}
	before := peer.lookups.Load()
	if _, ok := tier.Get(ctx, "warm"); !ok {
		t.Fatal("locally filled key missed")
	}
	if peer.lookups.Load() != before {
		t.Fatal("second lookup went back to the peer")
	}

	// A local Put fans out write-behind so the peer can answer the rest
	// of the fleet; Close drains the queue, so the fill has landed once
	// it returns.
	tier.Put(ctx, "fresh", []byte(`{"ok":true}`))
	if err := tier.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, ok := peer.store.Get(ctx, "fresh"); !ok {
		t.Fatal("Put did not reach the peer after drain")
	}
	st := tier.Stats()
	if st.Hits != 2 || st.PeerHits != 1 || st.PeerErrors != 0 {
		t.Fatalf("stats %+v, want 2 hits / 1 peer hit / 0 errors", st)
	}
}

func TestValidateCacheTopology(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  BackendConfig
		want string // substring of the error; "" means valid
	}{
		{"peers without cache", BackendConfig{CachePeers: []string{"http://h:1"}}, "-cache-peers"},
		{"max-bytes without cache", BackendConfig{CacheMaxBytes: 1 << 20}, "-cache-max-bytes"},
		{"negative max-bytes", BackendConfig{Cache: true, CacheMaxBytes: -1}, "-cache-max-bytes"},
		{"cache alone", BackendConfig{Cache: true}, ""},
		{"cache with peers and bound", BackendConfig{
			Cache: true, CachePeers: []string{"http://h:1"}, CacheMaxBytes: 1 << 20,
		}, ""},
		{"cache with failover", BackendConfig{Cache: true, Failover: true, Shards: 2}, ""},
		{"cache with autoscale", BackendConfig{Cache: true, AutoscaleMin: 1, AutoscaleMax: 2}, ""},
	} {
		_, err := ValidateFleetFlags(tc.cfg)
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want mention of %s", tc.name, err, tc.want)
		}
		if !errors.Is(err, engine.ErrInvalidOptions) {
			t.Errorf("%s: error %v does not wrap ErrInvalidOptions", tc.name, err)
		}
	}
}

func TestBackendCacheShortCircuitsEveryTopology(t *testing.T) {
	jobs, m := cacheManifestJobs(t)
	for _, tc := range []struct {
		name string
		cfg  BackendConfig
	}{
		{"plain engine", BackendConfig{Cache: true}},
		{"shard set", BackendConfig{Cache: true, Shards: 2}},
		{"failover front", BackendConfig{Cache: true, Failover: true, Shards: 2}},
		{"chunked failover", BackendConfig{Cache: true, Failover: true, Shards: 2, Chunk: 2}},
		{"autoscale front", BackendConfig{Cache: true, AutoscaleMin: 1, AutoscaleMax: 2}},
	} {
		cfg := tc.cfg
		cfg.Workers = 2
		ev, err := NewBackendWith(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		adapter, ok := engine.ResultCacheOf(ev).(*bench.ResultCache)
		if !ok {
			t.Fatalf("%s: no ResultCache reachable from the topology", tc.name)
		}
		ctx := context.Background()
		if _, err := ev.Run(ctx, jobs); err != nil {
			t.Fatalf("%s: cold run: %v", tc.name, err)
		}
		warm, err := ev.Run(ctx, jobs)
		if err != nil {
			t.Fatalf("%s: warm run: %v", tc.name, err)
		}
		for _, r := range warm {
			if r.Err != nil {
				t.Fatalf("%s: warm job %s failed: %v", tc.name, r.ID, r.Err)
			}
			if r.Worker != -1 {
				t.Fatalf("%s: warm job %s ran on worker %d, want cache hit", tc.name, r.ID, r.Worker)
			}
		}
		st := adapter.Stats()
		if st.Hits != uint64(len(jobs)) || st.Puts != uint64(len(jobs)) {
			t.Fatalf("%s: stats %+v, want %d hits and %d puts", tc.name, st, len(jobs), len(jobs))
		}
		ev.Close()
		_ = m
	}
}

// cacheManifestJobs builds a small spec-carrying batch — cache keys
// require real bench specs, not bare Fns.
func cacheManifestJobs(t *testing.T) ([]engine.Job, *bench.Manifest) {
	t.Helper()
	m, err := bench.ParseManifest([]byte(`{
		"technologies": ["cntfet32"],
		"jobs": [
			{"name": "bubble", "workload": "bubble"},
			{"name": "gemm", "workload": "gemm"}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := m.EngineJobs("", xlate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return jobs, m
}
