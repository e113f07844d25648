package remote_test

// Failure-path tests of the chunked dispatch client: DispatchChunk must
// acknowledge exactly the jobs whose rows arrived, leave severed-chunk
// jobs entirely unresolved for the caller to re-dispatch, and resolve
// peer-side shortfalls with retryable errors; a bare client's batch Run
// rides the same stream. The happy path across a real serve instance is
// covered by the scenariotest matrix (remote-chunked topology); these
// tests script the wire directly.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/serve"
)

// collectAcks runs DispatchChunk and gathers the acknowledged results
// by chunk index.
func collectAcks(ctx context.Context, t *testing.T, c engine.ChunkDispatcher, jobs []engine.Job) (map[int]engine.Result, error) {
	t.Helper()
	acked := map[int]engine.Result{}
	err := c.DispatchChunk(ctx, jobs, func(i int, r engine.Result) {
		if _, dup := acked[i]; dup {
			t.Errorf("job %d acknowledged twice", i)
		}
		acked[i] = r
	})
	return acked, err
}

// TestDispatchChunkAgainstServe drives the full wire round trip: a
// chunk against a real art9-serve instance resolves every job through
// the acknowledged stream and returns nil.
func TestDispatchChunkAgainstServe(t *testing.T) {
	s, err := serve.New(serve.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	c := mustClient(t, ts.URL)

	jobs := []engine.Job{specJob("a"), specJob("b"), specJob("c")}
	acked, err := collectAcks(context.Background(), t, c, jobs)
	if err != nil {
		t.Fatalf("DispatchChunk against a healthy peer: %v", err)
	}
	if len(acked) != 3 {
		t.Fatalf("acknowledged %d of 3 jobs", len(acked))
	}
	for i, r := range acked {
		if r.Err != nil {
			t.Errorf("job %d failed: %v", i, r.Err)
			continue
		}
		if jr, ok := r.Value.(*bench.JobReport); !ok || !jr.OK || jr.Metrics == nil {
			t.Errorf("job %d value %+v, want the peer's report row with metrics", i, r.Value)
		}
	}
}

// TestDispatchChunkSeveredStream pins the resume contract: the peer
// acknowledges the chunk, flushes one row, then dies before the end
// ack. Exactly that row's job is acknowledged; the rest stay unresolved
// and the returned error is retryable, so a balancer re-chunks only the
// dropped jobs.
func TestDispatchChunkSeveredStream(t *testing.T) {
	ts := httptest.NewServer(ndjsonHandler(
		[]string{`{"ack":"start","jobs":3}`, okRow("a")},
		func(http.ResponseWriter, *http.Request) { panic(http.ErrAbortHandler) }))
	defer ts.Close()
	c := mustClient(t, ts.URL)

	jobs := []engine.Job{specJob("a"), specJob("b"), specJob("c")}
	acked, err := collectAcks(context.Background(), t, c, jobs)
	if err == nil {
		t.Fatal("severed chunk stream reported success")
	}
	if !errors.Is(err, engine.ErrUnavailable) {
		t.Errorf("severed-chunk error %v, want ErrUnavailable (retryable)", err)
	}
	if len(acked) != 1 {
		t.Fatalf("acknowledged %d jobs, want only the flushed row", len(acked))
	}
	r, ok := acked[0]
	if !ok || r.Err != nil {
		t.Errorf("job a = %+v, want the flushed row resolved ok", r)
	}
	st := c.LocalStats()
	if st.Submitted != 3 || st.Completed != 1 || st.Failed != 2 {
		t.Errorf("local stats %+v, want 3 submitted / 1 completed / 2 failed", st)
	}
}

// TestDispatchChunkMissingEndAck pins severance detection when the body
// simply ends: without the peer's end ack, unacknowledged jobs must NOT
// be resolved — even though the stream closed without a transport
// error — because a proxy or peer crash can close a body cleanly.
func TestDispatchChunkMissingEndAck(t *testing.T) {
	ts := httptest.NewServer(ndjsonHandler(
		[]string{`{"ack":"start","jobs":2}`, okRow("a")}, nil))
	defer ts.Close()
	c := mustClient(t, ts.URL)

	jobs := []engine.Job{specJob("a"), specJob("b")}
	acked, err := collectAcks(context.Background(), t, c, jobs)
	if err == nil || !errors.Is(err, engine.ErrUnavailable) {
		t.Fatalf("end-ack-less stream error %v, want ErrUnavailable", err)
	}
	if len(acked) != 1 {
		t.Errorf("acknowledged %d jobs, want 1", len(acked))
	}
}

// TestDispatchChunkPeerEndsShort pins the peer-fault path: the peer
// signals a clean end but skipped a row. The skipped job is
// acknowledged with a retryable error (the peer is at fault, the job
// deserves another backend) and the chunk itself reports success.
func TestDispatchChunkPeerEndsShort(t *testing.T) {
	ts := httptest.NewServer(ndjsonHandler(
		[]string{`{"ack":"start","jobs":2}`, okRow("a"), `{"ack":"end","rows":1}`}, nil))
	defer ts.Close()
	c := mustClient(t, ts.URL)

	jobs := []engine.Job{specJob("a"), specJob("b")}
	acked, err := collectAcks(context.Background(), t, c, jobs)
	if err != nil {
		t.Fatalf("clean-ended chunk returned %v", err)
	}
	if len(acked) != 2 {
		t.Fatalf("acknowledged %d jobs, want both", len(acked))
	}
	if acked[0].Err != nil {
		t.Errorf("job a failed: %v", acked[0].Err)
	}
	if err := acked[1].Err; err == nil || !engine.Retryable(err) {
		t.Errorf("skipped job error %v, want a retryable backend-level failure", err)
	}
}

// TestDispatchChunkNotRemotable: a spec-less job is acknowledged inline
// with the job-level ErrNotRemotable while the remotable rest of the
// chunk proceeds.
func TestDispatchChunkNotRemotable(t *testing.T) {
	ts := httptest.NewServer(ndjsonHandler(
		[]string{`{"ack":"start","jobs":1}`, okRow("a"), `{"ack":"end","rows":1}`}, nil))
	defer ts.Close()
	c := mustClient(t, ts.URL)

	jobs := []engine.Job{specJob("a"),
		{ID: "closure", Fn: func(context.Context) (any, error) { return 1, nil }}}
	acked, err := collectAcks(context.Background(), t, c, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(acked) != 2 {
		t.Fatalf("acknowledged %d jobs, want both", len(acked))
	}
	if err := acked[1].Err; err == nil || engine.Retryable(err) {
		t.Errorf("closure job error %v, want a non-retryable not-remotable failure", err)
	}
}

// TestDispatchChunkClosedClient: a closed client refuses the chunk with
// ErrClosed and acknowledges nothing.
func TestDispatchChunkClosedClient(t *testing.T) {
	c := mustClient(t, "http://127.0.0.1:9")
	c.Close()
	acked, err := collectAcks(context.Background(), t, c, []engine.Job{specJob("a")})
	if !errors.Is(err, engine.ErrClosed) {
		t.Errorf("closed client chunk error %v, want ErrClosed", err)
	}
	if len(acked) != 0 {
		t.Errorf("closed client acknowledged %d jobs", len(acked))
	}
}

// recordQuery wraps h, recording each request's raw query string.
func recordQuery(h http.Handler, queries *[]string) http.Handler {
	var mu sync.Mutex
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		*queries = append(*queries, r.URL.RawQuery)
		mu.Unlock()
		h.ServeHTTP(w, r)
	})
}

// TestRunBatchUsesAckStream: the bare client's multi-job Run travels the
// same acknowledged /v1/suite stream as DispatchChunk.
func TestRunBatchUsesAckStream(t *testing.T) {
	var queries []string
	ts := httptest.NewServer(recordQuery(ndjsonHandler([]string{
		`{"ack":"start","jobs":2}`, okRow("a"), okRow("b"), `{"ack":"end","rows":2}`}, nil), &queries))
	defer ts.Close()
	c := mustClient(t, ts.URL)

	results, err := c.Run(context.Background(), []engine.Job{specJob("a"), specJob("b")})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Errorf("job %d failed: %v", i, r.Err)
		}
	}
	if len(queries) != 1 || queries[0] != "ack=1" {
		t.Errorf("batch request queries %q, want one request with ack=1", queries)
	}
}

// TestRunBatchSeveredStream: a batch stream severed after k of n rows
// resolves every job exactly once — the k received rows normally, the
// n-k unacknowledged jobs with a retryable ErrUnavailable.
func TestRunBatchSeveredStream(t *testing.T) {
	ts := httptest.NewServer(ndjsonHandler(
		[]string{`{"ack":"start","jobs":4}`, okRow("a"), okRow("b")},
		func(http.ResponseWriter, *http.Request) { panic(http.ErrAbortHandler) }))
	defer ts.Close()
	c := mustClient(t, ts.URL)

	jobs := []engine.Job{specJob("a"), specJob("b"), specJob("c"), specJob("d")}
	seen := map[string]int{}
	for r := range c.Stream(context.Background(), jobs) {
		seen[r.ID]++
		switch r.ID {
		case "a", "b":
			if r.Err != nil {
				t.Errorf("received row %s failed: %v", r.ID, r.Err)
			}
		default:
			if !errors.Is(r.Err, engine.ErrUnavailable) {
				t.Errorf("unacknowledged job %s error %v, want ErrUnavailable", r.ID, r.Err)
			}
		}
	}
	for _, j := range jobs {
		if seen[j.ID] != 1 {
			t.Errorf("job %s resolved %d times, want exactly once", j.ID, seen[j.ID])
		}
	}
	if st := c.LocalStats(); st.Submitted != 4 || st.Completed != 2 || st.Failed != 2 {
		t.Errorf("local stats %+v, want 4 submitted / 2 completed / 2 failed", st)
	}
}

// TestRunBatchWithoutAcks: a peer that sends every row but no
// acknowledgement rows — one predating the ?ack=1 variant — still
// resolves the batch cleanly.
func TestRunBatchWithoutAcks(t *testing.T) {
	ts := httptest.NewServer(ndjsonHandler([]string{okRow("b"), okRow("a")}, nil))
	defer ts.Close()
	c := mustClient(t, ts.URL)

	results, err := c.Run(context.Background(), []engine.Job{specJob("a"), specJob("b")})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Errorf("job %d failed: %v", i, r.Err)
		}
	}
}

// TestCapacityScrape pins the capacity query: a real serve peer answers
// /v1/capacity with its pool shape, and a peer without the endpoint
// (404) degrades to deriving the snapshot from /v1/stats.
func TestCapacityScrape(t *testing.T) {
	t.Run("fast path", func(t *testing.T) {
		s, err := serve.New(serve.Config{Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(func() {
			ts.Close()
			s.Close()
		})
		c := mustClient(t, ts.URL)
		snap, err := c.Capacity(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if snap.Workers != 3 || snap.Free != 3 {
			t.Errorf("capacity %+v, want 3 idle workers", snap)
		}
	})

	t.Run("stats fallback", func(t *testing.T) {
		mux := http.NewServeMux()
		mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
			json.NewEncoder(w).Encode(map[string]any{
				"engine": bench.EngineReport{Workers: 5, Submitted: 7, Completed: 4, Failed: 1},
			})
		})
		ts := httptest.NewServer(mux) // /v1/capacity 404s
		defer ts.Close()
		c := mustClient(t, ts.URL)
		snap, err := c.Capacity(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		// 7 submitted - 5 resolved = 2 busy of 5 workers.
		if snap.Workers != 5 || snap.Busy != 2 || snap.Free != 3 {
			t.Errorf("fallback capacity %+v, want workers=5 busy=2 free=3", snap)
		}
	})

	t.Run("dead peer", func(t *testing.T) {
		c := mustClient(t, "http://127.0.0.1:9")
		if _, err := c.Capacity(context.Background()); err == nil {
			t.Error("capacity scrape of a dead peer reported success")
		}
	})
}

// countingPeer is a stub fleet leaf that counts requests and answers
// /v1/eval and /v1/suite (both stream variants) with cheap ok rows —
// the wire-overhead microscope for the dispatch-mode comparison.
func countingPeer(requests *atomic.Int64) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/eval", func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		var req struct {
			Name string `json:"name"`
		}
		json.NewDecoder(r.Body).Decode(&req)
		json.NewEncoder(w).Encode(bench.JobReport{Name: req.Name, OK: true})
	})
	mux.HandleFunc("/v1/suite", func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		var m struct {
			Jobs []struct {
				Name string `json:"name"`
			} `json:"jobs"`
		}
		json.NewDecoder(r.Body).Decode(&m)
		ack := r.URL.Query().Get("ack") == "1"
		w.Header().Set("Content-Type", "application/x-ndjson")
		if ack {
			fmt.Fprintf(w, "{\"ack\":\"start\",\"jobs\":%d}\n", len(m.Jobs))
		}
		enc := json.NewEncoder(w)
		for _, j := range m.Jobs {
			enc.Encode(bench.JobReport{Name: j.Name, OK: true})
		}
		if ack {
			fmt.Fprintf(w, "{\"ack\":\"end\",\"rows\":%d}\n", len(m.Jobs))
		}
	})
	mux.HandleFunc("/v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	return mux
}

// chunkSuite builds n remotable jobs for the dispatch-mode comparison.
func chunkSuite(n int) []engine.Job {
	jobs := make([]engine.Job, n)
	for i := range jobs {
		jobs[i] = specJob(fmt.Sprintf("job-%03d", i))
	}
	return jobs
}

// TestChunkedDispatchFewerRequests is the wire-amortization acceptance
// pin: for a 100-job suite through a failover Balancer, chunked
// dispatch must issue measurably fewer HTTP requests than per-job
// dispatch — the whole point of the chunk path.
func TestChunkedDispatchFewerRequests(t *testing.T) {
	const n = 100
	run := func(t *testing.T, chunk int) int64 {
		t.Helper()
		var requests atomic.Int64
		ts := httptest.NewServer(countingPeer(&requests))
		defer ts.Close()
		c := mustClient(t, ts.URL)
		b := engine.NewBalancer(engine.BalancerOptions{
			HealthInterval: -1, Width: 64, Chunk: chunk,
		}, c)
		defer b.Close()
		rs, err := b.Run(context.Background(), chunkSuite(n))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rs {
			if r.Err != nil {
				t.Fatalf("job %s failed: %v", r.ID, r.Err)
			}
		}
		// Per-job placement issues no chunk units, so a failover report
		// without a chunk cap carries no chunk counters.
		if chunk <= 1 {
			if got := b.Chunks(); got != 0 {
				t.Errorf("per-job dispatch counted %d chunks, want 0", got)
			}
			for _, h := range b.Health() {
				if h.Chunks != 0 || h.ChunkResumes != 0 {
					t.Errorf("per-job backend %s counted %d chunks, %d resumes, want none", h.Name, h.Chunks, h.ChunkResumes)
				}
			}
		}
		return requests.Load()
	}

	perJob := run(t, 0)
	chunked := run(t, 32)
	if perJob != n {
		t.Errorf("per-job dispatch issued %d requests for %d jobs, want one each", perJob, n)
	}
	// 100 jobs at chunk 32 need ceil(100/32) = 4 requests when chunks
	// fill; leave slack for capacity-driven splits but demand at least a
	// 5× reduction.
	if chunked*5 > perJob {
		t.Errorf("chunked dispatch issued %d requests vs %d per-job — no amortization", chunked, perJob)
	}
	t.Logf("per-job: %d requests, chunked(32): %d requests", perJob, chunked)
}
