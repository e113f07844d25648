// Package remote is the multi-machine backend of the evaluation stack:
// an engine.Evaluator whose "worker pool" is another art9-serve instance
// reached over HTTP. It speaks the existing /v1 protocol — single jobs
// through POST /v1/eval, batches through the acknowledged
// POST /v1/suite?ack=1 stream consuming the NDJSON rows the moment the
// peer flushes them — so any running art9-serve is already a valid
// shard.
//
// Because a Client is just an Evaluator, it composes with everything
// else behind that interface: engine.NewBalancer(opts, localEngine,
// client) splits one batch between this process and a peer, art9-serve
// --peers fronts a fleet of other art9-serve instances, and fronts of
// fronts build arbitrary topologies.
//
// Jobs are shipped by their engine.Job.Spec (a *bench.JobSpec, attached
// by bench.SuiteJobs / Manifest.EngineJobs): the program travels inline
// as source text, never as a server-side path. Jobs without a spec fail
// fast with ErrNotRemotable instead of contacting the peer.
//
// Failure surface: connection errors at dial are retried a bounded
// number of times with exponential backoff; a peer dying mid-stream
// resolves the rows already received normally and the rest with a
// stream error; cancelling the caller's context aborts the in-flight
// request and resolves outstanding jobs with the context error; HTTP
// 503/504 from the peer unwrap to engine.ErrClosed / engine.ErrTimeout.
package remote

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/rescache"
)

// ErrNotRemotable is wrapped into the result of any job submitted to a
// Client without a serializable spec (engine.Job.Spec).
var ErrNotRemotable = errors.New("remote: job carries no serializable spec")

// ErrStatsUnavailable marks a failed peer stats scrape: the peer was
// unreachable, answered a non-200, or sent a malformed body. PeerStats
// wraps every failure with it, and Stats — whose Evaluator signature
// cannot carry an error — records it for StatsErr instead of silently
// hiding the transport failure behind the local-counter fallback.
var ErrStatsUnavailable = errors.New("remote: peer stats unavailable")

// maxRow bounds one NDJSON line from the peer.
const maxRow = 1 << 20

// Chunking limits for one /v1/suite request, chosen to stay inside the
// serve layer's per-request caps (maxSuiteJobs = 1024, maxBody = 4 MiB)
// with headroom — a batch that runs locally must not fail wholesale
// just because it crossed the wire in one piece.
const (
	maxJobsPerRequest = 1024
	maxRequestBytes   = 2 << 20
)

// Option configures a Client.
type Option func(*Client)

// WithRetries sets how many times a request is re-dialled after a
// connect error (default 2; 0 disables retrying).
func WithRetries(n int) Option { return func(c *Client) { c.retries = n } }

// WithRetryDelay sets the first retry's backoff delay, doubled per
// attempt (default 100ms).
func WithRetryDelay(d time.Duration) Option { return func(c *Client) { c.retryDelay = d } }

// WithHTTPClient substitutes the transport (tests, custom TLS). The
// client must not impose a global timeout — suite streams are
// long-lived; bound work with the caller's context instead.
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithStatsTimeout bounds the /v1/stats scrape performed by Stats()
// (default 2s).
func WithStatsTimeout(d time.Duration) Option { return func(c *Client) { c.statsTimeout = d } }

// Client is the remote-peer backend. Create with New; a zero Client is
// not usable.
type Client struct {
	base         string
	hc           *http.Client
	retries      int
	retryDelay   time.Duration
	statsTimeout time.Duration

	closed atomic.Bool

	// statsMu guards lastStatsErr, the outcome of the most recent
	// Stats() scrape (see StatsErr).
	statsMu      sync.Mutex
	lastStatsErr error

	submitted atomic.Uint64
	completed atomic.Uint64
	failed    atomic.Uint64
	canceled  atomic.Uint64
	rejected  atomic.Uint64
	streams   atomic.Uint64
}

var (
	_ engine.Evaluator        = (*Client)(nil)
	_ engine.Prober           = (*Client)(nil)
	_ engine.ChunkDispatcher  = (*Client)(nil)
	_ engine.CapacityReporter = (*Client)(nil)
)

// New builds a client for one art9-serve base URL (e.g.
// "http://host:9009"). The URL is validated here so a misconfigured
// fleet fails at construction, not first use.
func New(baseURL string, opts ...Option) (*Client, error) {
	u, err := url.Parse(strings.TrimSpace(baseURL))
	if err != nil {
		return nil, fmt.Errorf("remote: peer url %q: %w", baseURL, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("remote: peer url %q: scheme must be http or https", baseURL)
	}
	if u.Host == "" {
		return nil, fmt.Errorf("remote: peer url %q: missing host", baseURL)
	}
	c := &Client{
		base:         strings.TrimRight(u.String(), "/"),
		hc:           &http.Client{},
		retries:      2,
		retryDelay:   100 * time.Millisecond,
		statsTimeout: 2 * time.Second,
	}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// Peer returns the normalized base URL this client proxies to.
func (c *Client) Peer() string { return c.base }

// Close marks the client closed — subsequent batches resolve with
// engine.ErrClosed — and releases idle connections. In-flight requests
// are not interrupted; they are bounded by their own contexts.
func (c *Client) Close() error {
	c.closed.Store(true)
	c.hc.CloseIdleConnections()
	return nil
}

// Run ships the batch to the peer and returns one result per job in
// submission order — engine.Evaluator Run semantics over HTTP. The
// returned error is non-nil only when ctx ended before the batch
// resolved.
func (c *Client) Run(ctx context.Context, jobs []engine.Job) ([]engine.Result, error) {
	out := make([]engine.Result, len(jobs))
	c.dispatch(ctx, jobs, func(i int, r engine.Result) { out[i] = r })
	return out, ctx.Err()
}

// Stream ships the batch to the peer and yields each job's result the
// moment its NDJSON row arrives — the peer emits rows in its own
// completion order, so the channel preserves the same contract as
// Engine.Stream. The channel is buffered to len(jobs) and always
// closes.
func (c *Client) Stream(ctx context.Context, jobs []engine.Job) <-chan engine.Result {
	c.streams.Add(1)
	out := make(chan engine.Result, len(jobs))
	if len(jobs) == 0 {
		close(out)
		return out
	}
	go func() {
		defer close(out)
		c.dispatch(ctx, jobs, func(_ int, r engine.Result) { out <- r })
	}()
	return out
}

// Stats scrapes the peer's /v1/stats and reports the peer's engine
// counters — the fleet view a front end aggregates. When the scrape
// fails it falls back to this client's local counters (Workers 0,
// marking the shard as contributing no live pool) and records the
// typed failure for StatsErr, so a fallback is observable rather than
// silently indistinguishable from a healthy scrape.
func (c *Client) Stats() engine.Stats {
	ctx, cancel := context.WithTimeout(context.Background(), c.statsTimeout)
	defer cancel()
	st, err := c.PeerStats(ctx)
	c.statsMu.Lock()
	c.lastStatsErr = err
	c.statsMu.Unlock()
	if err != nil {
		return c.LocalStats()
	}
	return st
}

// StatsErr returns the outcome of the most recent Stats scrape: nil
// after a clean peer scrape, an ErrStatsUnavailable-wrapped error when
// Stats fell back to local counters. It is nil before the first scrape.
func (c *Client) StatsErr() error {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	return c.lastStatsErr
}

// Probe answers the engine.Prober liveness check with a GET
// /v1/healthz, bounded by ctx. A closed client reports engine.ErrClosed
// without touching the network; an unreachable or unhealthy peer
// reports an engine.ErrUnavailable-wrapped error.
func (c *Client) Probe(ctx context.Context) error {
	if c.closed.Load() {
		return engine.ErrClosed
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/healthz", nil)
	if err != nil {
		return fmt.Errorf("remote %s: healthz: %w", c.base, err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("remote %s: healthz: %w: %w", c.base, engine.ErrUnavailable, err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, maxRow))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("remote %s: healthz: %w: %s", c.base, engine.ErrUnavailable, resp.Status)
	}
	return nil
}

// LocalStats returns the counters of work submitted through this client
// only, balanced the same way engine.Stats documents.
func (c *Client) LocalStats() engine.Stats {
	return engine.Stats{
		Submitted: c.submitted.Load(),
		Completed: c.completed.Load(),
		Failed:    c.failed.Load(),
		Canceled:  c.canceled.Load(),
		Rejected:  c.rejected.Load(),
		Streams:   c.streams.Load(),
	}
}

// PeerStats fetches the peer's aggregate engine counters from
// GET /v1/stats.
func (c *Client) PeerStats(ctx context.Context) (engine.Stats, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/stats", nil)
	if err != nil {
		return engine.Stats{}, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return engine.Stats{}, fmt.Errorf("%w (%s): %w", ErrStatsUnavailable, c.base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return engine.Stats{}, fmt.Errorf("%w (%s): %s", ErrStatsUnavailable, c.base, resp.Status)
	}
	var body struct {
		Engine bench.EngineReport `json:"engine"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxRow)).Decode(&body); err != nil {
		return engine.Stats{}, fmt.Errorf("%w (%s): decode: %w", ErrStatsUnavailable, c.base, err)
	}
	return engine.Stats{
		Workers:   body.Engine.Workers,
		Submitted: body.Engine.Submitted,
		Completed: body.Engine.Completed,
		Failed:    body.Engine.Failed,
		Canceled:  body.Engine.Canceled,
		Rejected:  body.Engine.Rejected,
		Streams:   body.Engine.Streams,
	}, nil
}

// EvalRequest is the POST /v1/eval body: one manifest job plus the
// technologies to estimate it against. The server rejects file jobs — a
// network request must not read server-side paths.
type EvalRequest struct {
	bench.ManifestJob
	Technologies []string `json:"technologies,omitempty"`
}

// dispatch resolves every job exactly once through emit(jobIndex,
// result): invalid jobs inline, one valid job via /v1/eval, larger
// batches as acknowledged /v1/suite chunks posted concurrently. A chunk
// that fails resolves only its unacknowledged jobs, with the chunk's
// classified error.
func (c *Client) dispatch(ctx context.Context, jobs []engine.Job, emit func(int, engine.Result)) {
	c.submitted.Add(uint64(len(jobs)))
	if c.closed.Load() {
		c.rejected.Add(uint64(len(jobs)))
		for i, j := range jobs {
			emit(i, engine.Result{ID: j.ID, Err: engine.ErrClosed, Worker: -1})
		}
		return
	}
	specs, valid := c.specsOf(jobs, emit)
	if len(valid) == 1 {
		i := valid[0]
		emit(i, c.evalOne(ctx, jobs[i], specs[i]))
		return
	}
	acked := make([]bool, len(jobs))
	ack := func(i int, r engine.Result) {
		acked[i] = true
		emit(i, r)
	}
	var wg sync.WaitGroup
	for _, ch := range wireChunks(jobs, specs, valid) {
		wg.Add(1)
		go func(ch wireChunk) {
			defer wg.Done()
			err := c.ackPost(ctx, ch, jobs, ack)
			if err == nil {
				return
			}
			for _, e := range ch.entries {
				if i := e.pj.index; !acked[i] {
					c.countFailure(err)
					emit(i, engine.Result{ID: jobs[i].ID, Err: err, Worker: -1})
				}
			}
		}(ch)
	}
	wg.Wait()
}

// specsOf extracts every job's spec. A job without one fails through
// emit at once — it cannot travel at all — and is left out of valid.
func (c *Client) specsOf(jobs []engine.Job, emit func(int, engine.Result)) (specs []*bench.JobSpec, valid []int) {
	specs = make([]*bench.JobSpec, len(jobs))
	for i, j := range jobs {
		spec, err := specOf(j)
		if err != nil {
			c.failed.Add(1)
			emit(i, engine.Result{ID: j.ID, Err: err, Worker: -1})
			continue
		}
		specs[i] = spec
		valid = append(valid, i)
	}
	return specs, valid
}

// specOf extracts the serializable description of one job.
func specOf(j engine.Job) (*bench.JobSpec, error) {
	switch s := j.Spec.(type) {
	case *bench.JobSpec:
		return s, nil
	case bench.JobSpec:
		return &s, nil
	case *bench.ManifestJob:
		return &bench.JobSpec{Job: *s}, nil
	case bench.ManifestJob:
		return &bench.JobSpec{Job: s}, nil
	default:
		return nil, fmt.Errorf("%w (job %q)", ErrNotRemotable, j.ID)
	}
}

// evalOne runs a single job through POST /v1/eval.
func (c *Client) evalOne(ctx context.Context, j engine.Job, spec *bench.JobSpec) engine.Result {
	mj := wireJobOf(j, spec)
	body, err := json.Marshal(EvalRequest{ManifestJob: mj, Technologies: spec.Technologies})
	if err != nil {
		c.failed.Add(1)
		return engine.Result{ID: j.ID, Err: fmt.Errorf("remote %s: encode job: %w", c.base, err), Worker: -1}
	}
	start := time.Now()
	resp, err := c.post(ctx, "/v1/eval", body)
	if err != nil {
		err = c.classify(ctx, err)
		c.countFailure(err)
		return engine.Result{ID: j.ID, Err: err, Worker: -1}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		c.failed.Add(1)
		return engine.Result{ID: j.ID, Err: c.statusErr(resp), Worker: -1,
			Elapsed: time.Since(start)}
	}
	var jr bench.JobReport
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxRow)).Decode(&jr); err != nil {
		// A truncated or garbled 200 body is transport-class (the peer
		// died mid-response), so classify it retryable like a severed
		// stream.
		err = c.classify(ctx, fmt.Errorf("remote %s: decode report: %w", c.base, err))
		c.countFailure(err)
		return engine.Result{ID: j.ID, Err: err, Worker: -1}
	}
	return c.rowResult(j.ID, &jr)
}

// pendingJob tracks one not-yet-resolved suite job: its index in the
// batch and its original (pre-deduplication) name.
type pendingJob struct {
	index int
	name  string
}

// wireEntry pairs one manifest entry with its pending-job bookkeeping.
type wireEntry struct {
	mj bench.ManifestJob
	pj pendingJob
}

// wireChunk is the body of one POST /v1/suite?ack=1: jobs sharing a
// technology list, within the peer's per-request caps.
type wireChunk struct {
	techs   []string
	entries []wireEntry
}

// wireChunks groups the jobs at valid by technology list — one request
// per distinct list, so no job is ever evaluated against technologies
// it did not ask for (in practice a batch comes from one manifest and
// forms a single group) — and splits each group with buildWireChunks.
func wireChunks(jobs []engine.Job, specs []*bench.JobSpec, valid []int) []wireChunk {
	groups := map[string][]int{}
	var order []string
	for _, i := range valid {
		key := strings.Join(specs[i].Technologies, "\x00")
		if _, ok := groups[key]; !ok {
			order = append(order, key)
		}
		groups[key] = append(groups[key], i)
	}
	var out []wireChunk
	for _, key := range order {
		idx := groups[key]
		for _, entries := range buildWireChunks(jobs, specs, idx) {
			out = append(out, wireChunk{techs: specs[idx[0]].Technologies, entries: entries})
		}
	}
	return out
}

// buildWireChunks renders the jobs at idx as manifest entries and
// splits them so no single request exceeds the peer's per-request job
// or body caps. Wire names are made unique across the whole group
// (duplicates get a "#n" suffix, undone before the row is emitted), so
// every row correlates to exactly the job that produced it even when a
// batch repeats a name with different work attached.
func buildWireChunks(jobs []engine.Job, specs []*bench.JobSpec, idx []int) [][]wireEntry {
	used := make(map[string]bool, len(idx))
	var chunks [][]wireEntry
	var cur []wireEntry
	size := 0
	for _, i := range idx {
		mj := wireJobOf(jobs[i], specs[i])
		orig := mj.Name
		for n := 2; used[mj.Name]; n++ {
			mj.Name = fmt.Sprintf("%s#%d", orig, n)
		}
		used[mj.Name] = true
		// Approximate this entry's marshalled footprint; 96 covers the
		// field names, quoting and numeric fields.
		esz := len(mj.Name) + len(mj.Source) + len(mj.Workload) + 96
		if len(cur) > 0 && (len(cur) >= maxJobsPerRequest || size+esz > maxRequestBytes) {
			chunks = append(chunks, cur)
			cur, size = nil, 0
		}
		cur = append(cur, wireEntry{mj: mj, pj: pendingJob{index: i, name: orig}})
		size += esz
	}
	return append(chunks, cur)
}

// DispatchChunk implements engine.ChunkDispatcher: the chunk travels
// over the acknowledged /v1/suite stream variant (?ack=1) — one request
// per distinct technology list, split further only if the chunk
// exceeds the peer's per-request caps — and every arriving NDJSON row
// acknowledges its job through ack. On a chunk-level failure (the peer
// unreachable, the stream severed before the peer's end
// acknowledgement) the unacknowledged jobs are left entirely
// unresolved and the classified error is returned: the caller — a
// chunking engine.Balancer — owns re-dispatching exactly those jobs,
// so rows that already arrived are never re-run.
func (c *Client) DispatchChunk(ctx context.Context, jobs []engine.Job, ack func(int, engine.Result)) error {
	c.submitted.Add(uint64(len(jobs)))
	if c.closed.Load() {
		c.rejected.Add(uint64(len(jobs)))
		return engine.ErrClosed
	}
	acked := make([]bool, len(jobs))
	wrap := func(i int, r engine.Result) {
		acked[i] = true
		ack(i, r)
	}
	// Spec-less jobs are acknowledged with their job-level failure inline
	// so the balancer does not re-try a job that can never reach a peer.
	specs, valid := c.specsOf(jobs, wrap)
	// Chunks run sequentially: one chunk is one dispatch decision, and
	// concurrency across chunks belongs to the balancer placing them.
	for _, ch := range wireChunks(jobs, specs, valid) {
		if err := c.ackPost(ctx, ch, jobs, wrap); err != nil {
			// Book the jobs this client never resolved so LocalStats
			// stays balanced; their verdicts belong to whichever backend
			// re-runs them.
			for i := range jobs {
				if !acked[i] {
					c.countFailure(err)
				}
			}
			return err
		}
	}
	return nil
}

// ackPost ships one wire chunk through POST /v1/suite?ack=1, resolving
// each job as its row arrives and watching for the peer's end
// acknowledgement — the marker that distinguishes a complete stream
// from a severed one. A peer that sends every row but no
// acknowledgements (one predating the ?ack=1 variant) still resolves
// cleanly: nothing is left pending. On a returned error the
// unacknowledged jobs are left to the caller.
func (c *Client) ackPost(ctx context.Context, ch wireChunk, jobs []engine.Job, ack func(int, engine.Result)) error {
	m := bench.Manifest{Technologies: ch.techs}
	pending := make(map[string]pendingJob, len(ch.entries))
	for _, e := range ch.entries {
		m.Jobs = append(m.Jobs, e.mj)
		pending[e.mj.Name] = e.pj
	}
	body, err := json.Marshal(&m)
	if err != nil {
		return fmt.Errorf("remote %s: encode manifest: %w", c.base, err)
	}
	resp, err := c.post(ctx, "/v1/suite?ack=1", body)
	if err != nil {
		return c.classify(ctx, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return c.statusErr(resp)
	}
	ended := false
	streamErr := scanAckRows(resp.Body,
		func(jr bench.JobReport) bool {
			p, ok := pending[jr.Name]
			if !ok {
				// A row for a job we never sent (or already resolved):
				// ignore it rather than mis-crediting some other job.
				return true
			}
			delete(pending, jr.Name)
			row := jr
			row.Name = p.name // undo any wire-level "#n" deduplication
			ack(p.index, c.rowResult(jobs[p.index].ID, &row))
			return true // scan on to the end ack
		},
		func(a SuiteAck) bool {
			if a.Ack == "end" {
				ended = true
				return false
			}
			return true // "start" (and future kinds) just confirm liveness
		})
	switch {
	case streamErr != nil:
		return c.classify(ctx, fmt.Errorf("remote %s: chunk stream: %w", c.base, streamErr))
	case !ended && len(pending) > 0:
		return c.classify(ctx, fmt.Errorf("remote %s: chunk stream severed with %d jobs unacknowledged: %w",
			c.base, len(pending), engine.ErrUnavailable))
	case len(pending) > 0:
		// The peer signalled a clean end yet skipped rows — a peer-side
		// fault, resolved as backend-level failures so a balancer may
		// re-run them elsewhere.
		missErr := c.classify(ctx, fmt.Errorf("remote %s: peer ended chunk stream with %d jobs unresolved: %w",
			c.base, len(pending), engine.ErrUnavailable))
		for _, p := range pending {
			c.countFailure(missErr)
			ack(p.index, engine.Result{ID: jobs[p.index].ID, Err: missErr, Worker: -1})
		}
	}
	return nil
}

// SuiteAck is one acknowledgement line of the ?ack=1 /v1/suite stream
// variant: "start" carries the accepted job count once the peer accepts
// the chunk, "end" the number of result rows written after the last
// one. The end ack's absence is how a severed stream is told apart from
// a complete one.
type SuiteAck struct {
	Ack  string `json:"ack"`
	Jobs int    `json:"jobs,omitempty"`
	Rows int    `json:"rows,omitempty"`
}

// scanAckRows consumes the acknowledged NDJSON stream variant: result
// rows go to onRow, acknowledgement rows to onAck, and either handler
// returning false stops the scan cleanly. The row kind is detected by
// the "ack" field, which a JobReport never carries. Blank lines are
// skipped; a malformed or over-long line stops the scan with an error.
// This is the client's one /v1/suite row parser (a plain stream is one
// without ack rows), extracted so it can be fuzzed directly against
// arbitrary peer bytes.
func scanAckRows(r io.Reader, onRow func(bench.JobReport) bool, onAck func(SuiteAck) bool) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxRow)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var probe struct {
			Ack string `json:"ack"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return fmt.Errorf("malformed NDJSON row %.80q: %w", line, err)
		}
		if probe.Ack != "" {
			var a SuiteAck
			if err := json.Unmarshal(line, &a); err != nil {
				return fmt.Errorf("malformed ack row %.80q: %w", line, err)
			}
			if !onAck(a) {
				return nil
			}
			continue
		}
		var jr bench.JobReport
		if err := json.Unmarshal(line, &jr); err != nil {
			return fmt.Errorf("malformed NDJSON row %.80q: %w", line, err)
		}
		if !onRow(jr) {
			return nil
		}
	}
	return sc.Err()
}

// Capacity implements engine.CapacityReporter with a GET /v1/capacity
// scrape — the lightweight fast path the balancer's probe loop folds
// into chunk sizing — falling back to deriving the snapshot from
// /v1/stats for peers that predate the endpoint.
func (c *Client) Capacity(ctx context.Context) (engine.Capacity, error) {
	if c.closed.Load() {
		return engine.Capacity{}, engine.ErrClosed
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/capacity", nil)
	if err != nil {
		return engine.Capacity{}, fmt.Errorf("remote %s: capacity: %w", c.base, err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return engine.Capacity{}, fmt.Errorf("remote %s: capacity: %w: %w", c.base, engine.ErrUnavailable, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, io.LimitReader(resp.Body, maxRow))
		st, err := c.PeerStats(ctx)
		if err != nil {
			return engine.Capacity{}, err
		}
		return engine.CapacityFromStats(st), nil
	}
	if resp.StatusCode != http.StatusOK {
		return engine.Capacity{}, fmt.Errorf("remote %s: capacity: %w: %s", c.base, engine.ErrUnavailable, resp.Status)
	}
	var snap engine.Capacity
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxRow)).Decode(&snap); err != nil {
		return engine.Capacity{}, fmt.Errorf("remote %s: capacity: decode: %w", c.base, err)
	}
	return snap, nil
}

// wireJobOf renders one job as the manifest entry shipped to the peer:
// the spec's entry, defaulting the name to the job ID and forwarding an
// engine-level per-job timeout the spec did not already carry.
func wireJobOf(j engine.Job, spec *bench.JobSpec) bench.ManifestJob {
	mj := spec.Job
	if mj.Name == "" {
		mj.Name = j.ID
	}
	if mj.TimeoutMS == 0 && j.Timeout > 0 {
		mj.TimeoutMS = j.Timeout.Milliseconds()
	}
	return mj
}

// rowResult converts one peer report row into an engine result,
// preserving the peer's elapsed time and worker index.
func (c *Client) rowResult(id string, jr *bench.JobReport) engine.Result {
	r := engine.Result{
		ID:      id,
		Value:   jr,
		Elapsed: time.Duration(jr.ElapsedMS * float64(time.Millisecond)),
		Worker:  jr.Worker,
	}
	if jr.OK {
		c.completed.Add(1)
		return r
	}
	c.failed.Add(1)
	// Re-type the classified failures so errors.Is works the same
	// whether the job failed in-process or in a peer's NDJSON row —
	// "unavailable" in particular keeps failover composing across
	// serve→serve tiers (an upper Balancer re-runs the job elsewhere).
	switch jr.ErrorKind {
	case "closed":
		r.Err = fmt.Errorf("remote %s: job %q: %w: %s", c.base, jr.Name, engine.ErrClosed, jr.Error)
	case "timeout":
		r.Err = fmt.Errorf("remote %s: job %q: %w: %s", c.base, jr.Name, engine.ErrTimeout, jr.Error)
	case "unavailable":
		r.Err = fmt.Errorf("remote %s: job %q: %w: %s", c.base, jr.Name, engine.ErrUnavailable, jr.Error)
	default:
		r.Err = fmt.Errorf("remote %s: job %q: %s", c.base, jr.Name, jr.Error)
	}
	return r
}

// countFailure books one unresolved job as canceled (the caller's
// context ended) or failed (everything else), keeping LocalStats
// balanced the way engine.Stats documents.
func (c *Client) countFailure(err error) {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		c.canceled.Add(1)
	} else {
		c.failed.Add(1)
	}
}

// classify folds the caller's context ending into the context's own
// error; anything else is a peer failure, wrapped with
// engine.ErrUnavailable (unless already carrying a typed verdict) so a
// Balancer knows the job itself never got a verdict and may be re-run
// on another backend.
func (c *Client) classify(ctx context.Context, err error) error {
	if ctxErr := ctx.Err(); ctxErr != nil {
		return fmt.Errorf("remote %s: %w", c.base, ctxErr)
	}
	if errors.Is(err, engine.ErrClosed) || errors.Is(err, engine.ErrTimeout) ||
		errors.Is(err, engine.ErrUnavailable) || errors.Is(err, ErrNotRemotable) {
		return err
	}
	return fmt.Errorf("%w: %w", engine.ErrUnavailable, err)
}

// statusErr renders a non-200 peer response, unwrapping the typed
// conditions the serve layer maps: 503 (peer draining/closed, or —
// when the body's error_kind says "unavailable" — a peer whose own
// backends are unreachable) and 504 (peer-side evaluation timeout).
// Distinguishing the two 503 kinds keeps errors.Is answers identical
// across serve→serve tiers.
func (c *Client) statusErr(resp *http.Response) error {
	var body struct {
		Error     string `json:"error"`
		ErrorKind string `json:"error_kind"`
	}
	json.NewDecoder(io.LimitReader(resp.Body, maxRow)).Decode(&body)
	msg := body.Error
	if msg == "" {
		msg = resp.Status
	}
	switch {
	case resp.StatusCode == http.StatusServiceUnavailable && body.ErrorKind == "unavailable":
		return fmt.Errorf("remote %s: %w: %s", c.base, engine.ErrUnavailable, msg)
	case resp.StatusCode == http.StatusServiceUnavailable:
		return fmt.Errorf("remote %s: %w: %s", c.base, engine.ErrClosed, msg)
	case resp.StatusCode == http.StatusGatewayTimeout:
		return fmt.Errorf("remote %s: %w: %s", c.base, engine.ErrTimeout, msg)
	default:
		return fmt.Errorf("remote %s: peer returned %d: %s", c.base, resp.StatusCode, msg)
	}
}

// post issues one POST, re-dialling on connect errors up to the retry
// budget with exponential backoff. Only errors raised before the peer
// accepted the connection are retried — once bytes may have flowed, the
// caller owns the failure (re-sending could double-evaluate).
func (c *Client) post(ctx context.Context, path string, body []byte) (*http.Response, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
		if err != nil {
			return nil, fmt.Errorf("remote %s: %w", c.base, err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := c.hc.Do(req)
		if err == nil {
			return resp, nil
		}
		lastErr = fmt.Errorf("remote %s: %w", c.base, err)
		if attempt >= c.retries || !isConnectError(err) || ctx.Err() != nil {
			return nil, lastErr
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("remote %s: %w", c.base, ctx.Err())
		case <-time.After(c.retryDelay << attempt):
		}
	}
}

// isConnectError reports whether err happened while dialling — the peer
// was down or unreachable, the retryable window where no request bytes
// were accepted.
func isConnectError(err error) bool {
	var op *net.OpError
	if errors.As(err, &op) && op.Op == "dial" {
		return true
	}
	return errors.Is(err, syscall.ECONNREFUSED)
}

// FleetFlags registers the fleet flags art9-batch and art9-serve share
// on fs — one flag per BackendConfig setting, -shards defaulting to
// defaultShards — and returns the function that resolves them once fs
// is parsed. Resolving splits the comma-separated URL lists, fills an
// unset -cache-epoch from ART9_CACHE_EPOCH, drops an untouched -shards
// default under autoscaling, and vets the result with
// ValidateFleetFlags. The CLIs report the warning and own JobTimeout,
// whose flag names differ.
func FleetFlags(fs *flag.FlagSet, defaultShards int) func() (BackendConfig, string, error) {
	var cfg BackendConfig
	var peers, standbyPeers, cachePeers string
	fs.IntVar(&cfg.Shards, "shards", defaultShards, "local engine shards (0: one, or none when -peers is set)")
	fs.IntVar(&cfg.Workers, "workers", 0, "worker-pool size per local shard (0: GOMAXPROCS)")
	fs.StringVar(&peers, "peers", "", "comma-separated base URLs of art9-serve instances to fan jobs out to")
	fs.BoolVar(&cfg.Failover, "failover", false, "put the health-aware Balancer front (job-level failover) before a lone backend too; more than one backend always gets it")
	fs.DurationVar(&cfg.HealthInterval, "health-interval", 0, "Balancer health-probe period (0: 2s; negative: probes off); needs a Balancer front")
	fs.IntVar(&cfg.MaxRetries, "max-retries", 0, "Balancer failover budget per job (0: 2; negative: no retries); needs a Balancer front")
	fs.IntVar(&cfg.Chunk, "chunk", 0, "Balancer chunk size: dispatch up to N jobs per backend as one acknowledged suite stream (0: per-job); needs a Balancer front")
	fs.IntVar(&cfg.AutoscaleMin, "autoscale-min", 0, "elastic pool floor: minimum local shards (0 with -autoscale-max: 1)")
	fs.IntVar(&cfg.AutoscaleMax, "autoscale-max", 0, "elastic pool ceiling: maximum local shards (0: autoscaling off)")
	fs.StringVar(&standbyPeers, "standby-peers", "", "comma-separated art9-serve base URLs dialed only when the elastic pool's local ceiling is exhausted")
	fs.Float64Var(&cfg.ScaleUpThreshold, "scale-up", 0, "utilization at which the elastic pool grows (0: 0.8)")
	fs.Float64Var(&cfg.ScaleDownThreshold, "scale-down", 0, "utilization below which the elastic pool shrinks (0: 0.25)")
	fs.DurationVar(&cfg.ScaleCooldown, "scale-cooldown", 0, "minimum gap between scale events (0: 2s; negative: none)")
	fs.DurationVar(&cfg.ScaleInterval, "scale-interval", 0, "scale-evaluation period (0: 1s)")
	fs.BoolVar(&cfg.Cache, "cache", false, "consult the fleet-wide result cache before evaluating each job (hits replay with worker -1; art9-serve also answers /v1/cache)")
	fs.StringVar(&cachePeers, "cache-peers", "", "comma-separated art9-serve base URLs whose /v1/cache tier answers local misses and receives local fills")
	fs.Int64Var(&cfg.CacheMaxBytes, "cache-max-bytes", 0, "local result-cache bound in bytes (0: 64 MiB)")
	fs.Uint64Var(&cfg.CacheEpoch, "cache-epoch", 0, "cache invalidation generation: exchanges with peers on another epoch are standing misses (default: ART9_CACHE_EPOCH, else 0)")
	return func() (BackendConfig, string, error) {
		set := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
		out := cfg
		out.Peers = splitPeerList(peers)
		out.StandbyPeers = splitPeerList(standbyPeers)
		out.CachePeers = splitPeerList(cachePeers)
		// ART9_CACHE_EPOCH is the fleet-wide invalidation lever — export
		// it once and restart every member. An explicit flag wins; the
		// variable is ignored while -cache is off, so a site-wide export
		// cannot trip the orphaned-flag rule; a malformed value leaves
		// the epoch at 0 rather than blocking startup.
		if out.Cache && !set["cache-epoch"] {
			if n, err := strconv.ParseUint(os.Getenv("ART9_CACHE_EPOCH"), 10, 64); err == nil {
				out.CacheEpoch = n
			}
		}
		// A -shards default describes the fixed topologies only; an
		// elastic pool owns its shard count, so an untouched default must
		// not trip the -shards/-autoscale conflict rule.
		if (out.AutoscaleMin != 0 || out.AutoscaleMax != 0) && !set["shards"] {
			out.Shards = 0
		}
		warn, err := ValidateFleetFlags(out)
		return out, warn, err
	}
}

// splitPeerList parses a comma-separated peer-URL flag value, dropping
// blanks so trailing commas are harmless.
func splitPeerList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// optionNames maps each fleet-configuration knob to the name a user
// knows it by, so the one validation rule set renders identical
// diagnostics for library callers (functional options) and CLI
// operators (flags).
type optionNames struct {
	failover, chunk, maxRetries, healthInterval   string
	autoscale, standbyPeers, shards, peers        string
	scaleThresholds, scaleCooldown, scaleInterval string
	cache, cachePeers, cacheMaxBytes, cacheEpoch  string
}

var libraryNames = optionNames{
	failover: "WithFailover", chunk: "WithChunk",
	maxRetries: "WithMaxRetries", healthInterval: "WithHealthInterval",
	autoscale: "WithAutoscale", standbyPeers: "WithStandbyPeers",
	shards: "WithShards", peers: "WithPeers",
	scaleThresholds: "WithScaleThresholds",
	scaleCooldown:   "WithScaleCooldown", scaleInterval: "WithScaleInterval",
	cache: "WithResultCache", cachePeers: "WithCachePeers",
	cacheMaxBytes: "WithCacheMaxBytes", cacheEpoch: "WithCacheEpoch",
}

var flagNames = optionNames{
	failover: "-failover", chunk: "-chunk",
	maxRetries: "-max-retries", healthInterval: "-health-interval",
	autoscale: "-autoscale-min/-autoscale-max", standbyPeers: "-standby-peers",
	shards: "-shards", peers: "-peers",
	scaleThresholds: "-scale-up/-scale-down",
	scaleCooldown:   "-scale-cooldown", scaleInterval: "-scale-interval",
	cache: "-cache", cachePeers: "-cache-peers",
	cacheMaxBytes: "-cache-max-bytes", cacheEpoch: "-cache-epoch",
}

// ValidateConfig vets a BackendConfig's option coherence with library
// naming (WithFailover, WithChunk, ...). NewBackendWith applies it, so
// art9.New and serve.New reject incoherent combinations with an error
// wrapping engine.ErrInvalidOptions instead of silently ignoring
// options. The warning (non-fatal advice, e.g. failover over a single
// backend) is surfaced by the CLIs and ignored by the library.
func ValidateConfig(cfg BackendConfig) (warning string, err error) {
	return validateTopology(cfg, libraryNames)
}

// ValidateFleetFlags vets the same rule set with CLI flag naming — the
// one validation behind both art9-batch and art9-serve, applied by
// FleetFlags once the flags are parsed.
func ValidateFleetFlags(cfg BackendConfig) (warning string, err error) {
	return validateTopology(cfg, flagNames)
}

// validateTopology is the one rule set: options that only tune an
// absent front (failover tuning without a Balancer front, scale tuning
// or standby peers without Autoscale) error out, since silently ignoring
// them would leave the user believing they are in effect; incoherent
// autoscale bounds and thresholds error out; topologies that merely
// waste a front (failover or autoscale with nothing to move jobs
// between) warn. Hard errors wrap engine.ErrInvalidOptions.
func validateTopology(cfg BackendConfig, n optionNames) (warning string, err error) {
	invalid := func(format string, args ...any) error {
		return fmt.Errorf(format+": %w", append(args, engine.ErrInvalidOptions)...)
	}
	if cfg.Shards < 0 {
		return "", invalid("%s must be >= 0 (got %d)", n.shards, cfg.Shards)
	}
	if cfg.Chunk < 0 {
		return "", invalid("%s must be >= 0 (got %d)", n.chunk, cfg.Chunk)
	}
	if cfg.CacheMaxBytes < 0 {
		return "", invalid("%s must be >= 0 (got %d)", n.cacheMaxBytes, cfg.CacheMaxBytes)
	}
	if !cfg.Cache && cfg.CacheStore == nil {
		var orphaned []string
		if len(cfg.CachePeers) > 0 {
			orphaned = append(orphaned, n.cachePeers)
		}
		if cfg.CacheMaxBytes != 0 {
			orphaned = append(orphaned, n.cacheMaxBytes)
		}
		if cfg.CacheEpoch != 0 {
			orphaned = append(orphaned, n.cacheEpoch)
		}
		if len(orphaned) > 0 {
			return "", invalid("%s: only meaningful with %s (otherwise silently ignored); add %s or drop it",
				strings.Join(orphaned, ", "), n.cache, n.cache)
		}
	}
	autoscale := cfg.AutoscaleMin != 0 || cfg.AutoscaleMax != 0
	if !balancerFront(cfg) {
		var orphaned []string
		if cfg.Chunk > 0 {
			orphaned = append(orphaned, n.chunk)
		}
		if cfg.MaxRetries != 0 {
			orphaned = append(orphaned, n.maxRetries)
		}
		if cfg.HealthInterval != 0 {
			orphaned = append(orphaned, n.healthInterval)
		}
		if len(orphaned) > 0 {
			return "", invalid("%s: only meaningful with a Balancer front (otherwise silently ignored); add %s or a second backend, or drop it",
				strings.Join(orphaned, ", "), n.failover)
		}
	}
	if !autoscale {
		var orphaned []string
		if len(cfg.StandbyPeers) > 0 {
			orphaned = append(orphaned, n.standbyPeers)
		}
		if cfg.ScaleUpThreshold != 0 || cfg.ScaleDownThreshold != 0 {
			orphaned = append(orphaned, n.scaleThresholds)
		}
		if cfg.ScaleCooldown != 0 {
			orphaned = append(orphaned, n.scaleCooldown)
		}
		if cfg.ScaleInterval != 0 {
			orphaned = append(orphaned, n.scaleInterval)
		}
		if len(orphaned) > 0 {
			return "", invalid("%s: only meaningful with %s (otherwise silently ignored); add %s or drop it",
				strings.Join(orphaned, ", "), n.autoscale, n.autoscale)
		}
	}
	if autoscale {
		if cfg.AutoscaleMin < 0 || cfg.AutoscaleMax < 0 {
			return "", invalid("%s bounds must be >= 0 (got min %d, max %d)",
				n.autoscale, cfg.AutoscaleMin, cfg.AutoscaleMax)
		}
		if cfg.AutoscaleMax < cfg.AutoscaleMin {
			return "", invalid("%s bounds inverted: max %d < min %d",
				n.autoscale, cfg.AutoscaleMax, cfg.AutoscaleMin)
		}
		// The autoscaler owns its topology — an elastic local pool plus
		// standby peers. Fixed shard counts, fixed peer sets, and a
		// second dispatch front cannot compose with it coherently.
		if cfg.Failover {
			return "", invalid("%s and %s are both dispatch fronts; use %s for an elastic pool or %s for a fixed fleet",
				n.autoscale, n.failover, n.autoscale, n.failover)
		}
		if cfg.Shards > 0 {
			return "", invalid("%s fixes the shard count, which contradicts %s; drop %s (the pool floats between the bounds)",
				n.shards, n.autoscale, n.shards)
		}
		if len(cfg.Peers) > 0 {
			return "", invalid("%s is a fixed backend set, which contradicts %s; list elastic peers with %s instead",
				n.peers, n.autoscale, n.standbyPeers)
		}
		up, down := cfg.ScaleUpThreshold, cfg.ScaleDownThreshold
		if up < 0 || up > 1 || down < 0 || down >= 1 {
			return "", invalid("%s thresholds must be within [0,1] with down < 1 (got up %g, down %g)",
				n.scaleThresholds, up, down)
		}
		if up != 0 && down != 0 && down >= up {
			return "", invalid("%s scale-down threshold %g must be below the scale-up threshold %g (hysteresis needs a gap)",
				n.scaleThresholds, down, up)
		}
		if cfg.AutoscaleMin == cfg.AutoscaleMax && len(cfg.StandbyPeers) == 0 {
			return fmt.Sprintf("%s bounds pin the pool at %d with no standby peers; nothing will ever scale",
				n.autoscale, cfg.AutoscaleMax), nil
		}
		return "", nil
	}
	if cfg.Failover && localShards(cfg)+len(cfg.Peers) <= 1 {
		return fmt.Sprintf("%s over a single backend has nothing to fail over to; add %s or %s",
			n.failover, n.peers, n.shards), nil
	}
	return "", nil
}

// localShards resolves a fixed topology's local engine count: Shards
// when positive, otherwise none beside peers and the implicit single
// local engine without them.
func localShards(cfg BackendConfig) int {
	switch {
	case cfg.Shards > 0:
		return cfg.Shards
	case len(cfg.Peers) > 0:
		return 0
	}
	return 1
}

// balancerFront is the one rule for whether an engine.Balancer fronts
// a fixed topology: with Failover, over more than one backend, and over
// a lone peer when the result cache is on (only a local engine can hold
// the cache itself). Any other lone backend is returned bare. The
// autoscaler is its own front, so an autoscaled topology never gets
// one — unless Failover asks for it, which validation then rejects.
func balancerFront(cfg BackendConfig) bool {
	if cfg.Failover {
		return true
	}
	if cfg.AutoscaleMin != 0 || cfg.AutoscaleMax != 0 {
		return false
	}
	shards := localShards(cfg)
	return shards+len(cfg.Peers) > 1 || (shards == 0 && (cfg.Cache || cfg.CacheStore != nil))
}

// BackendConfig is the one description of a backend topology: art9.New's
// options and FleetFlags write into it, serve.Config is an alias of it,
// and NewBackendWith builds it — so the composition rules and each
// setting's documentation live in one place.
type BackendConfig struct {
	// Shards is the number of local engines (0: one, unless Peers makes
	// a proxy-only topology meaningful).
	Shards int
	// Workers is each local shard's pool size (0 selects GOMAXPROCS),
	// and JobTimeout the bound on each local job that sets none of its
	// own (0: no deadline). A shard's dispatch queue holds 2×Workers.
	Workers    int
	JobTimeout time.Duration
	// Peers lists art9-serve base URLs, one remote Client each.
	Peers []string
	// Failover puts the health-aware engine.Balancer (least-loaded
	// dispatch, probe loop, job-level failover) in front of a lone
	// backend too. More than one backend, or a lone peer with the
	// result cache on, always gets the Balancer front.
	Failover bool
	// HealthInterval and MaxRetries tune the Balancer (engine defaults
	// apply at zero); they need a Balancer front.
	HealthInterval time.Duration
	MaxRetries     int
	// Chunk makes the Balancer dispatch in chunks of up to this many
	// jobs — remote backends receive a chunk as one acknowledged
	// /v1/suite stream instead of per-job /v1/eval requests, sized down
	// by scraped live capacity. 0 keeps per-job placement; needs a
	// Balancer front.
	Chunk int
	// AutoscaleMin and AutoscaleMax, when either is non-zero, select
	// the elastic engine.Autoscaler front instead of a fixed topology:
	// the local shard count floats between the bounds (min 0 selects 1)
	// driven by queue depth and utilization. Incompatible with Shards,
	// Peers and Failover — the autoscaler owns its topology.
	AutoscaleMin, AutoscaleMax int
	// StandbyPeers lists art9-serve base URLs the autoscaler dials only
	// when the local bound is exhausted and retires first when load
	// drops. URLs are validated at construction; connections happen at
	// scale-up. Requires autoscaling.
	StandbyPeers []string
	// ScaleUpThreshold and ScaleDownThreshold are the hysteresis bounds
	// on pool utilization (0 selects 0.8 and 0.25); ScaleCooldown is
	// the minimum gap between scale events (0 selects 2s, negative
	// none) and ScaleInterval the evaluation period (0 selects 1s,
	// negative manual-only). All require autoscaling.
	ScaleUpThreshold, ScaleDownThreshold float64
	ScaleCooldown, ScaleInterval         time.Duration
	// Cache enables the fleet-wide result cache: the dispatch front
	// consults a content-addressed store before placing a job, so a hit
	// short-circuits evaluation entirely (Worker -1). The store is a
	// bounded local LRU (CacheMaxBytes, 0 selects the rescache default)
	// fronting one /v1/cache client per CachePeers URL. CachePeers and
	// CacheMaxBytes require Cache.
	Cache         bool
	CacheMaxBytes int64
	CachePeers    []string
	// CacheEpoch is the fleet-wide invalidation generation: it is
	// stamped onto every /v1/cache exchange and folded into the tier,
	// so bumping it abandons every previously cached row without
	// touching peers still on the old generation (their rows become
	// standing misses). Requires Cache.
	CacheEpoch uint64
	// CacheStore substitutes a pre-built store (serve passes its own
	// tier here so the HTTP endpoints and the dispatch path share one
	// cache); it implies Cache and ignores CacheMaxBytes/CachePeers/
	// CacheEpoch.
	CacheStore rescache.Cache
}

// NewBackendWith assembles the backend topology cfg describes — local
// engines, one Client per peer URL, and the Balancer or Autoscaler
// front — shared by art9.New, serve.New and art9-batch. Incoherent
// configurations are rejected through ValidateConfig with an error
// wrapping engine.ErrInvalidOptions.
func NewBackendWith(cfg BackendConfig) (engine.Evaluator, error) {
	if _, err := ValidateConfig(cfg); err != nil {
		return nil, err
	}
	// The result cache attaches to the dispatch FRONT only — the
	// autoscaler or balancer when one fronts the topology, otherwise
	// the lone local engine — so one lookup answers one job and hit/miss
	// counters are not doubled by inner layers re-consulting the store.
	var resultCache engine.ResultCache
	if cfg.Cache || cfg.CacheStore != nil {
		store := cfg.CacheStore
		if store == nil {
			tier, err := NewResultCache(cfg)
			if err != nil {
				return nil, err
			}
			store = tier
		}
		resultCache = bench.NewResultCache(store)
	}
	opts := engine.Options{Workers: cfg.Workers, JobTimeout: cfg.JobTimeout}
	if cfg.AutoscaleMin != 0 || cfg.AutoscaleMax != 0 {
		var standbys []engine.StandbyBackend
		for _, p := range cfg.StandbyPeers {
			p := p
			// Validate eagerly so a misconfigured fleet fails at
			// construction, not at the first burst; the probe client is
			// discarded and each recruitment dials fresh.
			probe, err := New(p)
			if err != nil {
				return nil, err
			}
			// The probe never carried a job, so its close verdict is
			// uninteresting by construction.
			_ = probe.Close()
			standbys = append(standbys, engine.StandbyBackend{
				Name: p,
				Dial: func() (engine.Evaluator, error) { return New(p) },
			})
		}
		return engine.NewAutoscaler(engine.AutoscalerOptions{
			Min:           cfg.AutoscaleMin,
			Max:           cfg.AutoscaleMax,
			Engine:        opts,
			Standby:       standbys,
			UpThreshold:   cfg.ScaleUpThreshold,
			DownThreshold: cfg.ScaleDownThreshold,
			Cooldown:      cfg.ScaleCooldown,
			Interval:      cfg.ScaleInterval,
			Cache:         resultCache,
		}), nil
	}
	shards, front := localShards(cfg), balancerFront(cfg)
	if !front {
		// A lone local engine is its own front and holds the cache.
		opts.Cache = resultCache
	}
	var backends []engine.Evaluator
	for i := 0; i < shards; i++ {
		backends = append(backends, engine.New(opts))
	}
	for _, p := range cfg.Peers {
		client, err := New(p)
		if err != nil {
			for _, b := range backends {
				// Construction failed before any job was submitted;
				// the dial error is the one worth returning.
				_ = b.Close()
			}
			return nil, err
		}
		backends = append(backends, client)
	}
	if !front {
		return backends[0], nil
	}
	return engine.NewBalancer(engine.BalancerOptions{
		MaxRetries:     cfg.MaxRetries,
		HealthInterval: cfg.HealthInterval,
		Chunk:          cfg.Chunk,
		Cache:          resultCache,
	}, backends...), nil
}
