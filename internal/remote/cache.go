package remote

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/rescache"
)

// The /v1/cache wire protocol between serve instances:
//
//	POST /v1/cache/lookup  {"keys":["<hex>", ...], "epoch":E}
//	  -> NDJSON rows {"key":"<hex>","found":true,"value":{...},"epoch":E}
//	POST /v1/cache/fill    {"entries":[{"key":"<hex>","value":{...}}, ...], "epoch":E}
//	  -> {"stored":N,"rejected":M,"epoch":E}
//
// Both sides cap a request at MaxCacheKeys keys/entries and a value at
// MaxCacheValue bytes, so one row always fits a client's NDJSON line
// buffer; a peer answers lookups from its LOCAL store only, so two
// peers pointed at each other cannot loop a miss.
//
// Every exchange carries the sender's cache epoch and every reply row
// the server's. A disagreement — including against a peer predating
// the field, whose epoch reads as 0 — is a standing miss on lookup and
// a rejected entry on fill, never an error, so a mixed-epoch (or
// mixed-version) fleet degrades to computing instead of replaying
// another generation's rows.
const (
	MaxCacheKeys  = 256
	MaxCacheValue = maxRow
)

// cacheOpTimeout bounds one cache round-trip. The cache is an
// accelerator on the dispatch path: a slow peer must degrade to a miss
// long before it costs what the evaluation it was saving would.
const cacheOpTimeout = 2 * time.Second

// CacheLookupRequest is the body of POST /v1/cache/lookup.
type CacheLookupRequest struct {
	Keys  []string `json:"keys"`
	Epoch uint64   `json:"epoch,omitempty"`
}

// CacheRow is one NDJSON reply row of /v1/cache/lookup. Value is kept
// raw: the cache stores opaque bytes and only internal/bench knows the
// row codec. Epoch is the answering server's generation; a found row
// from another epoch is discarded client-side.
type CacheRow struct {
	Key   string          `json:"key"`
	Found bool            `json:"found"`
	Value json.RawMessage `json:"value,omitempty"`
	Epoch uint64          `json:"epoch,omitempty"`
}

// CacheFillEntry is one entry of POST /v1/cache/fill.
type CacheFillEntry struct {
	Key   string          `json:"key"`
	Value json.RawMessage `json:"value"`
}

// CacheFillRequest is the body of POST /v1/cache/fill.
type CacheFillRequest struct {
	Entries []CacheFillEntry `json:"entries"`
	Epoch   uint64           `json:"epoch,omitempty"`
}

// CacheFillReply acknowledges a fill: entries stored, entries refused
// over an epoch disagreement, and the server's own epoch.
type CacheFillReply struct {
	Stored   int    `json:"stored"`
	Rejected int    `json:"rejected,omitempty"`
	Epoch    uint64 `json:"epoch,omitempty"`
}

// scanCacheRows consumes the NDJSON reply of /v1/cache/lookup, invoking
// fn per row until the stream ends or fn returns false. Blank lines are
// skipped; a line that is not a JSON cache row stops the scan with an
// error, because a mis-parsed row could replay the wrong value under a
// caller's key.
func scanCacheRows(r io.Reader, fn func(CacheRow) bool) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxRow)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var row CacheRow
		if err := json.Unmarshal(line, &row); err != nil {
			return fmt.Errorf("malformed NDJSON cache row %.80q: %w", line, err)
		}
		if !fn(row) {
			return nil
		}
	}
	return sc.Err()
}

// CacheClient is the remote tier of the result cache: a rescache.Cache
// whose store is another art9-serve instance's /v1/cache endpoints.
// Every failure — dial, status, malformed row — degrades to a miss and
// a PeerErrors tick, never an error: a dead cache peer means compute,
// not failure.
type CacheClient struct {
	base    string
	hc      *http.Client
	timeout time.Duration
	epoch   uint64

	peerHits     atomic.Uint64
	peerMisses   atomic.Uint64
	peerErrors   atomic.Uint64
	epochRejects atomic.Uint64
}

var (
	_ rescache.Cache       = (*CacheClient)(nil)
	_ rescache.BatchFiller = (*CacheClient)(nil)
)

// NewCacheClient builds a cache client for one art9-serve base URL at
// epoch 0, validated eagerly like New so a misconfigured fleet fails
// at construction, not at the first lookup.
func NewCacheClient(baseURL string) (*CacheClient, error) {
	return NewCacheClientWith(baseURL, 0)
}

// NewCacheClientWith builds a cache client pinned to one cache epoch:
// every exchange is stamped with it and every reply row from a
// different epoch is discarded as a standing miss.
func NewCacheClientWith(baseURL string, epoch uint64) (*CacheClient, error) {
	u, err := url.Parse(strings.TrimSpace(baseURL))
	if err != nil {
		return nil, fmt.Errorf("remote: cache peer url %q: %w", baseURL, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("remote: cache peer url %q: scheme must be http or https", baseURL)
	}
	if u.Host == "" {
		return nil, fmt.Errorf("remote: cache peer url %q: missing host", baseURL)
	}
	return &CacheClient{
		base:    strings.TrimRight(u.String(), "/"),
		hc:      &http.Client{},
		timeout: cacheOpTimeout,
		epoch:   epoch,
	}, nil
}

// Peer returns the normalized base URL this cache client queries.
func (c *CacheClient) Peer() string { return c.base }

// Get looks key up on the peer. Any transport or protocol failure
// degrades to a miss.
func (c *CacheClient) Get(ctx context.Context, key string) ([]byte, bool) {
	body, err := json.Marshal(CacheLookupRequest{Keys: []string{key}, Epoch: c.epoch})
	if err != nil {
		c.peerErrors.Add(1)
		return nil, false
	}
	resp, err := c.post(ctx, "/v1/cache/lookup", body)
	if err != nil {
		c.peerErrors.Add(1)
		return nil, false
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, maxRow))
		resp.Body.Close()
	}()
	if resp.StatusCode == http.StatusNotFound {
		// A peer predating the cache protocol: a standing miss.
		c.peerMisses.Add(1)
		return nil, false
	}
	if resp.StatusCode != http.StatusOK {
		c.peerErrors.Add(1)
		return nil, false
	}
	var val []byte
	found, rejected := false, false
	err = scanCacheRows(io.LimitReader(resp.Body, maxRow+1), func(r CacheRow) bool {
		if r.Key == key && r.Found && len(r.Value) > 0 {
			// A found row from another generation — including a
			// pre-epoch peer, whose rows read as epoch 0 — is a
			// standing miss: never replay across epochs.
			if r.Epoch != c.epoch {
				rejected = true
				return false
			}
			val = append([]byte(nil), r.Value...)
			found = true
			return false
		}
		return true
	})
	if err != nil {
		c.peerErrors.Add(1)
		return nil, false
	}
	if rejected {
		c.epochRejects.Add(1)
		c.peerMisses.Add(1)
		return nil, false
	}
	if !found {
		c.peerMisses.Add(1)
		return nil, false
	}
	c.peerHits.Add(1)
	return val, true
}

// Put fills key on the peer, best-effort. Values that are not valid
// JSON are dropped (the wire carries JSON rows), as is anything over
// the per-row bound.
func (c *CacheClient) Put(ctx context.Context, key string, val []byte) {
	c.PutBatch(ctx, []rescache.Entry{{Key: key, Val: val}})
}

// PutBatch fills many entries in as few wire rounds as possible — one
// POST per MaxCacheKeys chunk — which is how the write-behind
// worker drains its queue. Entries the wire cannot carry (empty,
// oversized, or non-JSON values) are skipped; a fill the server
// rejects over an epoch disagreement is counted, not retried.
func (c *CacheClient) PutBatch(ctx context.Context, entries []rescache.Entry) {
	wire := make([]CacheFillEntry, 0, len(entries))
	for _, e := range entries {
		if len(e.Val) == 0 || len(e.Val) > MaxCacheValue || !json.Valid(e.Val) {
			continue
		}
		wire = append(wire, CacheFillEntry{Key: e.Key, Value: json.RawMessage(e.Val)})
	}
	for len(wire) > 0 {
		chunk := wire
		if len(chunk) > MaxCacheKeys {
			chunk = chunk[:MaxCacheKeys]
		}
		wire = wire[len(chunk):]
		c.fill(ctx, chunk)
	}
}

// fill issues one /v1/cache/fill round for a bounded chunk.
func (c *CacheClient) fill(ctx context.Context, chunk []CacheFillEntry) {
	body, err := json.Marshal(CacheFillRequest{Entries: chunk, Epoch: c.epoch})
	if err != nil {
		c.peerErrors.Add(1)
		return
	}
	resp, err := c.post(ctx, "/v1/cache/fill", body)
	if err != nil {
		c.peerErrors.Add(1)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, io.LimitReader(resp.Body, maxRow))
		return
	}
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, maxRow))
		c.peerErrors.Add(1)
		return
	}
	var reply CacheFillReply
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxRow)).Decode(&reply); err == nil {
		if reply.Rejected > 0 {
			c.epochRejects.Add(uint64(reply.Rejected))
		}
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, maxRow))
}

// Epoch returns the cache epoch this client stamps onto every
// exchange — the rescache.Epoched hook the Tiered store consults.
func (c *CacheClient) Epoch() uint64 { return c.epoch }

// Stats reports the remote-tier counters; occupancy lives on the peer.
func (c *CacheClient) Stats() rescache.Stats {
	return rescache.Stats{
		PeerHits:     c.peerHits.Load(),
		PeerMisses:   c.peerMisses.Load(),
		PeerErrors:   c.peerErrors.Load(),
		EpochRejects: c.epochRejects.Load(),
	}
}

// post issues one cache POST bounded by the per-op timeout — no
// redials: a cache round-trip that needs a retry already lost its race
// against just computing the job.
func (c *CacheClient) post(ctx context.Context, path string, body []byte) (*http.Response, error) {
	ctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.hc.Do(req)
}

// NewResultCache assembles the per-process result-cache tier cfg's
// cache settings select: a bounded local LRU (CacheMaxBytes; 0 selects
// rescache.DefaultMaxBytes) fronting one CacheClient per CachePeers URL,
// composed behind the singleflight Tiered store at CacheEpoch. With no
// peers the tier is local-only but keeps the same Stats shape.
func NewResultCache(cfg BackendConfig) (*rescache.Tiered, error) {
	var peers []rescache.Cache
	for _, p := range cfg.CachePeers {
		cc, err := NewCacheClientWith(p, cfg.CacheEpoch)
		if err != nil {
			return nil, err
		}
		peers = append(peers, cc)
	}
	return rescache.NewTieredWith(rescache.TieredConfig{
		Local: rescache.NewLRU(cfg.CacheMaxBytes, 0),
		Peers: peers,
		Epoch: cfg.CacheEpoch,
	}), nil
}
