package main

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/remote"
)

// fakePeers renders n placeholder peer URLs — validation only counts
// them, so the hosts never resolve.
func fakePeers(n int) []string {
	urls := make([]string, n)
	for i := range urls {
		urls[i] = "http://peer.invalid:9009"
	}
	return urls
}

// TestValidateFleetFlags pins the CLI flag-validation contract: failover
// tuning flags without a Balancer front (-failover, or more than one
// backend) are an error naming the flags (never a silent no-op), autoscale tuning without -autoscale-max likewise,
// -failover over a single backend warns, and well-formed topologies
// pass clean. Every hard error wraps engine.ErrInvalidOptions — the
// same typed error art9.New returns for the library spelling.
func TestValidateFleetFlags(t *testing.T) {
	tests := []struct {
		name     string
		cfg      remote.BackendConfig
		wantErr  string
		wantWarn string
	}{
		{name: "default run is clean"},
		{name: "chunk without failover", cfg: remote.BackendConfig{Chunk: 8}, wantErr: "-chunk"},
		{name: "max-retries without failover", cfg: remote.BackendConfig{MaxRetries: 3}, wantErr: "-max-retries"},
		{name: "health-interval without failover", cfg: remote.BackendConfig{HealthInterval: time.Second},
			wantErr: "-health-interval"},
		{name: "all orphans named together",
			cfg:     remote.BackendConfig{Chunk: 8, MaxRetries: 3, HealthInterval: time.Second},
			wantErr: "-chunk, -max-retries, -health-interval"},
		{name: "negative chunk rejected",
			cfg:     remote.BackendConfig{Failover: true, Chunk: -1, Peers: fakePeers(2)},
			wantErr: "-chunk must be >= 0"},
		{name: "negative shards rejected",
			cfg:     remote.BackendConfig{Shards: -2},
			wantErr: "-shards must be >= 0"},
		{name: "failover with nothing to fail over to",
			cfg: remote.BackendConfig{Failover: true}, wantWarn: "single backend"},
		{name: "failover with one explicit shard",
			cfg: remote.BackendConfig{Failover: true, Shards: 1}, wantWarn: "single backend"},
		{name: "failover across peers", cfg: remote.BackendConfig{Failover: true, Peers: fakePeers(2)}},
		{name: "failover across local shards", cfg: remote.BackendConfig{Failover: true, Shards: 2}},
		{name: "chunked failover fleet",
			cfg: remote.BackendConfig{Failover: true, Chunk: 16, MaxRetries: 1, Peers: fakePeers(2)}},
		{name: "chunk over local shards", cfg: remote.BackendConfig{Shards: 2, Chunk: 8}},
		{name: "chunked fleet without the failover flag",
			cfg: remote.BackendConfig{Chunk: 16, MaxRetries: 1, Peers: fakePeers(2)}},
		{name: "chunk over a lone peer", cfg: remote.BackendConfig{Chunk: 8, Peers: fakePeers(1)},
			wantErr: "-chunk"},
		{name: "tuning over a cached lone peer",
			cfg: remote.BackendConfig{MaxRetries: 1, Peers: fakePeers(1), Cache: true}},
		{name: "negative tuning values still need failover",
			cfg:     remote.BackendConfig{MaxRetries: -1, HealthInterval: -1},
			wantErr: "-max-retries, -health-interval"},
		{name: "elastic pool", cfg: remote.BackendConfig{AutoscaleMin: 1, AutoscaleMax: 4}},
		{name: "elastic pool with standbys",
			cfg: remote.BackendConfig{AutoscaleMax: 2, StandbyPeers: fakePeers(1)}},
		{name: "autoscale bounds inverted",
			cfg:     remote.BackendConfig{AutoscaleMin: 4, AutoscaleMax: 2},
			wantErr: "bounds inverted"},
		{name: "negative autoscale bound",
			cfg:     remote.BackendConfig{AutoscaleMin: -1, AutoscaleMax: 2},
			wantErr: "-autoscale-min"},
		{name: "standby peers without autoscale",
			cfg:     remote.BackendConfig{StandbyPeers: fakePeers(1)},
			wantErr: "-standby-peers"},
		{name: "scale tuning without autoscale",
			cfg:     remote.BackendConfig{ScaleUpThreshold: 0.9, ScaleCooldown: time.Second},
			wantErr: "-scale-up/-scale-down, -scale-cooldown"},
		{name: "autoscale mixed with failover",
			cfg:     remote.BackendConfig{Failover: true, AutoscaleMax: 4, Peers: fakePeers(2)},
			wantErr: "-failover"},
		{name: "autoscale mixed with fixed shards",
			cfg:     remote.BackendConfig{Shards: 2, AutoscaleMax: 4},
			wantErr: "-shards"},
		{name: "autoscale mixed with fixed peers",
			cfg:     remote.BackendConfig{Peers: fakePeers(1), AutoscaleMax: 4},
			wantErr: "-standby-peers"},
		{name: "hysteresis gap inverted",
			cfg:     remote.BackendConfig{AutoscaleMax: 4, ScaleUpThreshold: 0.3, ScaleDownThreshold: 0.6},
			wantErr: "hysteresis needs a gap"},
		{name: "threshold out of range",
			cfg:     remote.BackendConfig{AutoscaleMax: 4, ScaleUpThreshold: 1.5},
			wantErr: "-scale-up"},
		{name: "fixed elastic pool warns",
			cfg: remote.BackendConfig{AutoscaleMin: 2, AutoscaleMax: 2}, wantWarn: "nothing will ever scale"},
		{name: "cache peers without cache",
			cfg:     remote.BackendConfig{CachePeers: fakePeers(1)},
			wantErr: "-cache-peers"},
		{name: "cache bound without cache",
			cfg:     remote.BackendConfig{CacheMaxBytes: 1 << 20},
			wantErr: "-cache-max-bytes"},
		{name: "negative cache bound",
			cfg:     remote.BackendConfig{Cache: true, CacheMaxBytes: -1},
			wantErr: "-cache-max-bytes must be >= 0"},
		{name: "cache epoch without cache",
			cfg:     remote.BackendConfig{CacheEpoch: 7},
			wantErr: "-cache-epoch"},
		{name: "cached fleet",
			cfg: remote.BackendConfig{Cache: true, CachePeers: fakePeers(2), CacheMaxBytes: 1 << 20}},
		{name: "cached fleet on a bumped epoch",
			cfg: remote.BackendConfig{Cache: true, CachePeers: fakePeers(2), CacheEpoch: 7}},
		{name: "cached failover fleet",
			cfg: remote.BackendConfig{Failover: true, Peers: fakePeers(2), Cache: true}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			warn, err := remote.ValidateFleetFlags(tt.cfg)
			if tt.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
					t.Fatalf("err = %v, want containing %q", err, tt.wantErr)
				}
				if !errors.Is(err, engine.ErrInvalidOptions) {
					t.Fatalf("err = %v, want wrapping engine.ErrInvalidOptions", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if tt.wantWarn == "" && warn != "" {
				t.Fatalf("unexpected warning %q", warn)
			}
			if tt.wantWarn != "" && !strings.Contains(warn, tt.wantWarn) {
				t.Fatalf("warning %q, want containing %q", warn, tt.wantWarn)
			}
		})
	}
}
