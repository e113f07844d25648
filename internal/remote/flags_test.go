package remote

import (
	"errors"
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
)

// TestFleetFlags pins the shared CLI registration end to end: argv and
// ART9_CACHE_EPOCH in, the resolved config, warning and error out —
// each CLI's -shards default, the untouched default dropped under
// autoscaling, comma-separated URL lists, and the cache-epoch variable
// (an explicit flag wins, the variable is ignored without -cache, and a
// malformed value leaves the epoch at 0).
func TestFleetFlags(t *testing.T) {
	tests := []struct {
		name          string
		defaultShards int
		argv          []string
		env           string
		want          BackendConfig
		wantWarn      string
		wantErr       string
	}{
		{name: "batch default", defaultShards: 0},
		{name: "serve default", defaultShards: 1, want: BackendConfig{Shards: 1}},
		{name: "workers and shards", defaultShards: 1, argv: []string{"-workers", "3", "-shards", "2"},
			want: BackendConfig{Shards: 2, Workers: 3}},
		{name: "untouched serve default dropped under autoscale", defaultShards: 1,
			argv: []string{"-autoscale-min", "1", "-autoscale-max", "4"},
			want: BackendConfig{AutoscaleMin: 1, AutoscaleMax: 4}},
		{name: "explicit shards kept under autoscale", defaultShards: 1,
			argv:    []string{"-shards", "1", "-autoscale-max", "4"},
			wantErr: "-shards fixes the shard count"},
		{name: "peer list split and trimmed", defaultShards: 0,
			argv: []string{"-peers", "http://a:1, http://b:2,,"},
			want: BackendConfig{Peers: []string{"http://a:1", "http://b:2"}}},
		{name: "standby list split", defaultShards: 1,
			argv: []string{"-autoscale-max", "2", "-standby-peers", "http://a:1,http://b:2"},
			want: BackendConfig{AutoscaleMax: 2, StandbyPeers: []string{"http://a:1", "http://b:2"}}},
		{name: "cache peer list split", defaultShards: 0,
			argv: []string{"-cache", "-cache-peers", "http://a:1,,http://b:2"},
			want: BackendConfig{Cache: true, CachePeers: []string{"http://a:1", "http://b:2"}}},
		{name: "epoch from the environment", defaultShards: 1, argv: []string{"-cache"}, env: "9",
			want: BackendConfig{Shards: 1, Cache: true, CacheEpoch: 9}},
		{name: "explicit epoch wins over the environment", defaultShards: 1,
			argv: []string{"-cache", "-cache-epoch", "3"}, env: "9",
			want: BackendConfig{Shards: 1, Cache: true, CacheEpoch: 3}},
		{name: "explicit zero epoch wins over the environment", defaultShards: 0,
			argv: []string{"-cache", "-cache-epoch", "0"}, env: "9",
			want: BackendConfig{Cache: true}},
		{name: "environment ignored without cache", defaultShards: 1, env: "9",
			want: BackendConfig{Shards: 1}},
		{name: "malformed environment epoch is 0", defaultShards: 0, argv: []string{"-cache"}, env: "nine",
			want: BackendConfig{Cache: true}},
		{name: "explicit epoch without cache", defaultShards: 0, argv: []string{"-cache-epoch", "7"},
			wantErr: "-cache-epoch: only meaningful with -cache"},
		{name: "orphaned chunk", defaultShards: 1, argv: []string{"-chunk", "8"},
			wantErr: "-chunk: only meaningful with a Balancer front"},
		{name: "failover over the serve default warns", defaultShards: 1, argv: []string{"-failover"},
			want: BackendConfig{Shards: 1, Failover: true}, wantWarn: "single backend"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			t.Setenv("ART9_CACHE_EPOCH", tt.env)
			fs := flag.NewFlagSet("fleet", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			resolve := FleetFlags(fs, tt.defaultShards)
			if err := fs.Parse(tt.argv); err != nil {
				t.Fatalf("parse %q: %v", tt.argv, err)
			}
			cfg, warn, err := resolve()
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
			if !reflect.DeepEqual(cfg, tt.want) {
				t.Errorf("config = %+v, want %+v", cfg, tt.want)
			}
			if (tt.wantWarn == "") != (warn == "") || !strings.Contains(warn, tt.wantWarn) {
				t.Errorf("warning %q, want containing %q", warn, tt.wantWarn)
			}
		})
	}
}
