package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// fakeBackend is a minimal non-Engine Evaluator: it resolves every job
// by calling its Fn inline and tags the result with its name, so tests
// can tell which backend a Balancer routed each job to.
type fakeBackend struct {
	name  string
	mu    sync.Mutex
	stats Stats
}

func (f *fakeBackend) Run(ctx context.Context, jobs []Job) ([]Result, error) {
	out := make([]Result, len(jobs))
	for i, j := range jobs {
		v, err := j.Fn(ctx)
		out[i] = Result{ID: j.ID, Value: fmt.Sprintf("%s:%v", f.name, v), Err: err}
		f.mu.Lock()
		f.stats.Submitted++
		f.stats.Completed++
		f.mu.Unlock()
	}
	return out, ctx.Err()
}

func (f *fakeBackend) Stream(ctx context.Context, jobs []Job) <-chan Result {
	out := make(chan Result, len(jobs))
	rs, _ := f.Run(ctx, jobs)
	for _, r := range rs {
		out <- r
	}
	close(out)
	return out
}

func (f *fakeBackend) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}
func (f *fakeBackend) Close() error { return nil }

// TestBalancerOfMixedBackends composes a local Engine with a non-Engine
// backend and checks submission-order reassembly, stream merging, and
// aggregate stats across the heterogeneous set — the property that lets
// a backend be a remote peer.
func TestBalancerOfMixedBackends(t *testing.T) {
	local := New(Options{Workers: 2})
	fake := &fakeBackend{name: "peer"}
	s := NewBalancer(BalancerOptions{HealthInterval: -1}, local, fake)
	defer s.Close()

	if s.Size() != 2 {
		t.Fatalf("Size() = %d, want 2", s.Size())
	}
	if s.Backend(1) != Evaluator(fake) {
		t.Error("Backend(1) is not the fake peer")
	}
	if _, ok := s.Backend(1).(*Engine); ok {
		t.Error("Backend(1) should not be a local *Engine")
	}
	if e, ok := s.Backend(0).(*Engine); !ok || e != local {
		t.Error("Backend(0) should be the local engine")
	}

	jobs := make([]Job, 10)
	for i := range jobs {
		i := i
		jobs[i] = Job{ID: fmt.Sprintf("job-%d", i),
			Fn: func(context.Context) (any, error) { return i, nil }}
	}
	results, err := s.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	var viaFake int
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %s: %v", r.ID, r.Err)
		}
		if r.ID != jobs[i].ID {
			t.Errorf("result %d is %s, want %s (submission order)", i, r.ID, jobs[i].ID)
		}
		if sv, ok := r.Value.(string); ok && len(sv) > 5 && sv[:5] == "peer:" {
			viaFake++
		}
	}
	if viaFake < 1 {
		t.Errorf("fake backend ran %d of 10 jobs, want at least 1", viaFake)
	}

	seen := 0
	for r := range s.Stream(context.Background(), jobs) {
		if r.Err != nil {
			t.Errorf("stream job %s: %v", r.ID, r.Err)
		}
		seen++
	}
	if seen != len(jobs) {
		t.Errorf("stream yielded %d results, want %d", seen, len(jobs))
	}

	if tot := s.Stats(); tot.Submitted != local.Stats().Submitted+fake.Stats().Submitted {
		t.Errorf("aggregate Stats %+v do not sum the backends", tot)
	}
}

// TestBalancerComposesRecursively nests a Balancer inside a Balancer and
// checks jobs still resolve with submission-order results.
func TestBalancerComposesRecursively(t *testing.T) {
	inner := localFleet(2, Options{Workers: 1})
	outer := NewBalancer(BalancerOptions{HealthInterval: -1}, inner, New(Options{Workers: 1}))
	defer outer.Close()

	jobs := make([]Job, 8)
	for i := range jobs {
		i := i
		jobs[i] = Job{ID: fmt.Sprintf("r-%d", i),
			Fn: func(context.Context) (any, error) { return i, nil }}
	}
	results, err := outer.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil || r.Value.(int) != i {
			t.Errorf("result %d = %+v, want value %d", i, r, i)
		}
	}
	if tot := outer.Stats(); tot.Submitted != 8 {
		t.Errorf("aggregate Stats %+v, want 8 submitted", tot)
	}
}

// TestJobTimeoutIsTyped pins the typed error surface: an engine-imposed
// per-job deadline surfaces as ErrTimeout (still unwrappable to
// context.DeadlineExceeded), while a cancellation on the caller's own
// context stays the caller's error.
func TestJobTimeoutIsTyped(t *testing.T) {
	e := New(Options{Workers: 1, JobTimeout: 5 * time.Millisecond})
	defer e.Close()

	r := <-e.Submit(context.Background(), Job{ID: "slow",
		Fn: func(ctx context.Context) (any, error) { <-ctx.Done(); return nil, ctx.Err() }})
	if !errors.Is(r.Err, ErrTimeout) {
		t.Errorf("engine-deadline error %v, want ErrTimeout", r.Err)
	}
	if !errors.Is(r.Err, context.DeadlineExceeded) {
		t.Errorf("error %v no longer unwraps to DeadlineExceeded", r.Err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	ch := e.Submit(ctx, Job{ID: "caller-cancel",
		Fn: func(ctx context.Context) (any, error) { close(started); <-ctx.Done(); return nil, ctx.Err() }})
	<-started
	cancel()
	if r := <-ch; errors.Is(r.Err, ErrTimeout) || !errors.Is(r.Err, context.Canceled) {
		t.Errorf("caller-cancel error %v, want context.Canceled without ErrTimeout", r.Err)
	}
}
