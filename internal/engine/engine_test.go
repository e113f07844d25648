package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunAllOrderAndValues(t *testing.T) {
	e := New(Options{Workers: 4})
	defer e.Close()

	jobs := make([]Job, 32)
	for i := range jobs {
		i := i
		jobs[i] = Job{
			ID: fmt.Sprintf("job-%d", i),
			Fn: func(context.Context) (any, error) { return i * i, nil },
		}
	}
	results, err := e.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(jobs) {
		t.Fatalf("got %d results, want %d", len(results), len(jobs))
	}
	for i, r := range results {
		if r.ID != jobs[i].ID {
			t.Errorf("result %d: ID %q, want %q (submission order must be preserved)", i, r.ID, jobs[i].ID)
		}
		if r.Err != nil {
			t.Errorf("result %d: unexpected error %v", i, r.Err)
		}
		if r.Value.(int) != i*i {
			t.Errorf("result %d: value %v, want %d", i, r.Value, i*i)
		}
		if r.Worker < 0 || r.Worker >= 4 {
			t.Errorf("result %d: worker %d out of pool range", i, r.Worker)
		}
	}
	s := e.Stats()
	if s.Submitted != 32 || s.Completed != 32 || s.Failed != 0 || s.Canceled != 0 {
		t.Errorf("stats %+v, want 32 submitted/completed", s)
	}
}

func TestRunAllReportsJobErrors(t *testing.T) {
	e := New(Options{Workers: 2})
	defer e.Close()

	boom := errors.New("boom")
	jobs := []Job{
		{ID: "ok", Fn: func(context.Context) (any, error) { return 1, nil }},
		{ID: "bad", Fn: func(context.Context) (any, error) { return nil, boom }},
		{ID: "ok2", Fn: func(context.Context) (any, error) { return 2, nil }},
	}
	results, err := e.Run(context.Background(), jobs)
	if err != nil {
		t.Fatalf("batch error %v; job failures must be per-result", err)
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Errorf("healthy jobs failed: %v, %v", results[0].Err, results[2].Err)
	}
	if !errors.Is(results[1].Err, boom) {
		t.Errorf("bad job error = %v, want %v", results[1].Err, boom)
	}
	if s := e.Stats(); s.Failed != 1 || s.Completed != 2 {
		t.Errorf("stats %+v, want 1 failed / 2 completed", s)
	}
}

func TestSubmitSingle(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()

	r := <-e.Submit(context.Background(), Job{
		ID: "one",
		Fn: func(context.Context) (any, error) { return "done", nil },
	})
	if r.Err != nil || r.Value != "done" || r.ID != "one" {
		t.Fatalf("unexpected result %+v", r)
	}
}

func TestCancellationMidBatch(t *testing.T) {
	// One worker, pinned on a gated first job. The batch queued behind
	// it is cancelled while the worker is busy: every queued job must
	// resolve with the context error without executing.
	e := New(Options{Workers: 1})
	defer e.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	started := make(chan struct{})
	release := make(chan struct{})
	var executed atomic.Int32
	first := e.Submit(ctx, Job{ID: "pinned", Fn: func(context.Context) (any, error) {
		executed.Add(1)
		close(started)
		<-release
		return "first", nil
	}})
	<-started // the only worker is now mid-job

	queued := make([]Job, 15)
	for i := range queued {
		queued[i] = Job{ID: fmt.Sprintf("queued-%d", i), Fn: func(context.Context) (any, error) {
			executed.Add(1)
			return nil, nil
		}}
	}
	resCh := make(chan []Result, 1)
	go func() {
		rs, _ := e.Run(ctx, queued)
		resCh <- rs
	}()

	cancel()       // cancel the batch while the worker is still busy
	close(release) // then let the pinned job finish

	if r := <-first; r.Err != nil || r.Value != "first" {
		t.Fatalf("pinned job should have completed, got %+v", r)
	}
	for _, r := range <-resCh {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("job %s: error %v, want context.Canceled", r.ID, r.Err)
		}
	}
	if n := executed.Load(); n != 1 {
		t.Errorf("%d jobs executed, want only the pinned one", n)
	}
	if s := e.Stats(); s.Canceled != 15 {
		t.Errorf("stats %+v, want 15 canceled", s)
	}
}

func TestPerJobTimeout(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()

	r := <-e.Submit(context.Background(), Job{
		ID:      "slow",
		Timeout: 10 * time.Millisecond,
		Fn: func(ctx context.Context) (any, error) {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(10 * time.Second):
				return "too late", nil
			}
		},
	})
	if !errors.Is(r.Err, context.DeadlineExceeded) {
		t.Fatalf("error = %v, want context.DeadlineExceeded", r.Err)
	}
}

func TestEngineDefaultTimeout(t *testing.T) {
	e := New(Options{Workers: 1, JobTimeout: 10 * time.Millisecond})
	defer e.Close()

	r := <-e.Submit(context.Background(), Job{
		ID: "slow",
		Fn: func(ctx context.Context) (any, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})
	if !errors.Is(r.Err, context.DeadlineExceeded) {
		t.Fatalf("error = %v, want context.DeadlineExceeded", r.Err)
	}
}

func TestSubmitAfterClose(t *testing.T) {
	e := New(Options{Workers: 1})
	e.Close()
	e.Close() // idempotent

	r := <-e.Submit(context.Background(), Job{
		ID: "late",
		Fn: func(context.Context) (any, error) { return nil, nil },
	})
	if !errors.Is(r.Err, ErrClosed) {
		t.Fatalf("error = %v, want ErrClosed", r.Err)
	}
	s := e.Stats()
	if s.Rejected != 1 {
		t.Errorf("stats %+v, want 1 rejected", s)
	}
	if s.Submitted != s.Completed+s.Failed+s.Canceled+s.Rejected {
		t.Errorf("stats %+v do not balance", s)
	}
}

func TestDefaultWorkerCount(t *testing.T) {
	e := New(Options{})
	defer e.Close()
	if e.Workers() < 1 {
		t.Fatalf("default worker count %d, want >= 1", e.Workers())
	}
}

// TestRaceStress drives many small jobs through one program cache; its
// value is under `go test -race`, where any unsynchronised access in the
// engine or the cache turns into a failure.
func TestRaceStress(t *testing.T) {
	e := New(Options{Workers: 8})
	defer e.Close()
	programs := NewProgramCache()

	sources := []string{
		"LDI T1, 1\nHALT",
		"LDI T1, 2\nADDI T1, 1\nHALT",
		"LDI T1, 3\nADDI T1, -1\nHALT",
	}
	jobs := make([]Job, 300)
	for i := range jobs {
		src := sources[i%len(sources)]
		jobs[i] = Job{
			ID: fmt.Sprintf("stress-%d", i),
			Fn: func(context.Context) (any, error) {
				p, err := programs.Assemble(src)
				if err != nil {
					return nil, err
				}
				return len(p.Text), nil
			},
		}
	}
	results, err := e.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("job %s: %v", r.ID, r.Err)
		}
	}
	ps := programs.Stats()
	if ps.Entries != len(sources) {
		t.Errorf("program cache entries = %d, want %d", ps.Entries, len(sources))
	}
	if ps.Hits+ps.Misses != 300 {
		t.Errorf("cache lookups = %d, want 300", ps.Hits+ps.Misses)
	}
}

// TestJobPanicIsContained pins crash containment: a panicking job
// resolves as its own failure wrapping ErrPanic, with the panic value
// and stack, while the jobs beside it succeed and the engine keeps
// serving. Behind a Balancer the failure is job-level, never retried.
func TestJobPanicIsContained(t *testing.T) {
	e := New(Options{Workers: 2})
	defer e.Close()

	ok := func(v int) func(context.Context) (any, error) {
		return func(context.Context) (any, error) { return v, nil }
	}
	jobs := []Job{
		{ID: "a", Fn: ok(1)},
		{ID: "boom", Fn: func(context.Context) (any, error) { panic("kaboom") }},
		{ID: "b", Fn: ok(2)},
		{ID: "c", Fn: ok(3)},
	}
	rs, err := e.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if i == 1 {
			if !errors.Is(r.Err, ErrPanic) || !strings.Contains(r.Err.Error(), "kaboom") ||
				!strings.Contains(r.Err.Error(), "goroutine") {
				t.Errorf("panicking job = %v, want ErrPanic with the value and stack", r.Err)
			}
			if Retryable(r.Err) {
				t.Error("a panic is job-level, yet Retryable reports it as a backend failure")
			}
			continue
		}
		if r.Err != nil {
			t.Errorf("job %s failed beside the panic: %v", r.ID, r.Err)
		}
	}
	if st := e.Stats(); st.Failed != 1 || st.Completed != 3 {
		t.Errorf("stats %+v, want 3 completed and 1 failed", st)
	}

	// The pool survived: a balancer over it still serves, and does not
	// retry the panic elsewhere.
	b := NewBalancer(BalancerOptions{HealthInterval: -1}, New(Options{Workers: 1}))
	defer b.Close()
	rs, _ = b.Run(context.Background(), jobs)
	if !errors.Is(rs[1].Err, ErrPanic) || rs[0].Err != nil || rs[3].Err != nil {
		t.Errorf("balanced run = %+v, want only the panicking job failed", rs)
	}
	if got := b.Retries(); got != 0 {
		t.Errorf("balancer retried the panicking job %d times, want 0", got)
	}
	if rs, err := e.Run(context.Background(), jobs[:1]); err != nil || rs[0].Err != nil {
		t.Errorf("engine after the panic = (%+v, %v), want it still serving", rs, err)
	}
}
