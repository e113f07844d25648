package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestStreamCompletionOrder gates job completions in reverse submission
// order and asserts the stream yields them in that completion order —
// the property that distinguishes Stream from Run.
func TestStreamCompletionOrder(t *testing.T) {
	const n = 4
	e := New(Options{Workers: n})
	defer e.Close()

	gates := make([]chan struct{}, n)
	running := make(chan int, n)
	jobs := make([]Job, n)
	for i := range jobs {
		i := i
		gates[i] = make(chan struct{})
		jobs[i] = Job{
			ID: fmt.Sprintf("job-%d", i),
			Fn: func(context.Context) (any, error) {
				running <- i
				<-gates[i]
				return i, nil
			},
		}
	}
	out := e.Stream(context.Background(), jobs)
	for i := 0; i < n; i++ {
		<-running // all jobs are resident on the n workers
	}
	for i := n - 1; i >= 0; i-- {
		close(gates[i]) // release in reverse order
		r := <-out
		if r.Err != nil {
			t.Fatalf("job %s: %v", r.ID, r.Err)
		}
		if r.Value.(int) != i {
			t.Fatalf("stream yielded job %v, want %d (completion order)", r.Value, i)
		}
	}
	if _, ok := <-out; ok {
		t.Fatal("stream not closed after last result")
	}
	if s := e.Stats(); s.Streams != 1 {
		t.Errorf("stats %+v, want 1 stream", s)
	}
}

// TestStreamEmpty: a zero-job stream closes immediately.
func TestStreamEmpty(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()
	select {
	case _, ok := <-e.Stream(context.Background(), nil):
		if ok {
			t.Fatal("empty stream yielded a result")
		}
	case <-time.After(time.Second):
		t.Fatal("empty stream never closed")
	}
}

// TestStreamCancelMidStream cancels the context while one job holds the
// only worker; every outstanding job must resolve (with the context
// error) and the stream must close.
func TestStreamCancelMidStream(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Every job gates on release, so whichever one the single worker
	// dispatches first is the one pinned mid-run; dispatch order across
	// the stream's concurrent submitters is unspecified.
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	jobs := make([]Job, 12)
	for i := range jobs {
		jobs[i] = Job{ID: fmt.Sprintf("q%d", i), Fn: func(context.Context) (any, error) {
			started <- struct{}{}
			<-release
			return nil, nil
		}}
	}

	out := e.Stream(ctx, jobs)
	<-started // one job is resident on the only worker
	cancel()  // cancel ≺ close(release) ≺ the worker's next ctx check
	close(release)

	var got, canceled int
	deadline := time.After(5 * time.Second)
	for {
		select {
		case r, ok := <-out:
			if !ok {
				if got != len(jobs) {
					t.Fatalf("stream closed after %d results, want %d", got, len(jobs))
				}
				if canceled != len(jobs)-1 {
					t.Errorf("%d canceled results, want %d", canceled, len(jobs)-1)
				}
				return
			}
			got++
			if errors.Is(r.Err, context.Canceled) {
				canceled++
			} else if r.Err != nil {
				t.Errorf("job %s: error %v, want nil or context.Canceled", r.ID, r.Err)
			}
		case <-deadline:
			t.Fatalf("stream stalled after %d results — cancellation stranded a job", got)
		}
	}
}

// TestStreamCloseRaceStress interleaves Stream batches with a concurrent
// Close under the race detector: every stream must terminate, and every
// result must be success, ErrClosed, or a context error — nothing
// stranded, no double-resolution, no races on the counters.
func TestStreamCloseRaceStress(t *testing.T) {
	e := New(Options{Workers: 4, Queue: 2})

	const streams, perStream = 8, 25
	var wg sync.WaitGroup
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			jobs := make([]Job, perStream)
			for i := range jobs {
				jobs[i] = Job{
					ID: fmt.Sprintf("s%d-j%d", s, i),
					Fn: func(context.Context) (any, error) { return s, nil },
				}
			}
			n := 0
			for r := range e.Stream(context.Background(), jobs) {
				n++
				if r.Err != nil && !errors.Is(r.Err, ErrClosed) {
					t.Errorf("job %s: error %v, want nil or ErrClosed", r.ID, r.Err)
				}
			}
			if n != perStream {
				t.Errorf("stream %d yielded %d results, want %d", s, n, perStream)
			}
		}(s)
	}
	e.Close() // race shutdown against the in-flight streams
	wg.Wait()

	s := e.Stats()
	if s.Submitted != s.Completed+s.Failed+s.Canceled+s.Rejected {
		t.Errorf("stats %+v do not balance after Close", s)
	}
}

// localFleet fronts n local engines with a Balancer — the topology
// art9.New(WithShards(n)) builds — with the probe loop off.
func localFleet(n int, opts Options) *Balancer {
	backends := make([]Evaluator, n)
	for i := range backends {
		backends[i] = New(opts)
	}
	return NewBalancer(BalancerOptions{HealthInterval: -1}, backends...)
}

func TestLocalFleetRunAllAndStream(t *testing.T) {
	s := localFleet(3, Options{Workers: 2})
	defer s.Close()
	if s.Size() != 3 {
		t.Fatalf("Size() = %d, want 3", s.Size())
	}

	jobs := make([]Job, 30)
	for i := range jobs {
		i := i
		jobs[i] = Job{
			ID: fmt.Sprintf("job-%d", i),
			Fn: func(context.Context) (any, error) { return i, nil },
		}
	}
	results, err := s.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil || r.Value.(int) != i {
			t.Errorf("result %d = %+v, want value %d in submission order", i, r, i)
		}
	}

	seen := map[string]bool{}
	for r := range s.Stream(context.Background(), jobs) {
		if r.Err != nil {
			t.Errorf("job %s: %v", r.ID, r.Err)
		}
		if seen[r.ID] {
			t.Errorf("job %s delivered twice", r.ID)
		}
		seen[r.ID] = true
	}
	if len(seen) != len(jobs) {
		t.Errorf("stream delivered %d distinct jobs, want %d", len(seen), len(jobs))
	}

	// Least-loaded placement must put work on every shard across the
	// 60 submissions (Run + Stream), and the totals must equal the
	// sum plus the balancer's own Stream call.
	var sum uint64
	for i, st := range s.BackendStats() {
		if st.Submitted < 1 {
			t.Errorf("shard %d submitted %d, want at least 1", i, st.Submitted)
		}
		sum += st.Submitted
	}
	if sum != 60 {
		t.Errorf("shards submitted %d jobs in total, want 60", sum)
	}
	if tot := s.Stats(); tot.Submitted != sum || tot.Workers != 6 || tot.Streams != 1 {
		t.Errorf("Stats %+v, want submitted %d over 6 workers and 1 stream", tot, sum)
	}
}

// TestLocalFleetSpreadsSmallBatches drives many one-job batches — the
// resident server's /v1/eval pattern — and asserts the Balancer's
// rotation among equally free shards spreads them evenly instead of
// piling every batch onto shard 0.
func TestLocalFleetSpreadsSmallBatches(t *testing.T) {
	s := localFleet(3, Options{Workers: 1})
	defer s.Close()

	for i := 0; i < 30; i++ {
		if _, err := s.Run(context.Background(), []Job{{
			ID: fmt.Sprintf("one-%d", i),
			Fn: func(context.Context) (any, error) { return nil, nil },
		}}); err != nil {
			t.Fatal(err)
		}
	}
	for i, st := range s.BackendStats() {
		if st.Submitted != 10 {
			t.Errorf("shard %d got %d of 30 one-job batches, want 10", i, st.Submitted)
		}
	}
}
