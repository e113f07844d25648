package engine

import (
	"context"
	"sync"
)

// Stream submits every job and returns a channel that yields each Result
// the moment its job resolves — completion order, not submission order —
// then closes after the last one. It is the push-style dual of Run:
// a consumer (the NDJSON suite endpoint, a progress bar) can act on fast
// jobs while slow ones are still running.
//
// Cancelling ctx resolves every outstanding job with the context error;
// Close on the engine resolves undispatched jobs with ErrClosed. Either
// way the channel always closes, and it is buffered to len(jobs), so an
// abandoned stream never leaks the forwarding goroutines.
func (e *Engine) Stream(ctx context.Context, jobs []Job) <-chan Result {
	e.streams.Add(1)
	out := make(chan Result, len(jobs))
	if len(jobs) == 0 {
		close(out)
		return out
	}
	var pending sync.WaitGroup
	pending.Add(len(jobs))
	for _, j := range jobs {
		ch := e.Submit(ctx, j)
		go func() {
			defer pending.Done()
			out <- <-ch
		}()
	}
	go func() {
		pending.Wait()
		close(out)
	}()
	return out
}
