package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Balancer is the one fleet front of the Evaluator stack: it wraps a set
// of backends — local pools, remote peers, other fronts, in any mix —
// and dispatches each job to the least-loaded healthy one, failing jobs
// over to another backend when the one that held them dies, so a suite
// stays complete through mid-stream backend deaths:
//
//   - Health: a periodic loop probes every backend that implements
//     Prober (local engines answer from their closed flag, remote
//     clients GET /v1/healthz) and each job result updates the score
//     reactively — a backend-level failure (Retryable: ErrClosed or
//     ErrUnavailable) marks the backend down immediately, the next
//     success or clean probe revives it.
//   - Dispatch: one placement loop per batch takes a slot on the healthy
//     backend with the most free slots (ties rotate), bounded per
//     backend by its local worker count (or Width for backends that
//     report none, i.e. remote peers), so a slow backend holds only the
//     jobs it is actually running while the rest of the suite flows
//     around it.
//   - Failover: a job whose result is a backend-level failure is re-run
//     on another backend — bounded by MaxRetries, excluding backends
//     already tried until every one has been — and resolves exactly
//     once, so merged Run/Stream output stays deduplicated. Job-level
//     failures (a bad program, a per-job timeout, the caller's context
//     ending) are never retried.
//
// Failover re-runs jobs, so jobs must be idempotent — true of the whole
// evaluation suite (pure simulation), and the same assumption the remote
// client's dial retry already makes. Jobs reach remote backends through
// their serializable Job.Spec; spec-less closure jobs fail on remote
// backends with a not-remotable error and are not retried (placement
// cannot fix a job that cannot travel). MaxRetries -1 turns failover
// off: a dead backend's jobs then fail with its typed error instead.
//
// Every placement moves a chunk of jobs; Chunk sets its cap, and the
// default cap of 1 is per-job placement. The chunk's size picks the
// wire call: a 1-job chunk runs through the backend's Run, so a remote
// peer sees one /v1/eval request per job, while a multi-job chunk on a
// ChunkDispatcher travels as one acknowledged /v1/suite stream. Per-job
// placement buys the finest load spread and failover granularity with
// per-request overhead; chunks amortise the wire at the cost of
// coarser placement, so wire-sensitive multi-peer sweeps should set a
// chunk cap.
//
// Membership is fixed for a plain Balancer; an Autoscaler embeds one
// and adds and retires members as its scale policy decides.
type Balancer struct {
	members      []*member // appended under mu; retired members stay
	maxRetries   int
	interval     time.Duration
	probeTimeout time.Duration
	threshold    int
	// width caps dispatch to members that report no local workers.
	width int
	// chunk is the configured chunk cap; 0 and 1 both place per job.
	chunk int
	// cache, when non-nil, is consulted before every placement: a hit
	// resolves the job without taking a slot or riding a chunk, and
	// successful attempts are stored back.
	cache ResultCache

	retries      atomic.Uint64
	chunks       atomic.Uint64
	chunkResumes atomic.Uint64
	cacheHits    atomic.Uint64
	// streams counts Stream calls on the balancer itself: members only
	// ever see Run (or a chunk), so their own stream counters stay 0.
	streams atomic.Uint64
	// queued counts jobs waiting in placement loops for a slot — the
	// queue-depth signal an Autoscaler grows the pool from.
	queued atomic.Int64

	// mu guards the member list, every member's mutable state, closed
	// and rr; cond (on mu) wakes acquire waiters when a slot frees, a
	// probe changes a backend's health, membership changes, or the
	// balancer closes. Dispatch contexts get a watcher goroutine that
	// broadcasts on cancellation so waiters observe it.
	mu     sync.Mutex
	cond   *sync.Cond
	closed bool
	rr     int

	// revived is closed (and replaced) whenever any member transitions
	// to healthy; last-resort attempts on unhealthy backends watch it
	// so a recovery elsewhere rescues jobs stuck on a wedged backend.
	revived chan struct{}

	stop     chan struct{}
	stopOnce sync.Once
}

// member is one backend plus the balancer's book-keeping about it. All
// mutable fields are guarded by Balancer.mu.
type member struct {
	ev    Evaluator
	name  string
	width int // max concurrent jobs dispatched to this backend
	// retired members (scaled down by an Autoscaler) are no longer
	// placed on, probed, or counted in capacity; standby marks members
	// dialed from the Autoscaler's standby list. Both only label the
	// scorecard otherwise.
	retired, standby bool

	healthy     bool
	inflight    int
	consecutive int // consecutive backend-level failures
	lastErr     string
	// down is closed when the member transitions to unhealthy and
	// replaced with a fresh channel on revival; in-flight attempts
	// watch it so a backend declared dead (by a probe, or by another
	// job's failure) does not hold its jobs hostage.
	down chan struct{}

	dispatched    uint64
	completed     uint64
	failed        uint64
	failovers     uint64 // backend-level failures: jobs moved away from here
	probes        uint64
	probeFailures uint64

	chunks       uint64 // chunks dispatched to this backend
	chunkResumes uint64 // chunks severed here with unresolved jobs re-queued

	// cap is the most recent capacity scrape (nil until the first one
	// succeeds); chunk sizing and effective width read it so a busy
	// peer sheds load before it wedges.
	cap        *Capacity
	capScrapes uint64
}

// freeSlotsLocked reports how many more jobs this member can take right
// now: its static width — refined down to the live worker count when a
// capacity scrape has reported one — minus the jobs already in flight.
// Callers hold b.mu.
func (m *member) freeSlotsLocked() int {
	w := m.width
	if m.cap != nil && m.cap.Workers > 0 && m.cap.Workers < w {
		w = m.cap.Workers
	}
	return w - m.inflight
}

// setHealthLocked applies a health transition (callers hold b.mu):
// going down closes the member's down channel so in-flight attempts
// abandon the backend; coming up replaces it, clears the failure
// streak, and fires the balancer-wide revived signal so last-resort
// attempts stuck on other dead backends re-dispatch here.
func (b *Balancer) setHealthLocked(m *member, h bool) {
	if m.healthy == h {
		if h {
			m.consecutive = 0
		}
		return
	}
	m.healthy = h
	if h {
		m.consecutive = 0
		m.down = make(chan struct{})
		close(b.revived)
		b.revived = make(chan struct{})
	} else {
		close(m.down)
	}
}

// BackendHealth is one backend's point-in-time scorecard — the
// fleet-behaviour record BENCH reports and /v1/stats carry.
type BackendHealth struct {
	Name     string `json:"name"`
	Healthy  bool   `json:"healthy"`
	Width    int    `json:"width"`
	Inflight int    `json:"inflight"`
	// Dispatched counts jobs handed to this backend (including retries
	// of jobs other backends dropped). Completed counts successes;
	// Failed counts failures that ended the job here (its own fault, or
	// a backend-level failure with the retry budget spent); Failovers
	// counts backend-level failures whose job was re-queued elsewhere.
	Dispatched    uint64 `json:"dispatched"`
	Completed     uint64 `json:"completed"`
	Failed        uint64 `json:"failed"`
	Failovers     uint64 `json:"failovers"`
	Probes        uint64 `json:"probes"`
	ProbeFailures uint64 `json:"probe_failures"`
	// Chunks counts chunked dispatch units handed to this backend;
	// ChunkResumes counts chunks severed here whose unresolved jobs
	// were re-chunked onto other backends.
	Chunks       uint64 `json:"chunks,omitempty"`
	ChunkResumes uint64 `json:"chunk_resumes,omitempty"`
	// Capacity is the backend's most recent scraped load snapshot (nil
	// until a probe round's capacity query has succeeded);
	// CapacityScrapes counts the successful scrapes.
	Capacity        *Capacity `json:"capacity,omitempty"`
	CapacityScrapes uint64    `json:"capacity_scrapes,omitempty"`
	// Retired and Standby are the Autoscaler's scale-event plumbing: a
	// retired member was scaled down (drained, then closed) and no
	// longer takes jobs; a standby member was dialed from the
	// configured standby list rather than spawned locally. Always false
	// on a fixed-size Balancer's scorecards.
	Retired   bool   `json:"retired,omitempty"`
	Standby   bool   `json:"standby,omitempty"`
	LastError string `json:"last_error,omitempty"`
}

// BalancerOptions tune a Balancer. The zero value selects the defaults
// documented per field.
type BalancerOptions struct {
	// MaxRetries is how many times one job is re-dispatched after a
	// backend-level failure (0 selects 2; negative disables failover).
	MaxRetries int
	// HealthInterval is the period of the background probe loop
	// (0 selects 2s; negative disables the loop — probes then only run
	// through ProbeNow, which tests use for determinism).
	HealthInterval time.Duration
	// ProbeTimeout bounds one backend's probe (0 selects 2s).
	ProbeTimeout time.Duration
	// FailThreshold is how many consecutive backend-level failures mark
	// a backend unhealthy (0 selects 1: the first failure downs it).
	FailThreshold int
	// Width caps concurrent dispatch to backends that report no local
	// workers — remote peers, whose pool lives on the other machine
	// (0 selects 8). Backends with a local pool are capped at its size.
	Width int
	// Chunk enables chunked dispatch: up to Chunk jobs travel to a
	// backend as one dispatch unit — over one /v1/suite NDJSON stream
	// for backends implementing ChunkDispatcher, one Run batch
	// otherwise — with per-row acknowledgement, so a severed chunk
	// re-dispatches only its unresolved jobs. Chunks are sized down by
	// the backend's free slots and scraped live capacity. 0 (or
	// negative) and 1 select per-job placement.
	Chunk int
	// Cache, when set, is the fleet-wide result cache consulted before
	// every placement: a hit short-circuits dispatch (the job never
	// takes a backend slot or rides a chunk) and every successful
	// attempt is stored back for the rest of the fleet.
	Cache ResultCache
}

// Retryable reports whether a job result's error is a backend-level
// failure — the class a Balancer responds to by re-running the job on
// another backend. Job-level failures (the job ran and was wrong, timed
// out, or the caller cancelled) are not retryable.
func Retryable(err error) bool {
	return err != nil && (errors.Is(err, ErrClosed) || errors.Is(err, ErrUnavailable))
}

// NewBalancer builds a health-aware front over the given backends and
// takes ownership of them (Close closes every one). An empty call
// selects one default local engine.
func NewBalancer(opts BalancerOptions, backends ...Evaluator) *Balancer {
	if len(backends) == 0 {
		backends = []Evaluator{New(Options{})}
	}
	b := newBalancer(opts)
	b.mu.Lock()
	for i, ev := range backends {
		b.addMemberLocked(ev, backendName(ev, i), false)
	}
	b.mu.Unlock()
	return b
}

// newBalancer applies the option defaults and starts the health loop
// over a balancer with no members yet.
func newBalancer(opts BalancerOptions) *Balancer {
	if opts.MaxRetries == 0 {
		opts.MaxRetries = 2
	} else if opts.MaxRetries < 0 {
		opts.MaxRetries = 0
	}
	if opts.HealthInterval == 0 {
		opts.HealthInterval = 2 * time.Second
	}
	if opts.ProbeTimeout <= 0 {
		opts.ProbeTimeout = 2 * time.Second
	}
	if opts.FailThreshold <= 0 {
		opts.FailThreshold = 1
	}
	if opts.Width <= 0 {
		opts.Width = 8
	}
	if opts.Chunk < 0 {
		opts.Chunk = 0
	}
	b := &Balancer{
		maxRetries:   opts.MaxRetries,
		interval:     opts.HealthInterval,
		probeTimeout: opts.ProbeTimeout,
		threshold:    opts.FailThreshold,
		width:        opts.Width,
		chunk:        opts.Chunk,
		cache:        opts.Cache,
		revived:      make(chan struct{}),
		stop:         make(chan struct{}),
	}
	b.cond = sync.NewCond(&b.mu)
	if b.interval > 0 {
		go b.healthLoop()
	}
	return b
}

// addMemberLocked starts placing jobs on ev, healthy until evidence
// says otherwise. Callers hold b.mu and broadcast on b.cond once they
// release it, so waiting placement loops see the new slots.
func (b *Balancer) addMemberLocked(ev Evaluator, name string, standby bool) *member {
	w := LocalStats(ev).Workers
	if w <= 0 {
		w = b.width
	}
	m := &member{ev: ev, name: name, width: w, standby: standby, healthy: true, down: make(chan struct{})}
	b.members = append(b.members, m)
	return m
}

// retireLocked stops placing jobs on m. Its in-flight jobs keep
// running, and its scorecard and stats stay reported. Callers hold b.mu
// and broadcast once they release it, so waiters re-evaluate placement.
func (b *Balancer) retireLocked(m *member) { m.retired = true }

// queueDepth returns how many jobs wait in placement loops for a slot.
func (b *Balancer) queueDepth() int { return int(b.queued.Load()) }

// snapshot returns the current member list, retired members included.
func (b *Balancer) snapshot() []*member {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.members
}

// backendName labels one backend for health reports: its peer URL when
// it has one (the remote client), its self-reported name, or a
// positional fallback.
func backendName(ev Evaluator, i int) string {
	if p, ok := ev.(interface{ Peer() string }); ok {
		return p.Peer()
	}
	if n, ok := ev.(interface{ Name() string }); ok {
		return n.Name()
	}
	if _, ok := ev.(*Engine); ok {
		return fmt.Sprintf("local/%d", i)
	}
	return fmt.Sprintf("backend/%d", i)
}

// Size returns the number of backends behind the balancer, retired
// members included (their counters still report).
func (b *Balancer) Size() int { return len(b.snapshot()) }

// Backend returns backend i, for stats drill-down and tests. Members
// are only ever appended, so an index observed via Size stays valid.
func (b *Balancer) Backend(i int) Evaluator { return b.snapshot()[i].ev }

// MaxRetries returns the per-job failover budget.
func (b *Balancer) MaxRetries() int { return b.maxRetries }

// Retries returns how many re-dispatches (attempts after each job's
// first) the balancer has performed over its lifetime.
func (b *Balancer) Retries() uint64 { return b.retries.Load() }

// Chunk returns the configured chunk cap (0 or 1: per-job dispatch).
func (b *Balancer) Chunk() int { return b.chunk }

// Chunks returns how many chunked dispatch units the balancer has
// issued over its lifetime.
func (b *Balancer) Chunks() uint64 { return b.chunks.Load() }

// ChunkResumes returns how many chunks ended with unresolved jobs that
// were re-chunked onto other backends — the severed-stream recoveries.
func (b *Balancer) ChunkResumes() uint64 { return b.chunkResumes.Load() }

// ResultCache returns the result-cache tier consulted before every
// placement, or nil when the balancer runs uncached.
func (b *Balancer) ResultCache() ResultCache { return b.cache }

// CacheHits returns how many jobs were resolved from the result cache
// without ever being placed on a backend.
func (b *Balancer) CacheHits() uint64 { return b.cacheHits.Load() }

// Health snapshots every backend's scorecard, in backend order. It
// reads only balancer-local state — no network I/O — so it is safe in
// liveness paths.
func (b *Balancer) Health() []BackendHealth {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]BackendHealth, len(b.members))
	for i, m := range b.members {
		out[i] = BackendHealth{
			Name:            m.name,
			Healthy:         m.healthy && !m.retired,
			Width:           m.width,
			Inflight:        m.inflight,
			Dispatched:      m.dispatched,
			Completed:       m.completed,
			Failed:          m.failed,
			Failovers:       m.failovers,
			Probes:          m.probes,
			ProbeFailures:   m.probeFailures,
			Chunks:          m.chunks,
			ChunkResumes:    m.chunkResumes,
			CapacityScrapes: m.capScrapes,
			Retired:         m.retired,
			Standby:         m.standby,
			LastError:       m.lastErr,
		}
		if m.cap != nil {
			c := *m.cap
			out[i].Capacity = &c
		}
	}
	return out
}

// Stats sums the backends' own counters plus the balancer's own Stream
// calls — the Evaluator view. Remote backends answer with a peer
// scrape; for the balancer's dispatch/failover view use Health.
func (b *Balancer) Stats() Stats {
	t := Stats{Streams: b.Streams()}
	for _, st := range b.BackendStats() {
		t = t.Add(st)
	}
	return t
}

// Streams returns how many Stream calls the balancer has served.
func (b *Balancer) Streams() uint64 { return b.streams.Load() }

// BackendStats returns one stats snapshot per backend, in backend
// order, queried concurrently (a remote backend's Stats is a network
// scrape, so the set pays the slowest backend, not the sum).
func (b *Balancer) BackendStats() []Stats { return BackendStats(b) }

// Close stops the health loop, wakes every dispatch waiting for a slot
// (they resolve their jobs with ErrClosed), closes every backend
// concurrently, and releases the attached result cache last (a tier
// drains its queued peer fills there), joining every error. Idempotent.
func (b *Balancer) Close() error {
	var err error
	b.stopOnce.Do(func() {
		b.mu.Lock()
		b.closed = true
		members := b.members
		b.mu.Unlock()
		close(b.stop)
		b.cond.Broadcast()
		errs := make([]error, len(members), len(members)+1)
		var wg sync.WaitGroup
		for i, m := range members {
			wg.Add(1)
			go func(i int, ev Evaluator) {
				defer wg.Done()
				errs[i] = ev.Close()
			}(i, m.ev)
		}
		wg.Wait()
		errs = append(errs, closeResultCache(b.cache))
		err = errors.Join(errs...)
	})
	return err
}

// Run dispatches every job to the healthiest least-loaded backend,
// failing over on backend-level errors, and returns results in
// submission order — Engine.Run semantics over the set.
func (b *Balancer) Run(ctx context.Context, jobs []Job) ([]Result, error) {
	out := make([]Result, len(jobs))
	b.dispatch(ctx, jobs, func(i int, r Result) { out[i] = r })
	return out, ctx.Err()
}

// Stream dispatches like Run but yields each result the moment its job
// resolves (after any failover), in completion order. The channel is
// buffered to len(jobs) and always closes — the Evaluator contract.
func (b *Balancer) Stream(ctx context.Context, jobs []Job) <-chan Result {
	b.streams.Add(1)
	out := make(chan Result, len(jobs))
	if len(jobs) == 0 {
		close(out)
		return out
	}
	go func() {
		defer close(out)
		b.dispatch(ctx, jobs, func(_ int, r Result) { out <- r })
	}()
	return out
}

// cacheStore records one successful result in the result cache,
// best-effort — called outside b.mu because a tiered cache fans the
// fill out to peers.
func (b *Balancer) cacheStore(ctx context.Context, j Job, v any) {
	if b.cache == nil || j.Spec == nil {
		return
	}
	b.cache.Store(ctx, j.Spec, v)
}

// filterCached resolves every cache-hit job up front — concurrently,
// since a miss may cost a peer round-trip — and returns the indices
// still needing dispatch, so a hot job never takes a slot.
func (b *Balancer) filterCached(ctx context.Context, jobs []Job, emit func(int, Result)) []int {
	hit := make([]bool, len(jobs))
	vals := make([]any, len(jobs))
	sem := make(chan struct{}, 16)
	var wg sync.WaitGroup
	for i := range jobs {
		if jobs[i].Spec == nil || ctx.Err() != nil {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			vals[i], hit[i] = b.cache.Lookup(ctx, jobs[i].Spec)
		}(i)
	}
	wg.Wait()
	pending := make([]int, 0, len(jobs))
	for i := range jobs {
		if hit[i] {
			b.cacheHits.Add(1)
			emit(i, Result{ID: jobs[i].ID, Value: vals[i], Worker: -1})
		} else {
			pending = append(pending, i)
		}
	}
	return pending
}

// errAllTried is acquire's signal that every backend is excluded for
// this job — the caller decides whether the retry budget allows a fresh
// pass.
var errAllTried = errors.New("engine: every backend already tried")

// chunkItem is one job's book-keeping in the placement loop: its index
// in the batch, how many attempts it has consumed, and the backends
// excluded by earlier failures. An item is owned by exactly one party
// at a time — the dispatch loop while queued, one attempt while in
// flight — so its fields need no lock of their own.
type chunkItem struct {
	idx     int
	attempt int
	exclude map[*member]bool
}

// dispatch resolves every job exactly once through emit(jobIndex,
// result), moving jobs in chunks of up to the chunk cap: each arriving
// result acknowledges its job, and an attempt re-queues only the jobs
// it left unresolved or lost to a backend-level failure — so failover
// costs re-running the jobs a dying backend actually dropped, and a
// healthy chunked sweep pays one request per chunk instead of one per
// job.
//
// A single placement loop owns the queue: it waits for a slot on the
// best backend (most free slots, refined by scraped capacity), pops the
// largest admissible chunk, and hands it to a concurrent attempt.
// Attempts re-queue unresolved or retryable items and wake the loop;
// the loop exits when the queue is empty and nothing is in flight. A
// watcher broadcasts on the context ending so slot waiters observe the
// cancellation.
func (b *Balancer) dispatch(ctx context.Context, jobs []Job, emit func(int, Result)) {
	if len(jobs) == 0 {
		return
	}
	watchDone := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			// Broadcast under mu: a waiter that checked ctx.Err() just
			// before the cancellation still holds mu until its Wait
			// parks it, so taking the lock here orders this wakeup
			// after that park — an unlocked Broadcast could fire into
			// the gap and strand the waiter forever.
			b.mu.Lock()
			b.cond.Broadcast()
			b.mu.Unlock()
		case <-watchDone:
		}
	}()
	defer close(watchDone)

	// Cache hits resolve before the queue exists: a hot job neither
	// rides a chunk nor occupies a reservation another job could use.
	pending := make([]int, 0, len(jobs))
	if b.cache != nil {
		pending = b.filterCached(ctx, jobs, emit)
	} else {
		for i := range jobs {
			pending = append(pending, i)
		}
	}

	var (
		mu       sync.Mutex
		queue    = make([]*chunkItem, 0, len(pending))
		inflight int
		wake     = make(chan struct{}, 1)
	)
	for _, i := range pending {
		queue = append(queue, &chunkItem{idx: i, exclude: map[*member]bool{}})
	}
	b.queued.Add(int64(len(queue)))
	signal := func() {
		select {
		case wake <- struct{}{}:
		default:
		}
	}

	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		mu.Lock()
		if len(queue) == 0 {
			if inflight == 0 {
				mu.Unlock()
				return
			}
			mu.Unlock()
			<-wake // an attempt always signals on completion
			continue
		}
		front := queue[0]
		mu.Unlock()

		// Place the front item first — acquire honours its exclusions,
		// so the oldest re-queued job cannot starve behind fresh ones —
		// then widen the chunk with other items that admit the same
		// backend.
		m, want, err := b.acquire(ctx, front.exclude)
		if err == errAllTried {
			clear(front.exclude)
			continue
		}
		if err != nil {
			// The caller's context ended or the balancer closed: resolve
			// everything still queued; in-flight attempts resolve their
			// own items against the same condition.
			mu.Lock()
			rest := queue
			queue = nil
			mu.Unlock()
			b.queued.Add(-int64(len(rest)))
			for _, it := range rest {
				emit(it.idx, Result{ID: jobs[it.idx].ID, Err: err, Worker: -1})
			}
			continue
		}

		mu.Lock()
		take := make([]*chunkItem, 0, want)
		rest := queue[:0]
		for _, it := range queue {
			if len(take) < want && !it.exclude[m] {
				take = append(take, it)
			} else {
				rest = append(rest, it)
			}
		}
		queue = rest
		inflight += len(take)
		mu.Unlock()
		b.queued.Add(-int64(len(take)))
		if extra := want - len(take); extra > 0 {
			b.releaseSlots(m, extra)
		}
		redispatched := 0
		for _, it := range take {
			if it.attempt > 0 {
				redispatched++
			}
		}
		if redispatched > 0 {
			b.retries.Add(uint64(redispatched))
		}

		wg.Add(1)
		go func(m *member, take []*chunkItem) {
			defer wg.Done()
			requeue := b.attempt(ctx, m, jobs, take, emit)
			mu.Lock()
			queue = append(queue, requeue...)
			inflight -= len(take)
			mu.Unlock()
			b.queued.Add(int64(len(requeue)))
			signal()
		}(m, take)
	}
}

// acquire reserves up to the chunk cap's worth of dispatch slots on one
// backend: the healthy non-excluded backend with the most free slots
// (static width refined by the live worker count a capacity scrape
// reported), the chunk capped further by the peer's scraped free
// workers so a busy peer sheds load. When every non-excluded backend is
// unhealthy, the one with the most free slots is used as a last resort
// (its failure re-confirms it is down and keeps all-backends-down
// batches resolving instead of hanging). When every backend is
// excluded, acquire returns errAllTried; when eligible backends exist
// but all slots are taken, it waits for a release, a health or
// membership change, cancellation, or Close. The caller returns unused
// reservations through releaseSlots.
func (b *Balancer) acquire(ctx context.Context, exclude map[*member]bool) (*member, int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		if b.closed {
			return nil, 0, ErrClosed
		}
		start := b.rr
		b.rr++
		var best *member
		bestFree := 0
		allTried, healthyLeft := true, false
		for k := range b.members {
			m := b.members[(start+k)%len(b.members)]
			if exclude[m] || m.retired {
				continue
			}
			allTried = false
			if !m.healthy {
				continue
			}
			healthyLeft = true
			if free := m.freeSlotsLocked(); free > 0 && (best == nil || free > bestFree) {
				best, bestFree = m, free
			}
		}
		if allTried {
			return nil, 0, errAllTried
		}
		if best == nil && !healthyLeft {
			for k := range b.members {
				m := b.members[(start+k)%len(b.members)]
				if exclude[m] || m.retired {
					continue
				}
				if free := m.freeSlotsLocked(); free > 0 && (best == nil || free > bestFree) {
					best, bestFree = m, free
				}
			}
		}
		if best != nil {
			n := min(bestFree, max(1, b.chunk))
			// Live capacity caps the chunk further — including Free 0,
			// which caps to the 1-job minimum: a saturated peer must
			// shed load, not receive the largest chunk. Scrapes with no
			// reported pool (a proxy-only front's meaningless zeros)
			// are ignored, like freeSlotsLocked does.
			if c := best.cap; c != nil && c.Workers > 0 && c.Free < n {
				n = c.Free
			}
			if n < 1 {
				n = 1
			}
			best.inflight += n
			return best, n, nil
		}
		b.cond.Wait()
	}
}

// releaseSlots returns n unused dispatch-slot reservations on m and
// wakes waiters.
func (b *Balancer) releaseSlots(m *member, n int) {
	b.mu.Lock()
	m.inflight -= n
	b.mu.Unlock()
	b.cond.Broadcast()
}

// attempt runs one chunk on one backend, resolving acknowledged jobs
// and returning the items the dispatch loop must re-queue: jobs the
// chunk left unresolved (the stream was severed under them) and jobs
// whose result is a backend-level failure within the retry budget. A
// 1-job chunk, and any chunk on a backend without the chunk
// capability, runs as one Run batch; a multi-job chunk on a
// ChunkDispatcher runs as one acknowledged stream.
//
// While the attempt is in flight it watches an abandonment signal: for
// a healthy member, its down channel — a backend declared dead
// mid-attempt (a failed probe, another job's backend-level failure)
// has its attempt abandoned and re-classified ErrUnavailable, so a
// wedged-but-connected peer — a network partition, a stopped process
// holding its TCP connections open — cannot hold the jobs hostage past
// the health verdict. For a member already unhealthy at dispatch (the
// all-backends-down last resort) the watch is the balancer-wide
// revived signal instead: the attempt runs (there is nowhere better to
// go, and a success redeems the backend) until some other backend
// comes back, at which point the jobs abandon the wedge and
// re-dispatch to the survivor.
func (b *Balancer) attempt(ctx context.Context, m *member, jobs []Job, items []*chunkItem, emit func(int, Result)) []*chunkItem {
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	stop := make(chan struct{})
	go b.watchAttempt(m, stop, cancel)

	// Chunk units are counted only when chunking is configured, so a
	// per-job front reports no chunks at all.
	chunked := b.chunk > 1
	b.mu.Lock()
	m.dispatched += uint64(len(items))
	if chunked {
		m.chunks++
	}
	b.mu.Unlock()
	if chunked {
		b.chunks.Add(1)
	}

	chunkJobs := make([]Job, len(items))
	for i, it := range items {
		chunkJobs[i] = jobs[it.idx]
	}
	resolved := make([]bool, len(items))
	results := make([]Result, len(items))
	var chunkErr error
	if cd, ok := m.ev.(ChunkDispatcher); ok && len(items) > 1 {
		chunkErr = cd.DispatchChunk(actx, chunkJobs, func(i int, r Result) {
			if i < 0 || i >= len(items) || resolved[i] {
				return
			}
			resolved[i], results[i] = true, r
		})
	} else {
		rs, _ := m.ev.Run(actx, chunkJobs)
		for i := range items {
			if i < len(rs) {
				resolved[i], results[i] = true, rs[i]
			}
		}
		if len(rs) < len(items) {
			chunkErr = fmt.Errorf("engine: backend %s returned %d results for %d jobs: %w",
				m.name, len(rs), len(items), ErrUnavailable)
		}
	}
	close(stop)
	abandoned := actx.Err() != nil && ctx.Err() == nil

	type pending struct {
		idx int
		r   Result
	}
	var toEmit []pending
	var requeue []*chunkItem
	sawSuccess, sawRetryable, sawJobLevel := false, false, false
	b.mu.Lock()
	m.inflight -= len(items)
	for i, it := range items {
		r := results[i]
		if !resolved[i] {
			err := chunkErr
			if err == nil {
				err = fmt.Errorf("engine: chunk on %s ended with job %q unresolved: %w",
					m.name, chunkJobs[i].ID, ErrUnavailable)
			}
			if abandoned {
				err = fmt.Errorf("engine: attempt on %s abandoned after the fleet's health changed: %w",
					m.name, ErrUnavailable)
			}
			r = Result{ID: chunkJobs[i].ID, Err: err, Worker: -1}
		} else if r.Err != nil && abandoned {
			// The balancer abandoned the attempt, not the caller: the
			// failure is backend-level, so the job may run elsewhere.
			r.Err = fmt.Errorf("engine: attempt on %s abandoned after the fleet's health changed: %w",
				m.name, ErrUnavailable)
			r.Worker = -1
		}
		switch {
		case r.Err == nil:
			m.completed++
			sawSuccess = true
			toEmit = append(toEmit, pending{it.idx, r})
		case Retryable(r.Err):
			sawRetryable = true
			m.lastErr = r.Err.Error()
			if it.attempt >= b.maxRetries {
				m.failed++
				toEmit = append(toEmit, pending{it.idx, r})
			} else {
				m.failovers++
				it.attempt++
				it.exclude[m] = true
				requeue = append(requeue, it)
			}
		default:
			// The job ran and failed on its own terms (or the caller's
			// context ended); the backend is not at fault.
			m.failed++
			sawJobLevel = true
			toEmit = append(toEmit, pending{it.idx, r})
		}
	}
	// Evidence the backend ran jobs (a success, or a job-level failure)
	// clears the failure streak before this attempt's own backend-level
	// failures count against it, so a live backend is not marked down
	// by stale streaks.
	if sawSuccess {
		b.setHealthLocked(m, true)
	} else if sawJobLevel {
		m.consecutive = 0
	}
	if sawRetryable {
		m.consecutive++
		if m.consecutive >= b.threshold {
			b.setHealthLocked(m, false)
		}
	}
	if chunked && len(requeue) > 0 {
		m.chunkResumes++
		b.chunkResumes.Add(1)
	}
	b.mu.Unlock()
	b.cond.Broadcast()
	for _, p := range toEmit {
		if p.r.Err == nil {
			b.cacheStore(ctx, jobs[p.idx], p.r.Value)
		}
		emit(p.idx, p.r)
	}
	return requeue
}

// watchAttempt watches one in-flight attempt on m and cancels it when
// the fleet's health says the job should move: a healthy member's
// attempt abandons when that member goes down; a last-resort attempt on
// an unhealthy member abandons when some OTHER member becomes healthy.
// The member's own recovery mid-attempt is not an abandonment — the
// running job is the evidence it recovered — so the watch re-arms on
// the member's fresh down channel instead of cancelling.
func (b *Balancer) watchAttempt(m *member, stop <-chan struct{}, cancel context.CancelFunc) {
	for {
		b.mu.Lock()
		wasHealthy := m.healthy
		ch := m.down
		if !wasHealthy {
			ch = b.revived
		}
		b.mu.Unlock()
		select {
		case <-stop:
			return
		case <-ch:
		}
		b.mu.Lock()
		abandon := wasHealthy // the member we were running on went down
		if !wasHealthy && !m.healthy {
			// A revival fired elsewhere while m stayed down: move the
			// job if somewhere healthy actually exists right now.
			for _, o := range b.members {
				if o != m && o.healthy && !o.retired {
					abandon = true
					break
				}
			}
		}
		b.mu.Unlock()
		if abandon {
			cancel()
			return
		}
	}
}

// healthLoop drives periodic probing until Close.
func (b *Balancer) healthLoop() {
	t := time.NewTicker(b.interval)
	defer t.Stop()
	for {
		select {
		case <-b.stop:
			return
		case <-t.C:
			b.ProbeNow(context.Background())
		}
	}
}

// ProbeNow probes every live backend once, concurrently, and applies
// the verdicts — the health loop's body, exported so tests (and callers
// that just revived a peer) can force a deterministic round.
func (b *Balancer) ProbeNow(ctx context.Context) {
	b.mu.Lock()
	var live []*member
	for _, m := range b.members {
		if !m.retired {
			live = append(live, m)
		}
	}
	b.mu.Unlock()
	var wg sync.WaitGroup
	for _, m := range live {
		wg.Add(1)
		go func(m *member) {
			defer wg.Done()
			b.probe(ctx, m)
		}(m)
	}
	wg.Wait()
}

// probe checks one backend's liveness under the probe timeout and
// applies the verdict. A clean probe revives a backend that job
// results had marked down; waiters are woken either way, since a
// health change can unblock placement. Backends without a Prober are
// left untouched: fabricating health with no evidence would revive a
// reactively-down backend and route fresh jobs into it — their
// verdicts come from job results alone (and from the last-resort
// dispatch path, where a success redeems them).
func (b *Balancer) probe(ctx context.Context, m *member) {
	p, ok := m.ev.(Prober)
	if !ok {
		return
	}
	pctx, cancel := context.WithTimeout(ctx, b.probeTimeout)
	err := p.Probe(pctx)
	cancel()
	b.mu.Lock()
	m.probes++
	if err != nil {
		m.probeFailures++
		m.lastErr = err.Error()
		b.setHealthLocked(m, false)
	} else {
		b.setHealthLocked(m, true)
	}
	b.mu.Unlock()
	b.cond.Broadcast()
	if err == nil {
		b.scrapeCapacity(ctx, m)
	}
}

// scrapeCapacity refreshes one live backend's capacity snapshot — the
// probe round's second question, asked only after a clean liveness
// verdict so a dead peer is not asked twice. A failed scrape keeps the
// previous snapshot: stale capacity still beats the static width hint,
// and liveness is the probe's verdict to give, not this one's.
func (b *Balancer) scrapeCapacity(ctx context.Context, m *member) {
	cr, ok := m.ev.(CapacityReporter)
	if !ok {
		return
	}
	cctx, cancel := context.WithTimeout(ctx, b.probeTimeout)
	c, err := cr.Capacity(cctx)
	cancel()
	if err != nil {
		return
	}
	b.mu.Lock()
	m.cap = &c
	m.capScrapes++
	b.mu.Unlock()
	b.cond.Broadcast()
}

// Capacity answers the CapacityReporter query from the balancer's
// tracked state — the live members' most recent scrapes where one
// exists, local counters otherwise — so nested balancers report fleet
// capacity without a fresh network round. Queue also counts the jobs
// waiting in the balancer's own placement loops.
func (b *Balancer) Capacity(context.Context) (Capacity, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return Capacity{}, ErrClosed
	}
	t := Capacity{Queue: b.queueDepth()}
	for _, m := range b.members {
		if m.retired {
			continue
		}
		if m.cap != nil {
			t.Workers += m.cap.Workers
			t.Busy += m.cap.Busy
			t.Free += m.cap.Free
			t.Queue += m.cap.Queue
			continue
		}
		c := CapacityFromStats(LocalStats(m.ev))
		t.Workers += c.Workers
		t.Busy += c.Busy
		t.Free += c.Free
		t.Queue += c.Queue
	}
	return t, nil
}

// Probe reports the balancer's own aggregate verdict — alive while any
// live backend is marked healthy — so balancers nest behind other
// balancers. It reads only tracked state; no backend is contacted.
func (b *Balancer) Probe(context.Context) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ErrClosed
	}
	live := 0
	for _, m := range b.members {
		if !m.retired {
			if m.healthy {
				return nil
			}
			live++
		}
	}
	return fmt.Errorf("%w: all %d backends unhealthy", ErrUnavailable, live)
}
