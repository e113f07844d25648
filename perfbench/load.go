package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/gate"
	"repro/internal/xlate"
)

// setupReps is how many times a run builds its stack from cold caches;
// setup_s is the median.
const setupReps = 31

// sample is one completed submission as the client saw it.
type sample struct {
	// idx and kind identify the job; its source is re-derived from the
	// stream when needed, so samples never keep program text alive.
	idx      int64
	kind     jobKind
	lat      time.Duration // submit → row, client side
	elapsed  time.Duration // the job's own run time (0 for a replayed row)
	replay   bool          // answered by the result cache
	inWindow bool          // completed before the deadline
	bad      string        // why the row failed verification ("" = good)
	checksum int
	cycles   uint64
	artInsts int
	row      *bench.JobReport // kept only when the caller asks
	rep      *replicaOut      // the traced run's replica output
}

// checker holds what rows are verified against.
type checker struct {
	// want holds the expected row of every suite program and, once
	// warmed, every cache-mix pool program (its first evaluation).
	mu   sync.Mutex
	want map[string]*bench.JobReport
}

func wantKey(j job) string {
	if j.kind == suiteJob {
		return j.mj.Workload
	}
	return j.mj.Name
}

func (c *checker) expected(j job) *bench.JobReport {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.want[wantKey(j)]
}

func (c *checker) remember(j job, row *bench.JobReport) {
	c.mu.Lock()
	c.want[wantKey(j)] = row
	c.mu.Unlock()
}

// newChecker computes the expected rows of the §V-A programs in-process
// (bench.RunCtx plus the report rendering every front uses). It resolves
// technologies and analyses through the shared caches, so callers purge
// those before timing set-up.
func newChecker(ctx context.Context, w *workload) (*checker, error) {
	c := &checker{want: map[string]*bench.JobReport{}}
	if w.kind != localStack {
		return c, nil
	}
	techs, err := bench.Technologies(techNames)
	if err != nil {
		return nil, err
	}
	for _, bw := range bench.Workloads {
		o, err := bench.RunCtx(ctx, bw, xlate.Options{})
		if err != nil {
			return nil, err
		}
		ref, err := reference(bw.Source)
		if err != nil {
			return nil, err
		}
		if o.Checksum != ref {
			return nil, fmt.Errorf("%s: in-process checksum %d != rv32 reference %d", bw.Name, o.Checksum, ref)
		}
		row := bench.JobReportOf(engine.Result{ID: bw.Name, Value: o}, techs)
		c.want[bw.Name] = &row
	}
	return c, nil
}

// sameRow compares two rows on everything but timing and placement.
func sameRow(a, b *bench.JobReport) bool {
	if a.Name != b.Name || a.OK != b.OK || a.Error != b.Error || a.ErrorKind != b.ErrorKind {
		return false
	}
	if (a.Metrics == nil) != (b.Metrics == nil) || (a.Metrics != nil && *a.Metrics != *b.Metrics) {
		return false
	}
	if len(a.Implementations) != len(b.Implementations) {
		return false
	}
	for i := range a.Implementations {
		if a.Implementations[i] != b.Implementations[i] {
			return false
		}
	}
	return true
}

// submit runs one job through the stack and checks what can be checked
// before the RV32 reference is known: the row is ok, carries metrics and
// one estimate per technology, and — for suite and pool programs — equals
// its expected row.
func (st *stack) submit(ctx context.Context, c *checker, j job, keep bool) sample {
	s := sample{idx: j.idx, kind: j.kind}
	ej, err := engineJob(j.mj)
	if err != nil {
		s.bad = err.Error()
		return s
	}
	t0 := time.Now()
	res, err := st.ev.Run(ctx, []engine.Job{ej})
	var row bench.JobReport
	if err == nil {
		row = bench.JobReportOf(res[0], st.techs)
	}
	s.lat = time.Since(t0)
	switch {
	case err != nil:
		s.bad = err.Error()
		return s
	case !row.OK:
		s.bad = "row not ok: " + row.Error
		return s
	case row.Metrics == nil || len(row.Implementations) != len(techNames):
		s.bad = "row lacks metrics or implementations"
		return s
	}
	s.elapsed = res[0].Elapsed
	// The result cache answers with Worker -1; a peer's row carries the
	// peer's worker index.
	s.replay = res[0].Worker == -1
	s.checksum = row.Metrics.Checksum
	s.cycles = row.Metrics.ART9Cycles
	s.artInsts = row.Metrics.ARTInsts
	if keep {
		s.row = &row
	}
	if want := c.expected(j); want != nil && !sameRow(&row, want) {
		s.bad = fmt.Sprintf("row differs from its expected row (job %s)", row.Name)
	}
	return s
}

// drive runs clients() closed loops. Each claims the next index k
// (0, 1, 2, …) and calls run(k); the loops stop after count jobs, or —
// when count is 0 — once the deadline d passes (an in-flight job still
// completes and is kept, marked outside the window). busy is the time
// from the start to the last completion inside the window, so a rate
// over it is not quantized by the window length.
func drive(count int64, d time.Duration, run func(k int64) sample) (samples []sample, busy time.Duration) {
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			var last time.Duration
			for {
				if count == 0 && !time.Now().Before(deadline) {
					break
				}
				k := next.Add(1) - 1
				if count > 0 && k >= count {
					break
				}
				s := run(k)
				now := time.Now()
				s.inWindow = count > 0 || now.Before(deadline)
				if s.inWindow {
					last = now.Sub(start)
				}
				mine = append(mine, s)
			}
			mu.Lock()
			samples = append(samples, mine...)
			busy = max(busy, last)
			mu.Unlock()
		}()
	}
	wg.Wait()
	sort.Slice(samples, func(a, b int) bool { return samples[a].idx < samples[b].idx })
	return samples, busy
}

// window is one timed closed-loop run with its memory figures.
type window struct {
	samples []sample
	dur     time.Duration // start to the last completion inside the window
	allocKB float64       // heap allocated during the window, KiB
	rssMB   float64       // peak resident set during the window, MB
}

// timeWindow runs the stream from job 0 for d, recording heap
// allocation and sampling the resident set every 10 ms.
func timeWindow(d time.Duration, run func(k int64) sample) window {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stop := make(chan struct{})
	peak := make(chan float64)
	go func() {
		hi := rssMB()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				hi = max(hi, rssMB())
			case <-stop:
				peak <- max(hi, rssMB())
				return
			}
		}
	}()
	samples, busy := drive(0, d, run)
	runtime.ReadMemStats(&after)
	close(stop)
	return window{
		samples: samples,
		dur:     busy,
		allocKB: float64(after.TotalAlloc-before.TotalAlloc) / 1024,
		rssMB:   <-peak,
	}
}

// rssMB reads the process's resident set from /proc/self/statm (0 where
// the file is unavailable).
func rssMB() float64 {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(raw))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / 1e6
}

// verify completes the checks submit could not make. Every generated
// program's checksum must equal the benchmark's own RV32 run of it, and
// every row of the sim_cycles prefix must equal an in-process evaluation
// of the same program, field for field. Work is spread over clients()
// goroutines.
func verify(ctx context.Context, w *workload, techs []*gate.Technology, samples []sample) {
	forEach(len(samples), func(i int) {
		if s := &samples[i]; s.bad == "" && s.kind == freshJob {
			s.bad = checkGenerated(ctx, techs, w.at(s.idx), s)
		}
	})
}

// forEach calls f(0) … f(n-1) from clients() goroutines and returns when
// every call has.
func forEach(n int, f func(i int)) {
	var wg sync.WaitGroup
	var next atomic.Int64
	for g := 0; g < clients(); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// checkGenerated checks a generated program's row: its checksum must
// equal the RV32 reference and, when the row was kept, the whole row must
// equal an in-process evaluation.
func checkGenerated(ctx context.Context, techs []*gate.Technology, j job, s *sample) string {
	ref, err := reference(j.mj.Source)
	switch {
	case err != nil:
		return err.Error()
	case ref != s.checksum:
		return fmt.Sprintf("%s: checksum %d != rv32 reference %d", j.mj.Name, s.checksum, ref)
	case s.row != nil:
		return checkInProcess(ctx, techs, j, s.row)
	}
	return ""
}

// checkInProcess evaluates a job with bench.RunCtx and the shared report
// rendering and compares the result with the row the stack returned.
func checkInProcess(ctx context.Context, techs []*gate.Technology, j job, row *bench.JobReport) string {
	wl, err := j.mj.Resolve("")
	if err != nil {
		return err.Error()
	}
	o, err := bench.RunCtx(ctx, wl, xlate.Options{})
	if err != nil {
		return err.Error()
	}
	want := bench.JobReportOf(engine.Result{ID: wl.Name, Value: o}, techs)
	if !sameRow(row, &want) {
		return fmt.Sprintf("%s: row differs from an in-process evaluation", wl.Name)
	}
	return ""
}

// tally counts attempts and failures and checks that jobs 0…prefix-1
// all ran.
func tally(samples []sample, prefix int64) (attempted, failed int, firstBad string) {
	seen := make([]bool, prefix)
	for _, s := range samples {
		attempted++
		if s.bad != "" {
			failed++
			if firstBad == "" {
				firstBad = s.bad
			}
		}
		if s.idx >= 0 && s.idx < prefix {
			seen[s.idx] = true
		}
	}
	for i, ok := range seen {
		if !ok && firstBad == "" {
			firstBad = fmt.Sprintf("job %d of the %d-job cycle prefix never ran: run longer", i, prefix)
		}
	}
	return attempted, failed, firstBad
}

// meanPrefixCycles is sim_cycles_per_job: mean simulated pipeline cycles
// over the stream's first w.prefix jobs.
func meanPrefixCycles(w *workload, samples []sample) (cycles, insts float64) {
	var c, n uint64
	var in int
	for _, s := range samples {
		if s.idx >= 0 && s.idx < w.prefix {
			c += s.cycles
			in += s.artInsts
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return float64(c) / float64(n), float64(in) / float64(n)
}

// quantile is the nearest-rank q-quantile of ds, in milliseconds.
func quantile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	i := int(q*float64(len(s))+0.5) - 1
	i = min(max(i, 0), len(s)-1)
	return float64(s[i]) / 1e6
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// prepare builds the run's stack setupReps times from purged shared
// caches, timing each build up to and including its first job (a fixed
// program, so set-up does not depend on the seed), keeps the last stack,
// warms the cache-mix pool and runs the warm-up jobs. Warm-up is never
// timed; the one-time costs it pays first are in the set-up figure.
func prepare(ctx context.Context, w *workload, c *checker) (st *stack, setups []float64, warm []sample, err error) {
	first := job{idx: -1, mj: bench.ManifestJob{Workload: bench.StrSearch.Name}, kind: suiteJob}
	firstRef, err := reference(bench.StrSearch.Source)
	if err != nil {
		return nil, nil, nil, err
	}
	for r := 0; r < setupReps; r++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, nil, nil, err
			}
		}
		engine.SharedPrograms.Purge()
		engine.SharedAnalyses.Purge()
		runtime.GC()
		t0 := time.Now()
		st, err = openStack(ctx, w.kind)
		if err != nil {
			return nil, nil, nil, err
		}
		s := st.submit(ctx, c, first, false)
		setups = append(setups, time.Since(t0).Seconds())
		if s.bad == "" && s.checksum != firstRef {
			s.bad = fmt.Sprintf("set-up job: checksum %d != rv32 reference %d", s.checksum, firstRef)
		}
		warm = append(warm, s)
	}
	for _, p := range w.pool {
		s := st.submit(ctx, c, p, true)
		if s.bad == "" {
			s.bad = checkGenerated(ctx, st.techs, p, &s)
		}
		if s.bad == "" {
			c.remember(p, s.row)
		}
		warm = append(warm, s)
	}
	ws, _ := drive(int64(w.warm), 0, func(k int64) sample { return st.submit(ctx, c, w.at(-1-k), false) })
	verify(ctx, w, st.techs, ws)
	return st, setups, append(warm, ws...), nil
}
