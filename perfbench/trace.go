package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"time"

	"repro/internal/asm"
	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/gate"
	"repro/internal/rescache"
	"repro/internal/rv32"
	"repro/internal/sim"
	"repro/internal/ternary"
	"repro/internal/xlate"
)

// The traced run never feeds the end-to-end figures. It times calls into
// each module's public functions from the benchmark's side: a
// stage-by-stage replica of the evaluation job, submitted to a local
// engine as closures, records one span per call. A layer's self time is
// its span's duration minus the time its child spans cover.

// span is one timed call. IDs are unique within a job; Parent is -1 for
// the job's root span.
type span struct {
	Name   string `json:"name"`
	Job    int64  `json:"job"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Note   string `json:"note,omitempty"`
}

// tracer keeps every span in memory until the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

// jobSpans collects one job's spans without locking.
type jobSpans struct {
	t     *tracer
	job   int64
	spans []span
}

func (t *tracer) job(idx int64) *jobSpans { return &jobSpans{t: t, job: idx} }

func (j *jobSpans) begin(name string, parent int) int {
	j.spans = append(j.spans, span{Name: name, Job: j.job, ID: len(j.spans),
		Parent: parent, Start: int64(time.Since(j.t.epoch))})
	return len(j.spans) - 1
}

func (j *jobSpans) end(id int) { j.spans[id].End = int64(time.Since(j.t.epoch)) }

func (j *jobSpans) flush() {
	j.t.mu.Lock()
	j.t.spans = append(j.t.spans, j.spans...)
	j.t.mu.Unlock()
}

// replicaOut is what one replica job produced.
type replicaOut struct {
	outcome   *bench.Outcome   // nil when the result cache answered
	row       *bench.JobReport // the replayed row of a cache hit
	fnRetired uint64
}

// replica re-does bench.RunCtx stage by stage, one span per public call,
// then renders the implementation estimates (bench.ImplFor) as every
// report row does. With a result cache it first looks the spec up and,
// on a miss, stores the outcome, as the engine's cache path does. Its
// Outcome must equal bench.RunCtx's field for field; the traced run
// checks that for every program it runs.
func replica(ctx context.Context, js *jobSpans, w bench.Workload, techs []*gate.Technology,
	cache *bench.ResultCache, spec *bench.JobSpec) (*replicaOut, error) {
	root := js.begin("job", -1)
	defer js.end(root)
	call := func(name string, f func() error) error {
		id := js.begin(name, root)
		err := f()
		js.end(id)
		return err
	}
	if cache != nil {
		id := js.begin("rescache.Lookup", root)
		v, hit := cache.Lookup(ctx, spec)
		js.end(id)
		if hit {
			js.spans[id].Note = "hit"
			return &replicaOut{row: v.(*bench.JobReport)}, nil
		}
		js.spans[id].Note = "miss"
	}
	stage := func(err error) error {
		if err != nil {
			return err
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("bench %s: %w", w.Name, err)
		}
		return nil
	}
	if err := stage(nil); err != nil {
		return nil, err
	}
	var rvProg *rv32.Program
	err := call("rv32.Assemble", func() (err error) {
		rvProg, err = rv32.Assemble(w.Source)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("bench %s: rv32 assemble: %w", w.Name, err)
	}
	m := rv32.NewMachine(1 << 16)
	vex := rv32.NewVexRiscvModel()
	pico := rv32.NewPicoRV32Model()
	m.Observe(vex)
	m.Observe(pico)
	if err := stage(call("rv32.Machine.Load", func() error { return m.Load(rvProg) })); err != nil {
		return nil, err
	}
	if err := call("rv32.Machine.Run", m.Run); err != nil {
		return nil, fmt.Errorf("bench %s: rv32 run: %w", w.Name, err)
	}
	ref := int(int32(m.Reg(10)))

	var out *xlate.Output
	if err := call("xlate.Translate", func() (err error) {
		out, err = xlate.Translate(rvProg, xlate.Options{})
		return err
	}); err != nil {
		return nil, fmt.Errorf("bench %s: translate: %w", w.Name, err)
	}
	var artProg *asm.Program
	if err := call("engine.AssembleCached", func() (err error) {
		artProg, err = engine.AssembleCached(out.Asm)
		return err
	}); err != nil {
		return nil, fmt.Errorf("bench %s: art9 assemble: %w", w.Name, err)
	}
	var data map[int]ternary.Word
	_ = call("xlate.DataImage", func() error { data = xlate.DataImage(rvProg); return nil })

	var fn *sim.Functional
	if err := stage(call("sim.Functional.setup", func() error {
		fn = sim.NewFunctional(sim.Config{})
		if err := fn.S.Load(artProg); err != nil {
			return err
		}
		return fn.S.TDM.SetAll(data)
	})); err != nil {
		return nil, err
	}
	var fres sim.Result
	if err := call("sim.Functional.Run", func() (err error) {
		fres, err = fn.Run()
		return err
	}); err != nil {
		return nil, fmt.Errorf("bench %s: art9 functional: %w", w.Name, err)
	}
	var fchk int
	if err := call("xlate.ReadBack", func() (err error) {
		fchk, err = out.ReadBack(fn.S, 10)
		return err
	}); err != nil {
		return nil, err
	}
	if fchk != ref {
		return nil, fmt.Errorf("bench %s: functional checksum %d != rv32 %d", w.Name, fchk, ref)
	}

	var pl *sim.Pipeline
	if err := stage(call("sim.Pipeline.setup", func() error {
		pl = sim.NewPipeline(sim.Config{})
		if err := pl.S.Load(artProg); err != nil {
			return err
		}
		return pl.S.TDM.SetAll(data)
	})); err != nil {
		return nil, err
	}
	var pres sim.Result
	if err := call("sim.Pipeline.Run", func() (err error) {
		pres, err = pl.Run()
		return err
	}); err != nil {
		return nil, fmt.Errorf("bench %s: art9 pipeline: %w", w.Name, err)
	}
	var pchk int
	if err := call("xlate.ReadBack", func() (err error) {
		pchk, err = out.ReadBack(pl.S, 10)
		return err
	}); err != nil {
		return nil, err
	}
	if pchk != ref {
		return nil, fmt.Errorf("bench %s: pipelined checksum %d != rv32 %d", w.Name, pchk, ref)
	}

	o := &bench.Outcome{
		Workload:        w,
		RVInsts:         len(rvProg.Insts),
		RVBits:          rvProg.TextBits(),
		ARMBits:         rv32.EstimateProgram(rvProg),
		ARTInsts:        len(artProg.Text),
		ARTTrits:        artProg.TextCells(),
		Checksum:        ref,
		ART9Cycles:      pres.Cycles,
		VexCycles:       vex.TotalCycles(),
		PicoCycles:      pico.TotalCycles(),
		ARTRetired:      pres.Retired,
		ARTStallsLoad:   pres.StallsLoad,
		ARTStallsBranch: pres.StallsBranch,
		ARTLoads:        pres.Loads,
		ARTStores:       pres.Stores,
		RVRetired:       m.Retired,
		Diagnostics:     out.Diagnostics,
		Removed:         out.Removed,
	}
	for _, tech := range techs {
		_ = call("bench.ImplFor", func() error { bench.ImplFor(o, tech); return nil })
	}
	if cache != nil {
		_ = call("rescache.Store", func() error { cache.Store(ctx, spec, o); return nil })
	}
	return &replicaOut{outcome: o, fnRetired: fres.Retired}, nil
}

// replicaSubmit runs job j as a replica closure on eng.
func replicaSubmit(ctx context.Context, eng *engine.Engine, tr *tracer, c *checker, techs []*gate.Technology,
	cache *bench.ResultCache, j job) sample {
	s := sample{idx: j.idx, kind: j.kind}
	wl, err := j.mj.Resolve("")
	if err != nil {
		s.bad = err.Error()
		return s
	}
	spec := &bench.JobSpec{Job: j.mj, Technologies: techNames}
	ej := engine.Job{ID: wl.Name, Fn: func(ctx context.Context) (any, error) {
		js := tr.job(j.idx)
		defer js.flush()
		return replica(ctx, js, wl, techs, cache, spec)
	}}
	t0 := time.Now()
	res, err := eng.Run(ctx, []engine.Job{ej})
	s.lat = time.Since(t0)
	if err == nil {
		err = res[0].Err
	}
	if err != nil {
		s.bad = err.Error()
		return s
	}
	s.elapsed = res[0].Elapsed
	out := res[0].Value.(*replicaOut)
	s.rep = out
	if out.row != nil {
		s.replay = true
		if want := c.expected(j); want == nil || out.row.Metrics == nil || *out.row.Metrics != *want.Metrics {
			s.bad = fmt.Sprintf("%s: replayed row differs from its first evaluation", wl.Name)
		}
		return s
	}
	s.checksum = out.outcome.Checksum
	if want := c.expected(j); want != nil && *bench.MetricsReportOf(out.outcome) != *want.Metrics {
		s.bad = fmt.Sprintf("%s: replica metrics differ from the expected row", wl.Name)
	}
	return s
}

// checkParity runs bench.RunCtx on every distinct program the replica
// evaluated and requires the two Outcomes to be equal field for field,
// marking mismatching samples bad. It returns how many programs it
// compared.
func checkParity(ctx context.Context, w *workload, samples []sample) int {
	seen := map[string]bool{}
	var todo []*sample
	for i := range samples {
		s := &samples[i]
		if s.bad != "" || s.rep == nil || s.rep.outcome == nil || seen[s.rep.outcome.Workload.Source] {
			continue
		}
		seen[s.rep.outcome.Workload.Source] = true
		todo = append(todo, s)
	}
	forEach(len(todo), func(i int) {
		s := todo[i]
		o, err := bench.RunCtx(ctx, s.rep.outcome.Workload, xlate.Options{})
		switch {
		case err != nil:
			s.bad = "parity: " + err.Error()
		case !reflect.DeepEqual(o, s.rep.outcome):
			s.bad = fmt.Sprintf("parity: replica Outcome of %s differs from bench.RunCtx", o.Workload.Name)
		case s.kind == freshJob:
			s.bad = checkGenerated(ctx, nil, w.at(s.idx), s)
		}
	})
	return len(todo)
}

// runTraced is the traced run. Its first half runs the workload's real
// path untraced (jobs_per_s baseline, queue wait, remote overhead, cache
// counters); its second half runs the replica traced, from the same
// stream. The difference in jobs_per_s is the tracing overhead. Probes
// then time the rungs no job isolates: trit kernels, decode, simulator
// set-up allocation, gate analysis, and — where the workload's own path
// lacks them — result-cache calls and the HTTP hop.
func runTraced(ctx context.Context, w *workload, o options) (*result, error) {
	c, err := newChecker(ctx, w)
	if err != nil {
		return nil, err
	}
	st, _, warm, err := prepare(ctx, w, c)
	if err != nil {
		return nil, err
	}
	half := o.window / 2

	cache0, retries0 := cacheCounters(st.ev), balancerRetries(st.ev)
	winA := timeWindow(half, func(k int64) sample { return st.submit(ctx, c, w.at(k), k < w.prefix) })
	cache1, retries1 := cacheCounters(st.ev), balancerRetries(st.ev)

	// Phase B: the replica, from a purged program cache so the stream's
	// programs are as cold as in the untraced run.
	eng := engine.New(engine.Options{Workers: runtime.NumCPU()})
	var rcache *bench.ResultCache
	discard := &tracer{epoch: time.Now()} // pool warm-up spans are not measured
	var extra []sample
	if w.kind == cachedStack {
		rcache = bench.NewResultCache(rescache.NewLRU(0, 0))
		for _, p := range w.pool {
			extra = append(extra, replicaSubmit(ctx, eng, discard, c, st.techs, rcache, p))
		}
	}
	engine.SharedPrograms.Purge()
	prog0, an0 := engine.SharedPrograms.Stats(), engine.SharedAnalyses.Stats()
	tr := &tracer{epoch: time.Now()}
	samplesB, busyB := drive(0, half, func(k int64) sample {
		return replicaSubmit(ctx, eng, tr, c, st.techs, rcache, w.at(k))
	})
	prog1, an1 := engine.SharedPrograms.Stats(), engine.SharedAnalyses.Stats()
	closeErr := eng.Close()

	lad := ladder{}
	lad.fromSpans(tr.spans, samplesB)
	probeErr := lad.probe(ctx, w, c, st, samplesB, &extra)
	closeErr = errors.Join(closeErr, st.close(), probeErr)
	if closeErr != nil {
		return nil, closeErr
	}
	verify(ctx, w, st.techs, winA.samples)
	verify(ctx, w, st.techs, extra)
	parityN := checkParity(ctx, w, samplesB)
	if err := writeSpans(o, w, tr.spans); err != nil {
		return nil, err
	}

	attempted, failed, firstBad := tally(winA.samples, w.prefix)
	for _, part := range [][]sample{warm, extra, samplesB} {
		a, f, bad := tally(part, 0)
		attempted, failed = attempted+a, failed+f
		if firstBad == "" {
			firstBad = bad
		}
	}

	// Every serve-fresh program is new, so none may hit; paper-suite
	// repeats four programs, so only their first assemblies may miss.
	progHits, progMisses := prog1.Hits-prog0.Hits, prog1.Misses-prog0.Misses
	progRatio := ratio(progHits, progMisses)
	switch {
	case w.kind == serveStack && progHits != 0:
		firstBad = fmt.Sprintf("program cache hit ratio %.4f on serve-fresh, want 0", progRatio)
	case w.kind == localStack && progMisses > uint64(len(bench.Workloads)):
		firstBad = fmt.Sprintf("program cache missed %d times on paper-suite, want at most one miss per program", progMisses)
	}
	if firstBad != "" {
		fmt.Fprintln(os.Stderr, "perfbench: verification failed:", firstBad)
	}
	fmt.Fprintf(os.Stderr, "perfbench: untraced %d jobs, traced %d jobs, %d spans, replica parity checked on %d programs\n",
		len(winA.samples), len(samplesB), len(tr.spans), parityN)

	// Queue wait is client latency minus the job's own elapsed time:
	// dispatch, queueing, row rendering and, on serve-fresh, the HTTP hop
	// (there the two coincide, as the peer reports the elapsed time).
	var queue, job, hop []time.Duration
	for _, s := range winA.samples {
		if !s.inWindow || s.bad != "" {
			continue
		}
		queue = append(queue, s.lat-s.elapsed)
		if !s.replay {
			job = append(job, s.elapsed)
			hop = append(hop, s.lat-s.elapsed)
		}
	}
	if w.kind == serveStack {
		lad.remoteMS = quantile(hop, 0.5)
	}
	_, insts := meanPrefixCycles(w, winA.samples)
	rateA := rate(winA.samples, winA.dur)
	rateB := rate(samplesB, busyB)
	m := map[string]metric{
		"ternary.kernel_ns_per_op":        {lad.kernelNS, "ns"},
		"isa.decode_ns":                   {lad.decodeNS, "ns"},
		"sim.functional_ns_per_inst":      {lad.functionalNS, "ns"},
		"sim.pipeline_ns_per_inst":        {lad.pipelineNS, "ns"},
		"sim.setup_us":                    {lad.simSetupUS, "us"},
		"sim.setup_alloc_kb":              {lad.simSetupKB, "KiB"},
		"rv32.assemble_us":                {lad.rvAssembleUS, "us"},
		"rv32.run_ns_per_inst":            {lad.rvRunNS, "ns"},
		"xlate.translate_us":              {lad.translateUS, "us"},
		"asm.assemble_us":                 {lad.asmUS, "us"},
		"bench.impl_us":                   {lad.implUS, "us"},
		"xlate.art9_insts":                {insts, "count"},
		"engine.program_cache_hit_ratio":  {progRatio, "ratio"},
		"engine.analysis_cache_hit_ratio": {ratio(an1.Hits-an0.Hits, an1.Misses-an0.Misses), "ratio"},
		"gate.analyze_us":                 {lad.gateUS, "us"},
		"bench.job_ms":                    {quantile(job, 0.5), "ms"},
		"engine.queue_wait_ms":            {quantile(queue, 0.5), "ms"},
		"remote.overhead_ms":              {lad.remoteMS, "ms"},
		"engine.retries":                  {float64(retries1 - retries0), "count"},
		"rescache.hit_ratio":              {ratio(cache1.Hits-cache0.Hits, cache1.Misses-cache0.Misses), "ratio"},
		"rescache.hit_us":                 {lad.hitUS, "us"},
		"rescache.miss_us":                {lad.missUS, "us"},
		"rescache.lookup_us":              {lad.lookupUS, "us"},
		"rescache.store_us":               {lad.storeUS, "us"},
		"rescache.evictions":              {float64(cache1.Evictions - cache0.Evictions), "count"},
		"trace.overhead_jobs_per_s":       {rateB - rateA, "1/s"},
	}
	return &result{Correct: firstBad == "", Attempted: attempted, Failed: failed, Metrics: m}, nil
}

func ratio(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// rate is verified jobs completed inside the window per second of it.
func rate(samples []sample, busy time.Duration) float64 {
	n := 0
	for _, s := range samples {
		if s.inWindow && s.bad == "" {
			n++
		}
	}
	return float64(n) / busy.Seconds()
}

func cacheCounters(ev engine.Evaluator) bench.ResultCacheReport {
	if r := bench.ResultCacheReportFor(ev); r != nil {
		return *r
	}
	return bench.ResultCacheReport{}
}

func balancerRetries(ev engine.Evaluator) uint64 {
	if b, ok := ev.(*engine.Balancer); ok {
		return b.Retries()
	}
	return 0
}

// writeSpans writes the traced run's spans as JSON lines under o.outDir.
func writeSpans(o options, w *workload, spans []span) error {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
