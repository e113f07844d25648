package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"

	art9 "repro"
	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/gate"
	"repro/internal/serve"
	"repro/internal/xlate"
)

// Why each workload exists (mirrored in BENCHMARK.json):
//
//   - paper-suite: the four §V-A programs on a local pool. Simulation is
//     nearly all of a job and sources repeat, so assembly and gate analysis
//     are cache hits; sim, isa, ternary and observer changes show here.
//   - serve-fresh: unique generated programs through the failover Balancer
//     to an in-process art9-serve over loopback TCP. Set-up, assembly
//     (every program misses the program cache), translation, ImplFor,
//     HTTP/NDJSON and placement dominate; sim-step changes barely show.
//   - cache-mix: a local pool behind the result cache. Four of every five
//     jobs replay a warmed pool entry, the fifth is a never-seen program
//     that runs and fills, so the cache's read and write paths both show.
//     The other two workloads run uncached and should not move with it.

// techNames are the technologies every job is estimated against.
var techNames = []string{"cntfet32", "stratixv"}

type stackKind int

const (
	localStack stackKind = iota
	cachedStack
	serveStack
)

const (
	// suiteBlock jobs hold exactly 9 dhrystone and 2 each of bubble,
	// gemm and sobel (dhrystone is 3/5 of jobs), in a seeded order, so
	// the median and p90 both fall inside dhrystone jobs.
	suiteBlock = 15
	// mixBlock jobs hold one never-seen program and mixBlock-1 pool
	// replays; poolSize pool programs cover every generator class twice.
	mixBlock = 5
	poolSize = 2 * genBlock
	// poolStart is the generator index of the first pool program, far
	// from the fresh programs' indices so the two never share code.
	poolStart = -1_000_000
	// warmFresh never-seen programs fill the program cache.
	warmFresh = engine.DefaultProgramCacheEntries + 5*genBlock
	// mixCacheBytes bounds cache-mix's result cache below what warm-up
	// fills (a row is about 0.7 KB), so the cache is evicting at a steady
	// size before timing instead of growing — and growing the heap —
	// through the window. The pool stays resident: it is the hot set.
	mixCacheBytes = 2 << 20
)

var suiteMix = func() []string {
	var m []string
	for i := 0; i < 9; i++ {
		m = append(m, "dhrystone")
	}
	for _, n := range []string{"bubble", "gemm", "sobel"} {
		m = append(m, n, n)
	}
	return m
}()

// workload is one seeded job stream plus the stack that serves it.
type workload struct {
	name string
	seed int64
	kind stackKind
	// prefix is the number of leading jobs whose mean pipeline cycles
	// define sim_cycles_per_job: a whole number of blocks, so the value
	// is a function of the seed alone, never of how many jobs a run
	// managed to finish.
	prefix int64
	// warm is the number of warm-up jobs, run at negative indices
	// (disjoint programs) before timing. It is sized so the
	// process-wide program cache (engine.DefaultProgramCacheEntries)
	// is full before timing where the stream brings new programs;
	// otherwise throughput climbs through the window as the heap grows.
	warm int
	// at returns job i of the stream.
	at func(i int64) job
	// pool lists cache-mix's warmed programs.
	pool []job
}

// job is one submission: a manifest entry and where it came from.
type job struct {
	idx  int64
	mj   bench.ManifestJob
	kind jobKind
	pool int // pool index of a replayed program
}

type jobKind int

const (
	suiteJob  jobKind = iota // a §V-A program, checked against an in-process run
	freshJob                 // a generated program, checked against the RV32 reference
	replayJob                // a cache-mix pool program, checked against its first row
)

func workloadByName(name string, seed int64) (*workload, error) {
	switch name {
	case "paper-suite":
		return &workload{name: name, seed: seed, kind: localStack,
			prefix: 10 * suiteBlock, warm: 10 * suiteBlock, at: suiteAt(seed)}, nil
	case "serve-fresh":
		return &workload{name: name, seed: seed, kind: serveStack,
			prefix: 10 * genBlock, warm: warmFresh, at: freshAt(seed)}, nil
	case "cache-mix":
		pool := make([]job, poolSize)
		for p := range pool {
			pool[p] = genJob(seed, int64(p), poolStart+int64(p), replayJob, p)
		}
		return &workload{name: name, seed: seed, kind: cachedStack,
			prefix: 2 * genBlock * mixBlock, warm: warmFresh * mixBlock,
			at: mixAt(seed, pool), pool: pool}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want paper-suite, serve-fresh or cache-mix)", name)
}

func suiteAt(seed int64) func(int64) job {
	return func(i int64) job {
		perm := rngFor(seed, "suite", floorDiv(i, suiteBlock)).Perm(suiteBlock)
		name := suiteMix[perm[floorMod(i, suiteBlock)]]
		return job{idx: i, mj: bench.ManifestJob{Workload: name}, kind: suiteJob}
	}
}

func freshAt(seed int64) func(int64) job {
	return func(i int64) job { return genJob(seed, i, i, freshJob, -1) }
}

func genJob(seed, i, gen int64, kind jobKind, pool int) job {
	g := generate(seed, gen)
	return job{idx: i, kind: kind, pool: pool,
		mj: bench.ManifestJob{Name: g.Name, Source: g.Source}}
}

// mixAt places one fresh program at a seeded slot of every mixBlock jobs
// and fills the rest by cycling through seeded permutations of the pool,
// so every pool entry replays equally often.
func mixAt(seed int64, pool []job) func(int64) job {
	return func(i int64) job {
		b := floorDiv(i, mixBlock)
		pos := int(floorMod(i, mixBlock))
		fresh := rngFor(seed, "mixslot", b).Intn(mixBlock)
		if pos == fresh {
			return genJob(seed, i, b, freshJob, -1)
		}
		if pos > fresh {
			pos--
		}
		q := (mixBlock-1)*b + int64(pos)
		perm := rngFor(seed, "mixpool", floorDiv(q, poolSize)).Perm(poolSize)
		j := pool[perm[floorMod(q, poolSize)]]
		j.idx = i
		return j
	}
}

// engineJob renders one manifest entry as an engine job through the
// manifest loader, exactly as art9-batch does.
func engineJob(mj bench.ManifestJob) (engine.Job, error) {
	m := bench.Manifest{Technologies: techNames, Jobs: []bench.ManifestJob{mj}}
	jobs, err := m.EngineJobs("", xlate.Options{})
	if err != nil {
		return engine.Job{}, err
	}
	return jobs[0], nil
}

// stack is one evaluator topology built for a run.
type stack struct {
	ev    engine.Evaluator
	techs []*gate.Technology
	close func() error
}

// openStack builds the evaluator (and, for serveStack, the in-process
// art9-serve on a loopback listener that the evaluator reaches over HTTP).
func openStack(ctx context.Context, kind stackKind) (*stack, error) {
	techs, err := bench.Technologies(techNames)
	if err != nil {
		return nil, err
	}
	workers := art9.WithWorkers(runtime.NumCPU())
	switch kind {
	case localStack, cachedStack:
		opts := []art9.Option{workers}
		if kind == cachedStack {
			opts = append(opts, art9.WithResultCache(), art9.WithCacheMaxBytes(mixCacheBytes))
		}
		ev, err := art9.New(opts...)
		if err != nil {
			return nil, err
		}
		return &stack{ev: ev, techs: techs, close: ev.Close}, nil
	}
	srv, err := serve.New(serve.Config{Workers: runtime.NumCPU()})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, srv.Close())
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	stop := func() error {
		err := hs.Shutdown(ctx)
		if serr := <-served; !errors.Is(serr, http.ErrServerClosed) {
			err = errors.Join(err, serr)
		}
		return errors.Join(err, srv.Close())
	}
	ev, err := art9.New(art9.WithPeers("http://"+ln.Addr().String()), art9.WithFailover())
	if err != nil {
		return nil, errors.Join(err, stop())
	}
	return &stack{ev: ev, techs: techs, close: func() error {
		return errors.Join(ev.Close(), stop())
	}}, nil
}
