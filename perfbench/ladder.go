package main

import (
	"context"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/gate"
	"repro/internal/isa"
	"repro/internal/rescache"
	"repro/internal/rv32"
	"repro/internal/sim"
	"repro/internal/ternary"
	"repro/internal/xlate"
)

// ladder holds the per-layer figures of a traced run.
type ladder struct {
	kernelNS, decodeNS                 float64
	functionalNS, pipelineNS           float64
	simSetupUS, simSetupKB             float64
	rvAssembleUS, rvRunNS              float64
	translateUS, asmUS, implUS, gateUS float64
	remoteMS                           float64
	hitUS, missUS, lookupUS, storeUS   float64
}

// fromSpans derives the stage rungs from the replica's spans: medians of
// per-call self time, and host ns per simulated instruction as total self
// time over total retired instructions.
func (l *ladder) fromSpans(spans []span, samples []sample) {
	type key struct {
		job int64
		id  int
	}
	covered := map[key]int64{}
	for _, s := range spans {
		if s.Parent >= 0 {
			covered[key{s.Job, s.Parent}] += s.End - s.Start
		}
	}
	self := map[string][]time.Duration{}
	total := map[string]time.Duration{}
	implPerJob := map[int64]time.Duration{}
	var hits, misses []time.Duration
	for _, s := range spans {
		d := time.Duration(s.End - s.Start - covered[key{s.Job, s.ID}])
		self[s.Name] = append(self[s.Name], d)
		total[s.Name] += d
		switch {
		case s.Name == "bench.ImplFor":
			implPerJob[s.Job] += d
		case s.Note == "hit":
			hits = append(hits, d)
		case s.Note == "miss":
			misses = append(misses, d)
		}
	}
	var rv, fn, pl uint64
	for _, s := range samples {
		if s.rep != nil && s.rep.outcome != nil {
			rv += s.rep.outcome.RVRetired
			fn += s.rep.fnRetired
			pl += s.rep.outcome.ARTRetired
		}
	}
	us := func(name string) float64 { return quantile(self[name], 0.5) * 1e3 }
	perInst := func(name string, n uint64) float64 {
		if n == 0 {
			return 0
		}
		return float64(total[name]) / float64(n)
	}
	var impl []time.Duration
	for _, d := range implPerJob {
		impl = append(impl, d)
	}
	l.rvAssembleUS = us("rv32.Assemble")
	l.rvRunNS = perInst("rv32.Machine.Run", rv)
	l.translateUS = us("xlate.Translate")
	l.asmUS = us("engine.AssembleCached")
	l.functionalNS = perInst("sim.Functional.Run", fn)
	l.pipelineNS = perInst("sim.Pipeline.Run", pl)
	l.simSetupUS = quantile(append(append([]time.Duration{}, self["sim.Functional.setup"]...), self["sim.Pipeline.setup"]...), 0.5) * 1e3
	l.implUS = quantile(impl, 0.5) * 1e3
	if len(hits)+len(misses) > 0 {
		l.hitUS = quantile(hits, 0.5) * 1e3
		l.missUS = quantile(misses, 0.5) * 1e3
		l.lookupUS = us("rescache.Lookup")
		l.storeUS = us("rescache.Store")
	}
}

// probe times the rungs no replica job isolates. Jobs it submits are
// appended to extra so they are verified and counted like any other.
func (l *ladder) probe(ctx context.Context, w *workload, c *checker, st *stack, samples []sample, extra *[]sample) error {
	l.kernelNS = probeKernels()
	l.decodeNS = probeDecode()
	l.gateUS = probeGate(st.techs)
	var err error
	if l.simSetupKB, err = probeSimSetup(w.at(0).mj); err != nil {
		return err
	}
	if w.kind != cachedStack {
		l.probeRescache(ctx, w, samples)
	}
	if w.kind != serveStack {
		return l.probeRemote(ctx, w, c, extra)
	}
	return nil
}

// sink keeps probe results observable so the compiler cannot drop them.
var sink int

// probeKernels is ns per packed-trit kernel call over a fixed mix of the
// Packed surface (logic, arithmetic, compare, shifts) on seeded operands.
func probeKernels() float64 {
	r := rngFor(0, "kernels", 0)
	v := make([]ternary.Packed, 1024)
	for i := range v {
		v[i] = ternary.PackedFromInt(r.Intn(2*ternary.MaxInt+1) - ternary.MaxInt)
	}
	const passes, opsPerPair = 50, 12
	var reps []float64
	for rep := 0; rep < 7; rep++ {
		acc := uint32(0)
		t0 := time.Now()
		for pass := 0; pass < passes; pass++ {
			for i, a := range v {
				b := v[(i+pass+1)%len(v)]
				acc += a.And(b).N ^ a.Or(b).P ^ a.Xor(b).N ^ a.Add(b).P ^ a.Sub(b).N ^ a.Mul(b).P ^
					a.Sti().N ^ a.Nti().P ^ b.Pti().N ^ a.ShiftLeft(2).P ^ b.ShiftRight(3).N ^ uint32(a.Cmp(b)+1)
			}
		}
		d := time.Since(t0)
		sink += int(acc)
		reps = append(reps, float64(d)/float64(passes*len(v)*opsPerPair))
	}
	return median(reps)
}

// probeDecode is ns per isa.DecodePacked call over all 3^9 words.
func probeDecode() float64 {
	words := make([]ternary.Packed, 0, 2*ternary.MaxInt+1)
	for v := ternary.MinInt; v <= ternary.MaxInt; v++ {
		words = append(words, ternary.PackedFromInt(v))
	}
	const passes = 10
	var reps []float64
	for rep := 0; rep < 7; rep++ {
		acc := 0
		t0 := time.Now()
		for pass := 0; pass < passes; pass++ {
			for _, wd := range words {
				if in, err := isa.DecodePacked(wd); err == nil {
					acc += int(in.Op)
				}
			}
		}
		d := time.Since(t0)
		sink += acc
		reps = append(reps, float64(d)/float64(passes*len(words)))
	}
	return median(reps)
}

// probeGate is µs per uncached gate-level analysis of the ART-9 core.
func probeGate(techs []*gate.Technology) float64 {
	net := engine.ART9Netlist()
	var us []float64
	for rep := 0; rep < 3; rep++ {
		for _, t := range techs {
			t0 := time.Now()
			sink += gate.Analyze(net, t).Gates
			us = append(us, float64(time.Since(t0))/1e3)
		}
	}
	return median(us)
}

// probeSimSetup is KiB allocated per simulator set-up (New* + Load +
// TDM.SetAll), averaged over both cores, for the stream's first program.
func probeSimSetup(mj bench.ManifestJob) (float64, error) {
	wl, err := mj.Resolve("")
	if err != nil {
		return 0, err
	}
	rvProg, err := rv32.Assemble(wl.Source)
	if err != nil {
		return 0, err
	}
	out, err := xlate.Translate(rvProg, xlate.Options{})
	if err != nil {
		return 0, err
	}
	artProg, err := engine.AssembleCached(out.Asm)
	if err != nil {
		return 0, err
	}
	data := xlate.DataImage(rvProg)
	const n = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn := sim.NewFunctional(sim.Config{})
		pl := sim.NewPipeline(sim.Config{})
		for _, s := range []*sim.State{fn.S, pl.S} {
			if err := s.Load(artProg); err != nil {
				return 0, err
			}
			if err := s.TDM.SetAll(data); err != nil {
				return 0, err
			}
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / (2 * n) / 1024, nil
}

// probeRescache times bench.ResultCache calls on the workload's own
// outcomes for workloads that run uncached: a miss lookup, a store and a
// hit lookup per distinct program, repeated until each has 100 samples.
func (l *ladder) probeRescache(ctx context.Context, w *workload, samples []sample) {
	type entry struct {
		spec *bench.JobSpec
		o    *bench.Outcome
	}
	var entries []entry
	seen := map[string]bool{}
	for _, s := range samples {
		if s.rep == nil || s.rep.outcome == nil || seen[s.rep.outcome.Workload.Source] || len(entries) == 40 {
			continue
		}
		seen[s.rep.outcome.Workload.Source] = true
		entries = append(entries, entry{&bench.JobSpec{Job: w.at(s.idx).mj, Technologies: techNames}, s.rep.outcome})
	}
	if len(entries) == 0 {
		return
	}
	var hits, misses, stores []time.Duration
	for len(hits) < 100 {
		rc := bench.NewResultCache(rescache.NewLRU(0, 0))
		for _, e := range entries {
			t0 := time.Now()
			_, hit := rc.Lookup(ctx, e.spec)
			t1 := time.Now()
			rc.Store(ctx, e.spec, e.o)
			t2 := time.Now()
			_, hit2 := rc.Lookup(ctx, e.spec)
			t3 := time.Now()
			if hit || !hit2 {
				sink++
			}
			misses = append(misses, t1.Sub(t0))
			stores = append(stores, t2.Sub(t1))
			hits = append(hits, t3.Sub(t2))
		}
	}
	l.hitUS = quantile(hits, 0.5) * 1e3
	l.missUS = quantile(misses, 0.5) * 1e3
	l.lookupUS = quantile(append(append([]time.Duration{}, hits...), misses...), 0.5) * 1e3
	l.storeUS = quantile(stores, 0.5) * 1e3
}

// probeRemote sends the stream's first jobs one at a time through the
// serve-fresh stack (failover Balancer → loopback art9-serve) and takes
// the median of client latency minus the peer's own elapsed time.
func (l *ladder) probeRemote(ctx context.Context, w *workload, c *checker, extra *[]sample) error {
	st, err := openStack(ctx, serveStack)
	if err != nil {
		return err
	}
	var hop []time.Duration
	deadline := time.Now().Add(3 * time.Second)
	for k := int64(0); k < 30 && time.Now().Before(deadline); k++ {
		s := st.submit(ctx, c, w.at(k), false)
		*extra = append(*extra, s)
		if s.bad == "" {
			hop = append(hop, s.lat-s.elapsed)
		}
	}
	l.remoteMS = quantile(hop, 0.5)
	return st.close()
}
