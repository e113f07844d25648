package bench

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/rv32"
	"repro/internal/sim"
	"repro/internal/xlate"
)

// Outcome is the result of running one workload on every core model.
type Outcome struct {
	Workload Workload

	// Static program sizes (Fig. 5 inputs).
	RVInsts  int // RV32 instruction count
	RVBits   int // RV32I instruction-memory bits
	ARMBits  int // estimated ARMv6-M (Thumb-1) bits
	ARTInsts int // translated ART-9 instruction count
	ARTTrits int // ART-9 instruction-memory trits

	// Checksums (must all agree).
	Checksum int

	// Cycle counts (Table III inputs).
	ART9Cycles uint64 // pipelined ART-9
	VexCycles  uint64 // VexRiscv-like model
	PicoCycles uint64 // PicoRV32-like model

	// ART-9 microarchitectural detail.
	ARTRetired      uint64
	ARTStallsLoad   uint64
	ARTStallsBranch uint64
	ARTLoads        uint64
	ARTStores       uint64

	// RV32 retired instructions (dynamic).
	RVRetired uint64

	// Diagnostics from the translator.
	Diagnostics []string
	// Removed is the redundancy-checking yield.
	Removed int
}

// CyclesPerIteration returns the ART-9 cycles normalised by the
// workload's iteration count.
func (o *Outcome) CyclesPerIteration() float64 {
	return float64(o.ART9Cycles) / float64(max(1, o.Workload.Iterations))
}

// MemAccessRate returns the measured TIM+TDM word-access rate of the
// run: one instruction fetch per issue slot plus the data-access duty
// cycle — the activity input of the memory power model.
func (o *Outcome) MemAccessRate() float64 {
	if o.ART9Cycles == 0 {
		return 1
	}
	return (float64(o.ARTRetired) + float64(o.ARTLoads+o.ARTStores)) /
		float64(o.ART9Cycles)
}

// Run executes the workload on the RV32 machine (feeding both baseline
// cycle models), translates it with the software-level framework, runs
// the result on the ART-9 functional core with the 5-stage pipeline's
// timing, verifies that the checksums agree, and collects every metric.
func Run(w Workload, opts xlate.Options) (*Outcome, error) {
	return RunCtx(context.Background(), w, opts)
}

// RunCtx is Run under ctx: the RV32 reference run and the ART-9 run poll
// the context from their first instruction and every few thousand after
// it, so an expired engine job timeout or a cancelled batch stops the
// workload within microseconds.
func RunCtx(ctx context.Context, w Workload, opts xlate.Options) (*Outcome, error) {
	st := machines.Get().(*sim.State)
	defer machines.Put(st)
	return runOn(ctx, w, opts, st)
}

// machines recycles simulator States across jobs, so at most one State is
// live per in-flight job and a State that last ran the same program keeps
// its predecoded instruction image.
var machines = sync.Pool{New: func() any { return sim.NewState(sim.Config{}) }}

// runOn is RunCtx with the ART-9 program running on st. Its one timed
// functional run reports what the pipelined core would; the differential
// tests in internal/sim pin the two cores together.
func runOn(ctx context.Context, w Workload, opts xlate.Options, st *sim.State) (*Outcome, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("bench %s: %w", w.Name, err)
	}
	c, err := (&core.SoftwareFramework{Options: opts}).Compile(w.Source)
	if err != nil {
		return nil, fmt.Errorf("bench %s: %w", w.Name, err)
	}
	rvProg, out, artProg := c.Binary, c.Ternary, c.Program

	m := rv32.NewMachine(1 << 16)
	vex := rv32.NewVexRiscvModel()
	pico := rv32.NewPicoRV32Model()
	m.Observe(vex)
	m.Observe(pico)
	if err := m.Load(rvProg); err != nil {
		return nil, err
	}
	if err := m.RunCtx(ctx); err != nil {
		return nil, fmt.Errorf("bench %s: rv32 run: %w", w.Name, err)
	}
	ref := int(int32(m.Reg(10)))

	if err := st.Load(artProg); err != nil {
		return nil, err
	}
	if err := st.TDM.SetAll(c.Data); err != nil {
		return nil, err
	}
	res, err := (&sim.Functional{S: st}).RunTimed(ctx)
	if err != nil {
		return nil, fmt.Errorf("bench %s: art9 run: %w", w.Name, err)
	}
	chk, err := out.ReadBack(st, 10)
	if err != nil {
		return nil, err
	}
	if chk != ref {
		return nil, fmt.Errorf("bench %s: art9 checksum %d != rv32 %d", w.Name, chk, ref)
	}

	return &Outcome{
		Workload:        w,
		RVInsts:         len(rvProg.Insts),
		RVBits:          rvProg.TextBits(),
		ARMBits:         rv32.EstimateProgram(rvProg),
		ARTInsts:        len(artProg.Text),
		ARTTrits:        artProg.TextCells(),
		Checksum:        ref,
		ART9Cycles:      res.Cycles,
		VexCycles:       vex.TotalCycles(),
		PicoCycles:      pico.TotalCycles(),
		ARTRetired:      res.Retired,
		ARTStallsLoad:   res.StallsLoad,
		ARTStallsBranch: res.StallsBranch,
		ARTLoads:        res.Loads,
		ARTStores:       res.Stores,
		RVRetired:       m.Retired,
		Diagnostics:     out.Diagnostics,
		Removed:         out.Removed,
	}, nil
}

// RunAll runs the whole suite with default translation options,
// fanned out across GOMAXPROCS workers by a transient engine. The
// result is identical to RunAllSerial — jobs are independent and
// results are collected by name — just faster on multicore hosts.
func RunAll() (res map[string]*Outcome, err error) {
	eng := engine.New(engine.Options{})
	defer func() {
		// The engine is transient and fully drained by RunAllOn, but a
		// close failure still signals leaked work — surface it unless a
		// run error already explains the state.
		if cerr := eng.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	return RunAllOn(context.Background(), eng)
}

// RunAllSerial runs the whole suite one workload at a time — the
// reference path the concurrent engine is checked against.
func RunAllSerial() (map[string]*Outcome, error) {
	res := map[string]*Outcome{}
	for _, w := range Workloads {
		o, err := Run(w, xlate.Options{})
		if err != nil {
			return nil, err
		}
		res[w.Name] = o
	}
	return res, nil
}

// RunAllOn fans the suite out on an existing engine. The first workload
// failure (or a ctx cancellation) is returned as an error, matching the
// serial path's fail-fast contract.
func RunAllOn(ctx context.Context, eng *engine.Engine) (map[string]*Outcome, error) {
	results, _ := eng.Run(ctx, SuiteJobs(Workloads, xlate.Options{}))
	res := make(map[string]*Outcome, len(results))
	for _, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("bench %s: %w", r.ID, r.Err)
		}
		res[r.ID] = r.Value.(*Outcome)
	}
	return res, nil
}

// SuiteJobs wraps workloads as engine jobs, one per workload; each job
// itself exercises every core model (RV32 reference with both baseline
// cycle observers, then the ART-9 core with the pipeline's timing).
//
// Each job also carries a *JobSpec with the workload inlined as source
// text, so remote backends (internal/remote) can ship the exact same
// work to a peer; attach technologies with JobSpec.Technologies (done by
// Manifest.EngineJobs) when the peer should also estimate
// implementations.
func SuiteJobs(ws []Workload, opts xlate.Options) []engine.Job {
	jobs := make([]engine.Job, len(ws))
	for i, w := range ws {
		w := w
		jobs[i] = engine.Job{
			ID:   w.Name,
			Fn:   func(ctx context.Context) (any, error) { return RunCtx(ctx, w, opts) },
			Spec: &JobSpec{Job: ManifestJob{Name: w.Name, Source: w.Source, Iterations: w.Iterations}},
		}
	}
	return jobs
}
