// Benchmark harness: one testing.B benchmark per evaluation artifact of
// the paper (Fig. 5, Tables II–V), plus ablation benches for the design
// choices DESIGN.md calls out. Each benchmark reports the reproduced
// figures as custom metrics, so
//
//	go test -bench=. -benchmem
//
// regenerates the paper's evaluation in one run.
package art9_test

import (
	"context"
	"testing"

	art9 "repro"
	"repro/internal/bench"
	"repro/internal/gate"
	"repro/internal/perf"
	"repro/internal/sim"
	"repro/internal/xlate"
)

// run is a helper caching one outcome per workload within a bench run.
var outcomes = map[string]*bench.Outcome{}

func outcome(b *testing.B, name string) *bench.Outcome {
	b.Helper()
	if o, ok := outcomes[name]; ok {
		return o
	}
	w, ok := bench.ByName(name)
	if !ok {
		b.Fatalf("unknown workload %s", name)
	}
	o, err := bench.Run(w, xlate.Options{})
	if err != nil {
		b.Fatal(err)
	}
	outcomes[name] = o
	return o
}

// BenchmarkFig5MemoryCells regenerates Fig. 5: instruction-memory cells of
// the four benchmarks on ART-9 (trits) vs RV32I and ARMv6-M (bits).
func BenchmarkFig5MemoryCells(b *testing.B) {
	for _, w := range bench.Workloads {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			var o *bench.Outcome
			for i := 0; i < b.N; i++ {
				var err error
				o, err = bench.Run(w, xlate.Options{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(o.ARTTrits), "ART9-trits")
			b.ReportMetric(float64(o.RVBits), "RV32I-bits")
			b.ReportMetric(float64(o.ARMBits), "ARMv6M-bits")
			b.ReportMetric(100*(1-float64(o.ARTTrits)/float64(o.RVBits)), "reduction-%")
		})
	}
}

// BenchmarkTable2Dhrystone regenerates Table II: DMIPS/MHz of the three
// cores on the Dhrystone-class workload.
func BenchmarkTable2Dhrystone(b *testing.B) {
	w, _ := bench.ByName("dhrystone")
	var o *bench.Outcome
	for i := 0; i < b.N; i++ {
		var err error
		o, err = bench.Run(w, xlate.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	iters := float64(w.Iterations)
	b.ReportMetric(perf.DMIPSPerMHz(float64(o.ART9Cycles)/iters), "ART9-DMIPS/MHz")
	b.ReportMetric(perf.DMIPSPerMHz(float64(o.VexCycles)/iters), "Vex-DMIPS/MHz")
	b.ReportMetric(perf.DMIPSPerMHz(float64(o.PicoCycles)/iters), "Pico-DMIPS/MHz")
	b.ReportMetric(float64(o.ARTTrits), "ART9-trits")
}

// BenchmarkTable3Cycles regenerates Table III: processing cycles for the
// four test programs, ART-9 vs PicoRV32.
func BenchmarkTable3Cycles(b *testing.B) {
	for _, w := range bench.Workloads {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			var o *bench.Outcome
			for i := 0; i < b.N; i++ {
				var err error
				o, err = bench.Run(w, xlate.Options{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(o.ART9Cycles), "ART9-cycles")
			b.ReportMetric(float64(o.PicoCycles), "Pico-cycles")
			b.ReportMetric(float64(o.PicoCycles)/float64(o.ART9Cycles), "speedup-x")
		})
	}
}

// BenchmarkTable4CNTFET regenerates Table IV: gates, power and DMIPS/W of
// the CNTFET implementation at fmax.
func BenchmarkTable4CNTFET(b *testing.B) {
	o := outcome(b, "dhrystone")
	cyclesPerIter := float64(o.ART9Cycles) / float64(o.Workload.Iterations)
	var impl perf.Implementation
	for i := 0; i < b.N; i++ {
		tech := gate.CNTFET32()
		an := gate.Analyze(gate.BuildART9(), tech)
		impl = perf.Estimate(an, tech, 0, cyclesPerIter, 0, 1.2, 0)
	}
	b.ReportMetric(float64(impl.Gates), "gates")
	b.ReportMetric(impl.PowerW*1e6, "power-uW")
	b.ReportMetric(impl.DMIPSPerW/1e6, "MDMIPS/W")
	b.ReportMetric(impl.FreqMHz, "fmax-MHz")
}

// BenchmarkTable5FPGA regenerates Table V: ALMs, registers, RAM bits,
// power and DMIPS/W of the binary-encoded FPGA prototype at 150 MHz.
func BenchmarkTable5FPGA(b *testing.B) {
	o := outcome(b, "dhrystone")
	cyclesPerIter := float64(o.ART9Cycles) / float64(o.Workload.Iterations)
	var impl perf.Implementation
	for i := 0; i < b.N; i++ {
		tech := gate.StratixVEmulation()
		an := gate.Analyze(gate.BuildART9(), tech)
		impl = perf.Estimate(an, tech, 150, cyclesPerIter, 2*256*9, 1.2, 2*256*18)
	}
	b.ReportMetric(float64(impl.ALMs), "ALMs")
	b.ReportMetric(float64(impl.Registers), "registers")
	b.ReportMetric(float64(impl.RAMBits), "RAM-bits")
	b.ReportMetric(impl.PowerW, "power-W")
	b.ReportMetric(impl.DMIPSPerW, "DMIPS/W")
}

// --- Ablation benches for the design choices DESIGN.md calls out. ---

// BenchmarkAblationPeephole measures the redundancy-checking phase's
// yield: translated size with and without it (Fig. 2's third phase).
func BenchmarkAblationPeephole(b *testing.B) {
	w, _ := bench.ByName("dhrystone")
	var with, without *bench.Outcome
	for i := 0; i < b.N; i++ {
		var err error
		with, err = bench.Run(w, xlate.Options{})
		if err != nil {
			b.Fatal(err)
		}
		without, err = bench.Run(w, xlate.Options{NoPeephole: true})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(with.ARTInsts), "insts-with")
	b.ReportMetric(float64(without.ARTInsts), "insts-without")
	b.ReportMetric(float64(with.Removed), "removed")
}

// BenchmarkAblationInlineMul compares the inline software multiply against
// the shared runtime routine on the multiply-bound GEMM.
func BenchmarkAblationInlineMul(b *testing.B) {
	w, _ := bench.ByName("gemm")
	var inline, runtime *bench.Outcome
	for i := 0; i < b.N; i++ {
		var err error
		inline, err = bench.Run(w, xlate.Options{})
		if err != nil {
			b.Fatal(err)
		}
		runtime, err = bench.Run(w, xlate.Options{NoInlineMul: true})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(inline.ART9Cycles), "cycles-inline")
	b.ReportMetric(float64(runtime.ART9Cycles), "cycles-runtime")
}

// BenchmarkAblationHWMultiplier evaluates the design decision the paper
// made in Table II (multiplier: ✗): the gate/cycle-time/power cost of
// bolting the ternary array multiplier of [10] onto the EX stage.
func BenchmarkAblationHWMultiplier(b *testing.B) {
	var base, ext *gate.Analysis
	for i := 0; i < b.N; i++ {
		tech := gate.CNTFET32()
		base = gate.Analyze(gate.BuildART9(), tech)
		ext = gate.Analyze(gate.BuildART9WithMultiplier(), tech)
	}
	tech := gate.CNTFET32()
	b.ReportMetric(float64(base.Gates), "gates-base")
	b.ReportMetric(float64(ext.Gates), "gates-withmul")
	b.ReportMetric(base.FmaxMHz, "fmax-base-MHz")
	b.ReportMetric(ext.FmaxMHz, "fmax-withmul-MHz")
	b.ReportMetric(ext.PowerW(tech, ext.FmaxMHz, 0, 0)*1e6, "power-withmul-uW")
}

// BenchmarkAblationForwarding quantifies the pipeline's hazard handling:
// the share of cycles lost to load-use stalls and branch squashes across
// the suite (the §IV-B design point: only these two stall sources exist).
func BenchmarkAblationForwarding(b *testing.B) {
	for _, w := range bench.Workloads {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			var o *bench.Outcome
			for i := 0; i < b.N; i++ {
				var err error
				o, err = bench.Run(w, xlate.Options{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(o.ARTStallsLoad), "load-stalls")
			b.ReportMetric(float64(o.ARTStallsBranch), "squashes")
			b.ReportMetric(float64(o.ART9Cycles)/float64(o.ARTRetired), "CPI")
		})
	}
}

// BenchmarkSimulatorThroughput measures the raw simulator speed. The
// setup sub-benchmark times machine construction plus program load; the
// run sub-benchmarks time Run alone (the timer is stopped around each
// reload of one reused machine), so their ns/inst is the per-instruction
// cost of each core, unmixed with zeroing 315 KiB of memories per run.
func BenchmarkSimulatorThroughput(b *testing.B) {
	prog, err := art9.Assemble(`
		LDI T1, 0
		LDI T2, 1
		LDI T3, 121
	loop:	ADD T1, T2
		ADDI T2, 1
		MV T4, T2
		COMP T4, T3
		BNE T4, 1, loop
		HALT
	`)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("setup", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := sim.NewState(sim.Config{}).Load(prog); err != nil {
				b.Fatal(err)
			}
		}
	})
	run := func(b *testing.B, s *sim.State, run func() (sim.Result, error)) {
		var retired uint64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if err := s.Load(prog); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			res, err := run()
			if err != nil {
				b.Fatal(err)
			}
			retired += res.Retired
		}
		b.ReportMetric(float64(retired)/b.Elapsed().Seconds(), "inst/s")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(retired), "ns/inst")
	}
	b.Run("run/pipelined", func(b *testing.B) {
		pl := sim.NewPipeline(sim.Config{})
		run(b, pl.S, pl.Run)
	})
	b.Run("run/functional", func(b *testing.B) {
		f := sim.NewFunctional(sim.Config{})
		run(b, f.S, f.Run)
	})
	b.Run("run/timed", func(b *testing.B) {
		f := sim.NewFunctional(sim.Config{})
		run(b, f.S, func() (sim.Result, error) { return f.RunTimed(context.Background()) })
	})
}

// BenchmarkGateAnalysis measures the gate-level analyzer itself.
func BenchmarkGateAnalysis(b *testing.B) {
	var gates int
	for i := 0; i < b.N; i++ {
		an := gate.Analyze(gate.BuildART9(), gate.CNTFET32())
		gates = an.Gates
	}
	b.ReportMetric(float64(gates), "gates")
}
