package bench

import (
	"context"
	"math"
	"os"
	"testing"

	"repro/internal/sim"
)

// TestTimedRunSpeedGate is the ratio gate behind running one ART-9 core
// per job, through the functional core's tight step loop: on the
// dhrystone job's ART-9 program, a timed functional run must cost at most
// 0.40× a Pipeline run. Both runs retire the same instructions, so the
// ratio of run times is the ratio of ns/inst, and a ratio taken on one
// host tolerates the host's speed. Each side keeps the
// best of three interleaved rounds. It runs only when ART9_BENCH_GATE is
// set (make bench-gate).
func TestTimedRunSpeedGate(t *testing.T) {
	if os.Getenv("ART9_BENCH_GATE") == "" {
		t.Skip("set ART9_BENCH_GATE=1 to run the timed-run speed gate")
	}
	w, _ := ByName("dhrystone")
	prog, data := compileART9(t, w)
	s := sim.NewState(sim.Config{})
	timed := func() (sim.Result, error) { return (&sim.Functional{S: s}).RunTimed(context.Background()) }
	pipelined := (&sim.Pipeline{S: s}).Run
	nsPerRun := func(run func() (sim.Result, error)) float64 {
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := s.Load(prog); err != nil {
					b.Fatal(err)
				}
				if err := s.TDM.SetAll(data); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := run(); err != nil {
					b.Fatal(err)
				}
			}
		})
		return float64(r.T.Nanoseconds()) / float64(r.N)
	}
	tNs, pNs := math.Inf(1), math.Inf(1)
	for round := 0; round < 3; round++ {
		tNs = min(tNs, nsPerRun(timed))
		pNs = min(pNs, nsPerRun(pipelined))
	}
	res := runCore(t, "pipelined", s, prog, data).res
	ratio := tNs / pNs
	t.Logf("dhrystone: timed %.1f ns/inst, pipeline %.1f ns/inst, ratio %.2f",
		tNs/float64(res.Retired), pNs/float64(res.Retired), ratio)
	if ratio > 0.40 {
		t.Errorf("timed run costs %.2f× a Pipeline run, want at most 0.40×", ratio)
	}
}
