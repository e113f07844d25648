package bench

import (
	"context"
	"testing"

	"repro/internal/rv32"
	"repro/internal/xlate"
)

// runW runs one workload, failing the test on any error (including the
// built-in checksum cross-check between RV32 and translated ART-9).
func runW(t *testing.T, w Workload) *Outcome {
	t.Helper()
	o, err := Run(w, xlate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestBubbleSortCorrectAndSorted(t *testing.T) {
	o := runW(t, BubbleSort)
	if o.Checksum == 0 {
		t.Error("degenerate checksum")
	}
	// Independently verify sortedness on a fresh RV32 run.
	p, err := rv32.Assemble(BubbleSort.Source)
	if err != nil {
		t.Fatal(err)
	}
	m := rv32.NewMachine(1 << 16)
	m.Load(p)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	prev := int32(-1 << 30)
	for i := 0; i < 22; i++ {
		v := int32(uint32(m.RAM[i*4]) | uint32(m.RAM[i*4+1])<<8 |
			uint32(m.RAM[i*4+2])<<16 | uint32(m.RAM[i*4+3])<<24)
		if v < prev {
			t.Fatalf("array not sorted at %d: %d < %d", i, v, prev)
		}
		prev = v
	}
}

func TestGEMMCorrect(t *testing.T) {
	o := runW(t, GEMM)
	// Reference: compute C = A×B in Go and the same alternating sum.
	A := [][]int{
		{2, -3, 4, 1, -2, 3}, {-1, 2, 3, -4, 2, 1}, {3, 1, -2, 2, 4, -1},
		{2, -2, 1, 3, -3, 2}, {-4, 3, 2, -1, 2, 2}, {1, 2, -3, 4, 1, -2}}
	// B as stored transposed in the program (BT rows are B columns).
	BT := [][]int{
		{3, 2, -1, 4, 2, -3}, {-2, 1, 4, -3, 2, 1}, {1, -3, 2, 2, -1, 4},
		{4, 2, -2, 1, 3, -2}, {-1, 3, 1, 2, -2, 4}, {2, -2, 3, -4, 1, 2}}
	B := make([][]int, 6)
	for k := range B {
		B[k] = make([]int, 6)
		for j := range B[k] {
			B[k][j] = BT[j][k]
		}
	}
	sum, sign := 0, 1
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			acc := 0
			for k := 0; k < 6; k++ {
				acc += A[i][k] * B[k][j]
			}
			sum += sign * acc
			sign = -sign
		}
	}
	if o.Checksum != sum {
		t.Errorf("GEMM checksum = %d, want %d", o.Checksum, sum)
	}
}

func TestSobelCorrect(t *testing.T) {
	o := runW(t, Sobel)
	// Reference Sobel in Go over the same synthetic image.
	img := make([][]int, 16)
	for r := range img {
		img[r] = make([]int, 16)
		for c := range img[r] {
			img[r][c] = (r*3 + c*5) % 21
		}
	}
	abs := func(x int) int {
		if x < 0 {
			return -x
		}
		return x
	}
	sum, sign := 0, 1
	for r := 1; r < 15; r++ {
		for c := 1; c < 15; c++ {
			gx := (img[r-1][c+1] + 2*img[r][c+1] + img[r+1][c+1]) -
				(img[r-1][c-1] + 2*img[r][c-1] + img[r+1][c-1])
			gy := (img[r+1][c-1] + 2*img[r+1][c] + img[r+1][c+1]) -
				(img[r-1][c-1] + 2*img[r-1][c] + img[r-1][c+1])
			sum += sign * (abs(gx) + abs(gy))
			sign = -sign
		}
	}
	if o.Checksum != sum {
		t.Errorf("Sobel checksum = %d, want %d", o.Checksum, sum)
	}
}

func TestDhrystoneRuns(t *testing.T) {
	o := runW(t, Dhrystone)
	if o.Checksum == 0 {
		t.Error("dhrystone checksum degenerate")
	}
	// 100 iterations must dominate the cycle counts.
	if o.ART9Cycles < 10000 {
		t.Errorf("suspiciously few ART-9 cycles: %d", o.ART9Cycles)
	}
}

func TestSuiteShapes(t *testing.T) {
	// The qualitative results the paper reports (DESIGN.md §2) that do
	// not depend on calibration details.
	all, err := RunAll()
	if err != nil {
		t.Fatal(err)
	}
	for name, o := range all {
		// Fig. 5 primary ordering: ART-9 ternary cells always beat the
		// RV32I binary cells, by a wide margin (paper: −54 % on
		// Dhrystone), and ARMv6-M sits between RV32I and roughly the
		// ART-9 level. (On our hand-written kernels the ARM column can
		// edge below ART-9 — the fixed ternary runtime library is not
		// amortised the way the paper's 794-instruction Dhrystone
		// amortises it; EXPERIMENTS.md records the measured values.)
		if o.ARTTrits >= o.RVBits {
			t.Errorf("%s: ART %d trits not below RV32I %d bits",
				name, o.ARTTrits, o.RVBits)
		}
		// Minimum cell reduction vs RV32I per row: Dhrystone (the
		// paper's −54 % headline) must clear 30 %; bubble clears 45 %;
		// the multiplier-dominated micro-kernels clear 15 % (their
		// fixed ternary runtime is unamortised; see EXPERIMENTS.md).
		min := map[string]float64{
			"dhrystone": 0.30, "bubble": 0.45, "gemm": 0.15, "sobel": 0.15,
		}[name]
		if reduction := 1 - float64(o.ARTTrits)/float64(o.RVBits); reduction < min {
			t.Errorf("%s: ART-9 cell reduction vs RV32I only %.0f%%, want ≥%.0f%% (paper: 54%% on Dhrystone)",
				name, reduction*100, min*100)
		}
		if o.ARMBits >= o.RVBits {
			t.Errorf("%s: ARMv6-M %d bits not below RV32I %d bits", name, o.ARMBits, o.RVBits)
		}
		// ART-9 (pipelined, CPI≈1) always beats the multi-cycle Pico.
		if o.ART9Cycles >= o.PicoCycles {
			t.Errorf("%s: ART-9 %d cycles not faster than Pico %d",
				name, o.ART9Cycles, o.PicoCycles)
		}
		// The translation expands the instruction count.
		if o.ARTInsts <= o.RVInsts {
			t.Errorf("%s: translation did not expand: %d vs %d",
				name, o.ARTInsts, o.RVInsts)
		}
	}
	// The bubble-sort row achieves the full paper ordering including the
	// ARMv6-M column.
	if b := all["bubble"]; !(b.ARTTrits < b.ARMBits && b.ARMBits < b.RVBits) {
		t.Errorf("bubble: full Fig. 5 ordering lost: ART %d trits, ARM %d bits, RV %d bits",
			b.ARTTrits, b.ARMBits, b.RVBits)
	}
	// Bubble sort: large ART-9 advantage (paper: ≈3.8×); GEMM: near
	// parity (paper: ≈1.05×) because ART-9 multiplies in software.
	bub := float64(all["bubble"].PicoCycles) / float64(all["bubble"].ART9Cycles)
	gem := float64(all["gemm"].PicoCycles) / float64(all["gemm"].ART9Cycles)
	if bub < 2.0 {
		t.Errorf("bubble advantage %.2f×, want ≫1 (paper 3.8×)", bub)
	}
	if gem > 2.0 || gem < 0.7 {
		t.Errorf("GEMM ratio %.2f×, want ≈1 (paper 1.05×)", gem)
	}
	if bub <= gem {
		t.Errorf("crossover lost: bubble %.2f× should exceed GEMM %.2f×", bub, gem)
	}
}

func TestDhrystoneDMIPSBand(t *testing.T) {
	// Table II shape: Pico < ART-9 < Vex in DMIPS/MHz.
	o := runW(t, Dhrystone)
	art := float64(o.ART9Cycles)
	if !(float64(o.VexCycles) < art && art < float64(o.PicoCycles)) {
		t.Errorf("DMIPS/MHz ordering broken: vex %d, art %d, pico %d",
			o.VexCycles, o.ART9Cycles, o.PicoCycles)
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("gemm"); !ok {
		t.Error("gemm not found")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("bogus name found")
	}
}

// BenchmarkSuiteJob times one whole suite job per workload — RV32
// reference run, translation, assembly (a cache hit after the first) and
// the timed ART-9 run — with its allocations, the per-job cost the engine
// pays for every evaluation.
func BenchmarkSuiteJob(b *testing.B) {
	for _, w := range Workloads {
		b.Run(w.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := RunCtx(context.Background(), w, xlate.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRV32Run times a job's RV32 reference run per workload — the
// machine with both baseline cycle models observing it — in ns per
// retired instruction. Building the machine is outside the timer.
func BenchmarkRV32Run(b *testing.B) {
	for _, w := range Workloads {
		b.Run(w.Name, func(b *testing.B) {
			p, err := rv32.Assemble(w.Source)
			if err != nil {
				b.Fatal(err)
			}
			var retired uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m := rv32.NewMachine(1 << 16)
				m.Observe(rv32.NewVexRiscvModel())
				m.Observe(rv32.NewPicoRV32Model())
				if err := m.Load(p); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := m.Run(); err != nil {
					b.Fatal(err)
				}
				retired += m.Retired
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(retired), "ns/inst")
		})
	}
}
