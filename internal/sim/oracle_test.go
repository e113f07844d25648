package sim_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/bench"
	"repro/internal/isa"
	"repro/internal/rv32"
	"repro/internal/sim"
	"repro/internal/ternary"
	"repro/internal/xlate"
	"repro/internal/xlate/randprog"
)

// cores pairs a functional core, run with RunTimed, and the Pipeline it
// must reproduce, each on its own State and both sized by one Config.
type cores struct {
	f *sim.Functional
	p *sim.Pipeline
}

func newCores(cfg sim.Config) cores {
	return cores{sim.NewFunctional(cfg), sim.NewPipeline(cfg)}
}

// compare loads prog and data into both cores, runs them, and fails t
// unless they agree: both stop with the same ErrNoHalt, both fault, or
// both halt with the same Result, PC, TRF and TDM. It returns the
// Pipeline's outcome.
func (c cores) compare(t *testing.T, name string, prog *asm.Program, data map[int]ternary.Word) (sim.Result, error) {
	t.Helper()
	for _, s := range []*sim.State{c.f.S, c.p.S} {
		if err := s.Load(prog); err != nil {
			t.Fatalf("%s: load: %v", name, err)
		}
		if err := s.TDM.SetAll(data); err != nil {
			t.Fatalf("%s: data: %v", name, err)
		}
	}
	fres, ferr := c.f.RunTimed(context.Background())
	pres, perr := c.p.Run()
	var fNoHalt, pNoHalt sim.ErrNoHalt
	fStop, pStop := errors.As(ferr, &fNoHalt), errors.As(perr, &pNoHalt)
	switch {
	case fStop || pStop:
		if fStop != pStop || fNoHalt != pNoHalt {
			t.Errorf("%s: timed error %v, pipeline error %v", name, ferr, perr)
		}
	case (ferr == nil) != (perr == nil):
		t.Errorf("%s: timed error %v, pipeline error %v", name, ferr, perr)
	case ferr == nil:
		if fres != pres {
			t.Errorf("%s: timed Result %+v\npipeline Result %+v", name, fres, pres)
		}
		if c.f.S.PC != c.p.S.PC || c.f.S.TRF != c.p.S.TRF {
			t.Errorf("%s: timed PC %v TRF %v\npipeline PC %v TRF %v", name, c.f.S.PC, c.f.S.TRF, c.p.S.PC, c.p.S.TRF)
		}
		for i := 0; i < c.f.S.TDM.Size(); i++ {
			fw, _ := c.f.S.TDM.ReadP(i)
			pw, _ := c.p.S.TDM.ReadP(i)
			if fw != pw {
				t.Errorf("%s: TDM[%d] timed %v, pipeline %v", name, i, fw, pw)
				break
			}
		}
	}
	return pres, perr
}

// program is one ART-9 program with its initial TDM contents.
type program struct {
	name string
	prog *asm.Program
	data map[int]ternary.Word
}

func assemble(t *testing.T, name, src string) program {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("%s: assemble: %v\n%s", name, err, src)
	}
	return program{name: name, prog: p}
}

// compileRV32 is a job's path from RV32 source to the ART-9 program.
func compileRV32(name, src string) (program, error) {
	rp, err := rv32.Assemble(src)
	if err != nil {
		return program{}, err
	}
	out, err := xlate.Translate(rp, xlate.Options{})
	if err != nil {
		return program{}, err
	}
	p, err := asm.Assemble(out.Asm)
	if err != nil {
		return program{}, err
	}
	return program{name: name, prog: p, data: xlate.DataImage(rp)}, nil
}

// fuzzCompileSeeds returns FuzzCompile's seed corpus: the suite and the
// extended workloads, its two literal seeds, and the files under its
// testdata corpus directory.
func fuzzCompileSeeds(t *testing.T) []string {
	t.Helper()
	var srcs []string
	for _, w := range append(append([]bench.Workload{}, bench.Workloads...), bench.ExtendedWorkloads...) {
		srcs = append(srcs, w.Source)
	}
	srcs = append(srcs, "li a0, 21\nadd a0, a0, a0\nebreak", "loop: j loop")
	files, err := filepath.Glob("../bench/testdata/fuzz/FuzzCompile/*")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(b), "\n") {
			if arg, ok := strings.CutPrefix(line, "string("); ok {
				s, err := strconv.Unquote(strings.TrimSuffix(arg, ")"))
				if err != nil {
					t.Fatalf("%s: %v", f, err)
				}
				srcs = append(srcs, s)
			}
		}
	}
	return srcs
}

// oraclePrograms returns every program the differential test runs:
// random ART-9 programs over all 24 opcodes, the golden programs of this
// package and of the CLIs, and the job path's programs — the paper suite,
// the machine-reuse programs, random RV32 programs and FuzzCompile's seed
// corpus, each translated as a job translates it.
func oraclePrograms(t *testing.T) []program {
	t.Helper()
	var ps []program
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		name := fmt.Sprintf("random-art9-%d", i)
		ps = append(ps, assemble(t, name, sim.BuildRandomProgram(rng, 40)))
	}
	for name, src := range sim.GoldenPrograms() {
		ps = append(ps, assemble(t, "golden-"+name, src))
	}
	files, err := filepath.Glob("../../cmd/*/testdata/*.t9s")
	if err != nil || len(files) == 0 {
		t.Fatalf("CLI golden programs: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, assemble(t, f, string(src)))
	}

	rvs := map[string]string{}
	for _, w := range bench.Workloads {
		rvs["suite-"+w.Name] = w.Source
	}
	reuse := randprog.New(1414) // the machine-reuse tests' programs
	for i := 0; i < 6; i++ {
		rvs[fmt.Sprintf("reuse-%d", i)] = reuse.Generate(12)
	}
	g := randprog.New(99)
	for i := 0; i < 400; i++ {
		rvs[fmt.Sprintf("randprog-%d", i)] = g.Generate(12)
	}
	for name, src := range rvs {
		p, err := compileRV32(name, src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ps = append(ps, p)
	}
	for i, src := range fuzzCompileSeeds(t) {
		// Seeds that do not compile end FuzzCompile's path early too.
		if p, err := compileRV32(fmt.Sprintf("fuzz-seed-%d", i), src); err == nil {
			ps = append(ps, p)
		}
	}
	return ps
}

// TestTimedMatchesPipeline is the oracle of the timed functional core
// every suite job runs: on every program the repo can generate, RunTimed
// and the Pipeline agree on the whole Result and on the final PC, TRF and
// TDM. Summed over the programs, every opcode retires and both stall
// sources occur, so no part of the timing rule goes unchecked.
func TestTimedMatchesPipeline(t *testing.T) {
	c := newCores(sim.Config{})
	var ops [isa.NumOps]uint64
	var stallsLoad, stallsBranch uint64
	for _, p := range oraclePrograms(t) {
		res, err := c.compare(t, p.name, p.prog, p.data)
		if err != nil {
			t.Errorf("%s: %v", p.name, err)
			continue
		}
		for op, n := range res.ByOp {
			ops[op] += n
		}
		stallsLoad += res.StallsLoad
		stallsBranch += res.StallsBranch
	}
	for op, n := range ops {
		if n == 0 {
			t.Errorf("no program retired %v", isa.Op(op))
		}
	}
	if stallsLoad == 0 || stallsBranch == 0 {
		t.Errorf("load-use stalls %d, branch stalls %d: want both non-zero", stallsLoad, stallsBranch)
	}
}

// TestTimedBudgetMatchesPipeline charges budgets at and below each
// program's cycle count, where the Pipeline stops with ErrNoHalt, and
// just enough for it to halt: RunTimed stops the same way.
func TestTimedBudgetMatchesPipeline(t *testing.T) {
	var ps []program
	for name, src := range sim.GoldenPrograms() {
		ps = append(ps, assemble(t, name, src))
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 10; i++ {
		ps = append(ps, assemble(t, fmt.Sprintf("random-%d", i), sim.BuildRandomProgram(rng, 30)))
	}
	for _, p := range ps {
		res, err := newCores(sim.Config{}).compare(t, p.name, p.prog, p.data)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		cycles := int(res.Cycles)
		budgets := []int{1, 2, 3, 5, cycles / 2}
		for b := cycles - 6; b <= cycles+1; b++ {
			budgets = append(budgets, b)
		}
		for _, b := range budgets {
			if b > 0 {
				newCores(sim.Config{MaxSteps: b}).compare(t, fmt.Sprintf("%s/budget=%d", p.name, b), p.prog, p.data)
			}
		}
	}
}

// illegalWord is an R-type word with an unassigned minor code.
var illegalWord = ternary.Word{}.SetField(7, 8, -4).SetField(4, 6, 13)

// TestTimedFaultsMatchPipeline runs programs that fault — a TDM access
// out of range, then an illegal word or the end of TIM one or two
// instructions later — under every budget from 1 to past the run's end:
// whichever fault the Pipeline reaches first within the budget, RunTimed
// faults too, and otherwise both stop with the same ErrNoHalt.
func TestTimedFaultsMatchPipeline(t *testing.T) {
	const memWords = 27 // T1 = 100 addresses past the end of TDM
	for _, mem := range []string{"", "LOAD T2, T1, 0", "STORE T2, T1, 0"} {
		for _, next := range []string{"", "ADDI T3, 1", "ADD T3, T2", "MV T3, T2", "BEQ T0, 0, far", "BEQ T0, 1, far", "HALT"} {
			src := fmt.Sprintf("LDI T1, 100\nLDI T2, 7\n%s\n%s\nbad: NOP\nNOP\nfar: HALT\n", mem, next)
			p := assemble(t, src, src)
			bad := p.prog.Symbols["bad"]
			illegal := *p.prog
			illegal.Words = append([]ternary.Word{}, p.prog.Words...)
			illegal.Words[bad] = illegalWord
			short := *p.prog
			short.Words = p.prog.Words[:bad]
			for fault, prog := range map[string]*asm.Program{"none": p.prog, "illegal": &illegal, "end of TIM": &short} {
				cfg := sim.Config{TIMWords: len(prog.Words), TDMWords: memWords}
				name := fmt.Sprintf("%q, fetch fault %s", mem+"; "+next, fault)
				res, _ := newCores(cfg).compare(t, name, prog, nil)
				for b := 1; b <= int(res.Cycles)+2; b++ {
					cfg.MaxSteps = b
					newCores(cfg).compare(t, fmt.Sprintf("%s, budget %d", name, b), prog, nil)
				}
			}
		}
	}
}
