package xlate

import (
	"fmt"
	"testing"

	"repro/internal/rv32"
	"repro/internal/xlate/randprog"
)

// TestRandomStructuredPrograms is the translator's acid test: 40 random
// programs with nested control flow must produce identical register state
// on the RV32 machine and both ART-9 cores.
func TestRandomStructuredPrograms(t *testing.T) {
	if testing.Short() {
		t.Skip("long property test")
	}
	g := randprog.New(2024)
	for trial := 0; trial < 40; trial++ {
		src := g.Generate(12)
		e := runEquiv(t, src, Options{})
		for _, rn := range randprog.Regs {
			r, _ := rv32.ParseReg(rn)
			e.checkReg(t, fmt.Sprintf("structured-%d", trial), r)
		}
		if t.Failed() {
			t.Logf("failing program:\n%s", src)
			t.FailNow()
		}
	}
}

// TestRandomStructuredProgramsNoPeephole cross-checks that the redundancy
// checker never changes semantics: with and without it, identical state.
func TestRandomStructuredProgramsNoPeephole(t *testing.T) {
	if testing.Short() {
		t.Skip("long property test")
	}
	g := randprog.New(4048)
	for trial := 0; trial < 15; trial++ {
		src := g.Generate(10)
		with := runEquiv(t, src, Options{})
		without := runEquiv(t, src, Options{NoPeephole: true})
		for _, rn := range randprog.Regs {
			r, _ := rv32.ParseReg(rn)
			a, err := with.out.ReadBack(with.fn.S, r)
			if err != nil {
				t.Fatal(err)
			}
			b, err := without.out.ReadBack(without.fn.S, r)
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Fatalf("trial %d: peephole changed %s: %d vs %d\n%s",
					trial, rn, a, b, src)
			}
		}
		// And the peephole must never grow the program.
		if len(with.out.Lines) > len(without.out.Lines) {
			t.Fatalf("trial %d: peephole grew the program", trial)
		}
	}
}
