package xlate

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/rv32"
)

// Focused tests of the mapping templates added for mapping quality:
// ADDI chains, big memory offsets, commutative flips, bool-branch fast
// paths, and the variable-shift loops.

func TestAddiChainCorrectAndShort(t *testing.T) {
	// Immediates beyond the 3-trit field but within ±39 use an ADDI
	// chain instead of the LUI/LI construction.
	for _, imm := range []int{14, 26, 27, 39, -14, -39, 16} {
		e := runEquiv(t, fmt.Sprintf(`
			li a0, 100
			addi a1, a0, %d
			ebreak
		`, imm), Options{})
		e.checkReg(t, fmt.Sprintf("addi %d", imm), 11)
		// The chain must not use LUI for these values.
		for _, l := range e.out.Lines {
			if l.Op == asm.Instr(isa.LUI) && l.Ta != regZero && l.Imm != 0 {
				// the prologue/li are LUI-based; check the chain only
				// via total length below
				break
			}
		}
	}
	// Size check: addi +16 translates to ≤ 3 instructions beyond the
	// base register copy.
	rvProg, err := rv32.Assemble("li a0, 1\naddi a1, a0, 16\nebreak")
	if err != nil {
		t.Fatal(err)
	}
	out, err := Translate(rvProg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ops := 0
	for _, l := range out.Lines {
		if l.Op == asm.Instr(isa.ADDI) {
			ops++
		}
	}
	if ops > 2 {
		t.Errorf("addi 16 expanded to %d ADDIs, want ≤2", ops)
	}
}

func TestBigMemoryOffsets(t *testing.T) {
	// Offsets across the folding regimes: in-field, ADDI-chain, far.
	for _, off := range []int{0, 12, 16, 40, 52, 56, 120, 2000} {
		e := runEquiv(t, fmt.Sprintf(`
			.data
			.org 2100
		end:	.word 0
			.text
			li   t0, 52
			li   a1, 777
			sw   a1, %d(t0)
			lw   a2, %d(t0)
			ebreak
		`, off, off), Options{})
		e.checkReg(t, fmt.Sprintf("off %d", off), 12)
		e.checkMem(t, fmt.Sprintf("mem off %d", off), 52+off)
	}
}

func TestBigOffsetSpilledValue(t *testing.T) {
	// Store of a *spilled* value at a far offset exercises the
	// park-in-runtime-slot path of memAddr.
	var b strings.Builder
	// Pressure: 8 hot registers so at least one spills.
	regs := []string{"a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7"}
	for i, r := range regs {
		fmt.Fprintf(&b, "li %s, %d\n", r, 100+i)
	}
	for i := 0; i < 3; i++ {
		for _, r := range regs {
			fmt.Fprintf(&b, "addi %s, %s, 1\n", r, r)
		}
	}
	b.WriteString("li t0, 100\n")
	for i, r := range regs {
		fmt.Fprintf(&b, "sw %s, %d(t0)\n", r, 900+4*i)
	}
	b.WriteString("ebreak\n")
	e := runEquiv(t, b.String(), Options{})
	for i := range regs {
		e.checkMem(t, fmt.Sprintf("spill store %d", i), 1000+4*i)
	}
}

func TestCommutativeFlip(t *testing.T) {
	// add a0, a1, a0 (rd == rs2): the flip avoids the save/copy dance.
	e := runEquiv(t, `
		li a0, 5
		li a1, 7
		add a0, a1, a0
		ebreak
	`, Options{})
	e.checkReg(t, "commutative", 10)
	// Non-commutative: sub a0, a1, a0 must still be exact.
	e = runEquiv(t, `
		li a0, 5
		li a1, 7
		sub a0, a1, a0
		ebreak
	`, Options{})
	e.checkReg(t, "sub-swap", 10)
}

func TestBoolBranchFastPath(t *testing.T) {
	// slt + beqz in one block: the branch must test the LST directly
	// (no COMP emitted between the SLT result and the branch).
	rvProg, err := rv32.Assemble(`
		li a0, 3
		li a1, 9
		slt t0, a1, a0
		beqz t0, ok
		li a2, 111
	ok:	ebreak
	`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Translate(rvProg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Count COMPs: the slt needs one; the branch must not add another.
	comps := 0
	for _, l := range out.Lines {
		if l.Op == asm.Instr(isa.COMP) {
			comps++
		}
	}
	if comps != 1 {
		t.Errorf("bool branch did not use the fast path: %d COMPs, want 1", comps)
	}
	// And it must be semantically right for all outcomes.
	for _, pair := range [][2]int{{3, 9}, {9, 3}, {5, 5}} {
		e := runEquiv(t, fmt.Sprintf(`
			li a0, %d
			li a1, %d
			slt t0, a1, a0
			li a2, 0
			beqz t0, ok
			li a2, 111
		ok:	ebreak
		`, pair[0], pair[1]), Options{})
		e.checkReg(t, "bool-branch", 12)
	}
}

func TestBoolBranchInvalidatedByLabel(t *testing.T) {
	// The fast path must NOT fire across a label (merge point).
	rvProg, err := rv32.Assemble(`
		li t0, 1
	merge:
		beqz t0, out
		li t0, 0
		j merge
	out:	ebreak
	`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Translate(rvProg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	comps := 0
	for _, l := range out.Lines {
		if l.Op == asm.Instr(isa.COMP) {
			comps++
		}
	}
	if comps == 0 {
		t.Error("branch after label used the fast path unsoundly")
	}
	// Semantics regardless.
	e := runEquiv(t, `
		li t0, 1
	merge:
		beqz t0, out
		li t0, 0
		j merge
	out:	li a0, 42
		ebreak
	`, Options{})
	e.checkReg(t, "merge", 10)
}

func TestVariableShiftEdges(t *testing.T) {
	for _, c := range [][2]int{{5, 0}, {5, 1}, {5, 6}, {-40, 2}, {100, 3}} {
		e := runEquiv(t, fmt.Sprintf(`
			li a0, %d
			li a1, %d
			sll a2, a0, a1
			ebreak
		`, c[0], c[1]), Options{})
		e.checkReg(t, fmt.Sprintf("sll(%d,%d)", c[0], c[1]), 12)
	}
	for _, c := range [][2]int{{80, 0}, {80, 2}, {81, 4}, {-80, 2}} {
		e := runEquiv(t, fmt.Sprintf(`
			li a0, %d
			li a1, %d
			sra a2, a0, a1
			ebreak
		`, c[0], c[1]), Options{})
		e.checkReg(t, fmt.Sprintf("sra(%d,%d)", c[0], c[1]), 12)
	}
}

func TestMulHReturnsZeroUnderContract(t *testing.T) {
	e := runEquiv(t, `
		li a0, 90
		li a1, 90
		mulh a2, a0, a1
		ebreak
	`, Options{})
	// Both sides give 0: the 32-bit high word of 8100 and the
	// translator's contract value.
	e.checkReg(t, "mulh", 12)
}

func TestXoriEquality(t *testing.T) {
	e := runEquiv(t, `
		li a0, 77
		xori t0, a0, 77
		seqz t1, t0
		xori t2, a0, 76
		snez t3, t2
		ebreak
	`, Options{})
	for _, r := range []rv32.Reg{6, 28} {
		e.checkReg(t, "xori", r)
	}
}

func TestStoreConstToSpilledRegister(t *testing.T) {
	// li of a wide constant into a register that ends up spilled.
	var b strings.Builder
	regs := []string{"a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7", "s2"}
	for i, r := range regs {
		fmt.Fprintf(&b, "li %s, %d\n", r, 9000+i)
	}
	// Touch all so none is dead.
	for i := 1; i < len(regs); i++ {
		fmt.Fprintf(&b, "sub %s, %s, %s\n", regs[i], regs[i], regs[i-1])
	}
	b.WriteString("ebreak\n")
	e := runEquiv(t, b.String(), Options{})
	for _, rn := range regs {
		r, _ := rv32.ParseReg(rn)
		e.checkReg(t, "wide-spill", r)
	}
}
