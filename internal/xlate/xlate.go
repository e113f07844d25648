// Package xlate implements the software-level compiling framework of
// §III-A (Fig. 2 of the paper): it converts RV32 programs produced by the
// binary toolchain into ART-9 ternary assembly through three phases,
//
//  1. instruction mapping — each binary instruction becomes a ternary
//     instruction or a primitive sequence of them (software multiply,
//     compare-based branches, shift synthesis, …),
//  2. operand conversion — immediates are rebuilt in ternary fields
//     (LUI/LI construction for wide constants) and the 32 binary registers
//     are renamed onto the 9 ternary GPTRs, spilling the rest to TDM,
//  3. redundancy checking — peephole elimination of the duplicated
//     operations the first two phases introduce, with branch targets
//     re-resolved afterwards (targets are carried symbolically and the
//     ART-9 assembler recomputes every offset).
//
// # Value contract
//
// ART-9 words hold ±9841; RV32 words hold 32 bits. A translated program
// computes identical results when its runtime values stay within the
// 9-trit range and its data addresses stay below the spill area (§IV of
// DESIGN.md). The translator records diagnostics for constructs whose
// semantics narrow (bitwise ops on non-boolean values, unsigned compares);
// the benchmark suite honours the contract and the equivalence tests
// enforce it.
package xlate

import (
	"fmt"
	"strings"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/rv32"
	"repro/internal/ternary"
)

// ABI: the translator's register convention on ART-9.
//
//	T0        — architectural zero (software convention, initialised once)
//	T1..T6    — direct map for the six hottest RV32 registers
//	T7        — primary scratch: spill addresses, immediates, softmul arg A
//	T8        — secondary scratch: softmul arg B, runtime link, relaxation
//
// Spill slots live in the ±13 LOAD/STORE offset window around T0 (=0),
// where every access is a single instruction:
//
//	TDM[-1..-7]    runtime slots (save area, argument, signs of softdiv)
//	TDM[+k], k not a multiple of 4 — ten cheap spill slots inside the
//	               padding the identity address mapping leaves between
//	               word elements (RV32 word data only occupies TDM
//	               addresses divisible by 4, so +1,+2,+3,+5,… are free)
//	TDM[-8..-13]   six more cheap spill slots at the top of TDM
//	TDM[-100...]   overflow spill slots (three instructions per access)
const (
	regZero   = isa.Reg(0)
	scratchA  = isa.Reg(7)
	scratchB  = isa.Reg(8)
	numDirect = 6
	farBase   = -100 // overflow spill area, growing downward

	// Runtime slot assignments (see runtime.go).
	rtSaveT3 = -1
	rtSaveT4 = -2
	rtSaveT5 = -3
	rtSaveT6 = -4
	rtArgB   = -5 // divmod divisor in, remainder out
	rtSignA  = -6
	rtSignQ  = -7
)

// cheapSpillSlots lists the single-instruction spill addresses in
// allocation order: word-padding slots first, then the top of TDM.
var cheapSpillSlots = []int{
	1, 2, 3, 5, 6, 7, 9, 10, 11, 13,
	-8, -9, -10, -11, -12, -13,
}

// Options configure a translation.
type Options struct {
	// InlineMul expands MUL into an in-line trit-serial loop instead of a
	// runtime call (the mapping-quality optimisation §III-A motivates;
	// see the GEMM discussion in EXPERIMENTS.md). Default true.
	NoInlineMul bool
	// NoPeephole disables the redundancy-checking phase (for the
	// ablation benchmarks).
	NoPeephole bool
}

// Output is the result of a translation.
type Output struct {
	// Asm is the generated ART-9 assembly source.
	Asm string
	// Lines is the structured form Asm was printed from: concrete
	// instructions and pseudos, with branch targets as labels so the
	// redundancy checker can delete instructions without breaking
	// offsets.
	Lines []asm.Line
	// Diagnostics records constructs translated with narrowed semantics.
	Diagnostics []string
	// Removed is the number of instructions deleted by redundancy
	// checking (the Fig. 2 "redundancy checking" phase's yield).
	Removed int

	alloc *allocation
}

// translator carries the state of one translation.
type translator struct {
	opts  Options
	src   *rv32.Program
	alloc *allocation
	lines []asm.Line
	diags []string

	labelAt   map[int]string // rv32 instruction index -> label name
	skip      map[int]bool   // indices consumed by idiom folding
	needMul   bool
	needDiv   bool
	pendLabel string // label waiting to attach to the next emitted line

	// boolReg tracks registers whose value is provably in {−1, 0, +1},
	// so equality branches against zero can test the LST directly
	// (a one-instruction branch instead of the COMP sequence).
	boolReg map[rv32.Reg]bool
}

// trackWrite updates the small-value tracking after an instruction that
// wrote rd. isBool marks the value as provably in {−1, 0, +1}.
func (t *translator) trackWrite(rd rv32.Reg, isBool bool) {
	if rd == 0 {
		return
	}
	if isBool {
		t.boolReg[rd] = true
	} else {
		delete(t.boolReg, rd)
	}
}

// clearBools forgets all tracking (labels and calls are merge points).
func (t *translator) clearBools() {
	for r := range t.boolReg {
		delete(t.boolReg, r)
	}
}

// postTrack classifies the instruction just mapped for the small-value
// tracking. Skipped (idiom-folded) instructions still wrote their rd.
func (t *translator) postTrack(idx int, in rv32.Inst) {
	switch in.Op {
	case rv32.SLT, rv32.SLTU, rv32.SLTI, rv32.SLTIU:
		t.trackWrite(in.Rd, true)
	case rv32.ADDI:
		// li rd, {−1,0,1}.
		t.trackWrite(in.Rd, in.Rs1 == 0 && in.Imm >= -1 && in.Imm <= 1)
	case rv32.JAL, rv32.JALR:
		t.clearBools() // the callee (or return path) may write anything
	default:
		if in.Op.WritesRd() {
			t.trackWrite(in.Rd, false)
		}
	}
}

// Translate converts an assembled RV32 program into ART-9 assembly.
func Translate(p *rv32.Program, opts Options) (*Output, error) {
	t := &translator{
		opts: opts, src: p, alloc: allocate(p),
		skip: map[int]bool{}, boolReg: map[rv32.Reg]bool{},
	}
	t.findLabels()

	// Prologue: establish the zero-register convention.
	t.ldi(regZero, 0)

	for idx, in := range p.Insts {
		if lbl, ok := t.labelAt[idx]; ok {
			t.label(lbl)
			t.clearBools() // merge point
		}
		if err := t.mapInst(idx, in); err != nil {
			return nil, fmt.Errorf("xlate: instruction %d (%v): %w", idx, in, err)
		}
		t.postTrack(idx, in)
	}
	// A trailing label (branch to end) needs an anchor.
	if lbl, ok := t.labelAt[len(p.Insts)]; ok {
		t.label(lbl)
		t.emit(asm.Line{Op: asm.HALT})
	}
	t.appendRuntime()

	out := &Output{Lines: t.lines, Diagnostics: t.diags, alloc: t.alloc}
	if !opts.NoPeephole {
		out.Lines, out.Removed = peephole(out.Lines)
	}
	const header = "; generated by the ART-9 software-level compiling framework\n"
	var b strings.Builder
	b.Grow(len(header) + 24*len(out.Lines))
	b.WriteString(header)
	asm.Print(&b, out.Lines)
	out.Asm = b.String()
	return out, nil
}

// findLabels names every branch/jump target "L<idx>".
func (t *translator) findLabels() {
	t.labelAt = map[int]string{}
	for idx, in := range t.src.Insts {
		var target int
		switch {
		case in.Op.IsBranch(), in.Op == rv32.JAL:
			target = idx + int(in.Imm)/4
		default:
			continue
		}
		if _, ok := t.labelAt[target]; !ok {
			t.labelAt[target] = fmt.Sprintf("L%d", target)
		}
	}
}

func (t *translator) targetLabel(idx int, in rv32.Inst) string {
	return t.labelAt[idx+int(in.Imm)/4]
}

func (t *translator) emit(l asm.Line) {
	if t.pendLabel != "" && l.Label == "" {
		l.Label = t.pendLabel
	}
	t.pendLabel = ""
	t.lines = append(t.lines, l)
}

// label attaches a label to the next emitted line.
func (t *translator) label(name string) {
	if t.pendLabel != "" {
		// Two labels on one spot: emit an empty labelled line.
		t.lines = append(t.lines, asm.Line{Label: t.pendLabel})
	}
	t.pendLabel = name
}

func (t *translator) diagf(format string, args ...interface{}) {
	t.diags = append(t.diags, fmt.Sprintf(format, args...))
}

// Convenience emitters.
func (t *translator) r2(op isa.Op, ta, tb isa.Reg) {
	t.emit(asm.Line{Op: asm.Instr(op), Ta: ta, Tb: tb})
}

func (t *translator) imm(op isa.Op, ta isa.Reg, v int) {
	t.emit(asm.Line{Op: asm.Instr(op), Ta: ta, Imm: v})
}

func (t *translator) mem(op isa.Op, ta, tb isa.Reg, off int) {
	t.emit(asm.Line{Op: asm.Instr(op), Ta: ta, Tb: tb, Imm: off})
}

func (t *translator) branch(op isa.Op, tb isa.Reg, b ternary.Trit, target string) {
	t.emit(asm.Line{Op: asm.Instr(op), Tb: tb, B: b, Target: target})
}

// skipIf emits a branch over the next instruction (its offset is 2).
func (t *translator) skipIf(op isa.Op, tb isa.Reg, b ternary.Trit) {
	t.emit(asm.Line{Op: asm.Instr(op), Tb: tb, B: b, Imm: 2})
}

// jump emits JAL ta, target.
func (t *translator) jump(ta isa.Reg, target string) {
	t.emit(asm.Line{Op: asm.Instr(isa.JAL), Ta: ta, Target: target})
}

// lda loads the address of a label into ta.
func (t *translator) lda(ta isa.Reg, label string) {
	t.emit(asm.Line{Op: asm.LDA, Ta: ta, Target: label})
}

// ldi loads a full-width constant into reg (operand conversion: the LUI/LI
// construction of §IV-A). Values outside the 9-trit range wrap, recorded
// as a diagnostic.
func (t *translator) ldi(reg isa.Reg, v int) {
	if v > ternary.MaxInt || v < ternary.MinInt {
		t.diagf("constant %d wraps to 9-trit range", v)
		v = ternary.FromInt(v).Int()
	}
	t.emit(asm.Line{Op: asm.LDI, Ta: reg, Imm: v})
}
