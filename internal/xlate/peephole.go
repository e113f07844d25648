package xlate

import (
	"repro/internal/asm"
	"repro/internal/isa"
)

// The redundancy-checking phase of Fig. 2: the mapping and conversion
// phases emit conservatively (copies for two-address form, spill traffic,
// rebuilt constants); this pass deletes the duplicated operations. Branch
// targets survive deletion because Lines carry them symbolically — the
// ART-9 assembler recomputes every offset afterwards, which is the
// "re-calculates the branch target addresses" step of §III-A.

// lineWrites returns the register a line writes, if any.
func lineWrites(l asm.Line) (isa.Reg, bool) {
	if op, ok := l.Op.Op(); ok {
		return l.Ta, op.WritesReg()
	}
	return l.Ta, l.Op == asm.LDI || l.Op == asm.LDA
}

// lineReads reports whether a line reads register r.
func lineReads(l asm.Line, r isa.Reg) bool {
	op, ok := l.Op.Op()
	return ok && (op.ReadsTa() && l.Ta == r || op.ReadsTb() && l.Tb == r)
}

// isControl reports whether a line can transfer control.
func isControl(l asm.Line) bool {
	op, ok := l.Op.Op()
	return l.Op == asm.HALT || ok && (op.IsBranch() || op.IsJump())
}

// isPureWrite reports whether a line only writes its Ta (safe to delete
// when the value is dead).
func isPureWrite(l asm.Line) bool {
	switch l.Op {
	case asm.LDI, asm.LDA, asm.Instr(isa.LUI), asm.Instr(isa.MV):
		return true
	}
	return false
}

// isIdentity reports whether a line provably changes nothing: MV x,x;
// ADDI/SLI/SRI x,0; ADD/SUB x,T0 (T0 holds zero by ABI and is never
// rewritten after the prologue).
func isIdentity(l asm.Line) bool {
	switch l.Op {
	case asm.Instr(isa.MV):
		return l.Ta == l.Tb
	case asm.Instr(isa.ADDI), asm.Instr(isa.SLI), asm.Instr(isa.SRI):
		return l.Imm == 0
	case asm.Instr(isa.ADD), asm.Instr(isa.SUB):
		return l.Tb == regZero
	}
	return false
}

// peephole runs the redundancy checker to a fixed point, returning the
// cleaned lines and the number of instructions removed.
func peephole(lines []asm.Line) ([]asm.Line, int) {
	removed := 0
	for {
		n := 0
		lines, n = peepholeOnce(lines)
		removed += n
		if n == 0 {
			return lines, removed
		}
	}
}

func peepholeOnce(lines []asm.Line) ([]asm.Line, int) {
	removed := 0
	// drop turns line i into a label-only placeholder, preserving any
	// label bound to it.
	drop := func(i int) {
		lines[i] = asm.Line{Label: lines[i].Label}
		removed++
	}
	for i := 0; i < len(lines); i++ {
		l := lines[i]
		if l.Op == 0 {
			continue
		}
		// The prologue LDI T0, 0 establishes the ABI zero; never touch
		// writes to T0 (there is exactly one).
		if w, ok := lineWrites(l); ok && w == regZero && l.Op == asm.LDI {
			continue
		}

		// Rule 1/2: provable identities.
		if isIdentity(l) {
			drop(i)
			continue
		}

		// Rule 3: spill store immediately reloaded.
		if l.Op == asm.Instr(isa.STORE) && l.Tb == regZero {
			if j := nextOp(lines, i); j >= 0 && lines[j].Label == "" {
				n := lines[j]
				if n.Op == asm.Instr(isa.LOAD) && n.Tb == regZero && n.Imm == l.Imm {
					if n.Ta == l.Ta {
						drop(j)
					} else {
						lines[j] = asm.Line{Op: asm.Instr(isa.MV), Ta: n.Ta, Tb: l.Ta}
					}
					continue
				}
			}
		}

		// Rule 4: dead pure writes — the value is overwritten before
		// any read, with no barrier in between.
		if isPureWrite(l) {
			if w, ok := lineWrites(l); ok && deadBefore(lines, i+1, w) {
				drop(i)
				continue
			}
		}

		// Rule 5: duplicate constant load — an identical LDI with no
		// intervening write/barrier.
		if l.Op == asm.LDI {
			for j := i + 1; j < len(lines); j++ {
				n := lines[j]
				if n.Op == 0 && n.Label == "" {
					continue
				}
				if n.Label != "" || isControl(n) {
					break
				}
				if w, ok := lineWrites(n); ok && w == l.Ta {
					if n.Op == asm.LDI && n.Imm == l.Imm {
						// Same value rebuilt: the second is redundant
						// only if nothing read-modified it, which the
						// write check guarantees.
						lines[j] = asm.Line{Label: n.Label}
						removed++
					}
					break
				}
			}
		}
	}
	// Compact label-only placeholders into their successors where the
	// successor has no label of its own.
	var out []asm.Line
	for i := 0; i < len(lines); i++ {
		l := lines[i]
		if l.Op == 0 && l.Label == "" {
			continue
		}
		out = append(out, l)
	}
	return out, removed
}

// nextOp returns the next index holding a real instruction, or −1.
func nextOp(lines []asm.Line, i int) int {
	for j := i + 1; j < len(lines); j++ {
		if lines[j].Op != 0 {
			return j
		}
		if lines[j].Label != "" {
			return -1 // label-only line is a barrier
		}
	}
	return -1
}

// deadBefore reports whether register r is overwritten before any read,
// label or control transfer from index i on.
func deadBefore(lines []asm.Line, i int, r isa.Reg) bool {
	for j := i; j < len(lines); j++ {
		l := lines[j]
		if l.Label != "" || isControl(l) {
			return false
		}
		if l.Op == 0 {
			continue
		}
		if lineReads(l, r) {
			return false
		}
		if w, ok := lineWrites(l); ok && w == r {
			return true
		}
	}
	return false
}
