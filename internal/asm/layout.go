package asm

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/ternary"
)

// Relaxation levels for label-target control transfers.
const (
	relaxShort = iota // single instruction, immediate reaches
	relaxNear         // branch: inverted branch over a JAL
	relaxFar          // absolute target via LDA + JALR
)

// branchSize and jalSize give the words a label branch or JAL takes at
// each relaxation level (a JAL goes straight from short to far).
var (
	branchSize = [...]int{relaxShort: 1, relaxNear: 2, relaxFar: 4}
	jalSize    = [...]int{relaxShort: 1, relaxFar: 3}
)

// splitConst decomposes a 9-trit value into hi·3^5 + lo with lo in the
// 5-trit balanced range, the LUI/LI pair of §IV-A.
func splitConst(v int) (hi, lo int) {
	w := ternary.FromInt(v)
	lo = w.Field(0, 4)
	hi = w.Field(5, 8)
	return hi, lo
}

// layout assigns a section, address and size to every line, iterating
// branch relaxation to a fixed point. Relaxation levels only ever
// increase, so the loop terminates.
func (a *assembler) layout() error {
	n := len(a.lines)
	a.sec = make([]section, n)
	a.addr = make([]int, n)
	a.size = make([]int, n)
	a.level = make([]int, n)
	sec := secText
	for i := range a.lines {
		a.sec[i] = sec
		switch l := &a.lines[i]; l.Op {
		case dirText:
			sec = secText
		case dirData:
			sec = secData
		case dirEqu:
			if _, dup := a.equ[l.Target]; dup {
				a.errorf(i, ".equ: duplicate constant %q", l.Target)
			}
			a.equ[l.Target] = l.Imm
		}
	}
	for i := range a.lines {
		a.size[i] = a.baseSize(i)
	}
	if err := a.errs.or(); err != nil {
		return err
	}

	a.labels = make(map[string]int)
	for iter := 0; ; iter++ {
		if iter > 2+n {
			return fmt.Errorf("asm: branch relaxation did not converge")
		}
		clear(a.labels)
		var lc [2]int
		for i := range a.lines {
			l, s := &a.lines[i], a.sec[i]
			a.addr[i] = lc[s]
			if l.Label != "" {
				if prev, dup := a.labels[l.Label]; dup && prev != lc[s] {
					return fmt.Errorf("line %d: duplicate label %q", a.srcLine[i], l.Label)
				}
				a.labels[l.Label] = lc[s]
			}
			if l.Op == dirOrg {
				if l.Imm < lc[s] {
					return fmt.Errorf("line %d: .org %d before current location %d", a.srcLine[i], l.Imm, lc[s])
				}
				a.size[i] = l.Imm - lc[s]
			}
			if a.size[i] > ternary.WordStates-lc[s] {
				return fmt.Errorf("line %d: %s passes the %d-word address space", a.srcLine[i], [...]string{".text", ".data"}[s], ternary.WordStates)
			}
			lc[s] += a.size[i]
		}
		a.textLen = lc[secText]

		// Check reach of every label-target control transfer; bump levels.
		changed := false
		for i := range a.lines {
			l := &a.lines[i]
			if l.Target == "" || a.sec[i] != secText {
				continue
			}
			target, ok := a.labels[l.Target]
			if !ok {
				continue // undefined label reported at emit
			}
			need := a.level[i]
			switch op, _ := l.Op.Op(); op {
			case isa.BEQ, isa.BNE:
				need = max(need, neededBranchLevel(a.addr[i], target))
				a.size[i] = branchSize[need]
			case isa.JAL:
				if !ternary.FitsTrits(target-a.addr[i], 5) {
					need = relaxFar
				}
				a.size[i] = jalSize[need]
			}
			changed = changed || need != a.level[i]
			a.level[i] = need
		}
		if !changed {
			return nil
		}
	}
}

// baseSize returns the words line i takes before any relaxation.
func (a *assembler) baseSize(i int) int {
	switch l := &a.lines[i]; l.Op {
	case 0, dirText, dirData, dirEqu, dirOrg:
		return 0
	case dirSpace:
		if l.Imm < 0 {
			a.errorf(i, ".space: negative value %d", l.Imm)
		}
		return max(l.Imm, 0)
	case LDA:
		return 2
	case LDI:
		v, err := a.constant(l)
		if err != nil {
			a.errorf(i, "%v", err)
		} else if _, lo := splitConst(v); lo != 0 {
			return 2
		}
		return 1
	default:
		if _, ok := l.Op.Op(); !ok && l.Op != NOP && l.Op != HALT && l.Op != dirWord {
			a.errorf(i, "unknown mnemonic %q", l.Op)
		}
		return 1
	}
}

// neededBranchLevel picks the smallest relaxation level that reaches
// target from a branch at addr.
func neededBranchLevel(addr, target int) int {
	if ternary.FitsTrits(target-addr, 4) {
		return relaxShort
	}
	// Near form: the JAL sits at addr+1.
	if ternary.FitsTrits(target-(addr+1), 5) {
		return relaxNear
	}
	return relaxFar
}

// constant resolves a constant operand: the line's Imm, or the .equ its
// Target names.
func (a *assembler) constant(l *Line) (int, error) {
	if l.Target == "" {
		return l.Imm, nil
	}
	if v, ok := a.equ[l.Target]; ok {
		return v, nil
	}
	return 0, fmt.Errorf("cannot evaluate %q as a constant", l.Target)
}

// value resolves an immediate operand: the line's Imm, or the label or
// .equ its Target names.
func (a *assembler) value(l *Line) (int, error) {
	if v, ok := a.labels[l.Target]; ok && l.Target != "" {
		return v, nil
	}
	return a.constant(l)
}
