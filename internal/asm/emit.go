package asm

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/isa"
	"repro/internal/ternary"
)

// emit runs the second pass: encode every line at its assigned address.
func (a *assembler) emit() (*Program, error) {
	p := &Program{
		Text:    make([]isa.Inst, 0, a.textLen),
		Words:   make([]ternary.Word, 0, a.textLen),
		Lines:   make([]int, 0, a.textLen),
		Data:    map[int]ternary.Word{},
		Symbols: make(map[string]int, len(a.equ)+len(a.labels)),
	}
	for n, v := range a.equ {
		p.Symbols[n] = v
	}
	for n, v := range a.labels {
		p.Symbols[n] = v
	}
	for i := range a.lines {
		var err error
		if a.sec[i] == secData {
			err = a.emitData(p, i)
		} else {
			err = a.emitText(p, i)
		}
		if err != nil {
			a.errorf(i, "%v", err)
		}
	}
	if err := a.errs.or(); err != nil {
		return nil, err
	}
	return p, nil
}

// emitData places .word contents into the TDM image; reserved space is
// implicitly zero.
func (a *assembler) emitData(p *Program, i int) error {
	switch l := &a.lines[i]; l.Op {
	case 0, dirText, dirData, dirEqu, dirSpace, dirOrg:
	case dirWord:
		v, err := a.value(l)
		if err != nil {
			return err
		}
		p.Data[a.addr[i]] = ternary.FromInt(v)
	default:
		return fmt.Errorf("instruction %q in .data section", l.Op)
	}
	return nil
}

// put validates, encodes and appends instructions for line i.
func (a *assembler) put(p *Program, i int, ins ...isa.Inst) error {
	for _, in := range ins {
		w, err := isa.Encode(in)
		if err != nil {
			return err
		}
		p.Text = append(p.Text, in)
		p.Words = append(p.Words, w)
		p.Lines = append(p.Lines, a.srcLine[i])
	}
	return nil
}

// emitText encodes a text-section line at its laid-out address.
func (a *assembler) emitText(p *Program, i int) error {
	l := &a.lines[i]
	switch l.Op {
	case 0, dirText, dirData, dirEqu:
		return nil
	case dirSpace, dirOrg:
		for len(p.Text) < a.addr[i]+a.size[i] {
			if err := a.put(p, i, isa.NOP()); err != nil {
				return err
			}
		}
		return nil
	case dirWord:
		return errors.New(".word in .text section (use .data)")
	case NOP:
		return a.put(p, i, isa.NOP())
	case HALT:
		// Jump-to-self; the simulator recognises it as program exit.
		return a.put(p, i, isa.Inst{Op: isa.JAL, Ta: scratch})
	case LDI, LDA:
		resolve := a.value // LDI takes a constant, LDA any symbol
		if l.Op == LDI {
			resolve = a.constant
		}
		v, err := resolve(l)
		if err != nil {
			return err
		}
		if !ternary.FitsTrits(v, 9) {
			return fmt.Errorf("%s: value %d exceeds 9 trits", l.Op, v)
		}
		hi, lo := splitConst(v)
		if lo != 0 || l.Op == LDA {
			return a.put(p, i, isa.Inst{Op: isa.LUI, Ta: l.Ta, Imm: hi}, isa.Inst{Op: isa.LI, Ta: l.Ta, Imm: lo})
		}
		return a.put(p, i, isa.Inst{Op: isa.LUI, Ta: l.Ta, Imm: hi})
	}

	op, _ := l.Op.Op()
	in := isa.Inst{Op: op, Ta: l.Ta, Tb: l.Tb, B: l.B, Imm: l.Imm}
	if l.Target == "" {
		return a.put(p, i, in)
	}
	if op != isa.BEQ && op != isa.BNE && op != isa.JAL {
		var err error
		if in.Imm, err = a.value(l); err != nil {
			return err
		}
		return a.put(p, i, in)
	}
	target, ok := a.labels[l.Target]
	if !ok {
		return fmt.Errorf("undefined label %q", l.Target)
	}
	in.Imm = target - a.addr[i]
	switch {
	case a.level[i] == relaxShort:
		return a.put(p, i, in)
	case op == isa.JAL:
		// Far jump: absolute address via scratch, true link in Ta.
		hi, lo := splitConst(target)
		return a.put(p, i,
			isa.Inst{Op: isa.LUI, Ta: scratch, Imm: hi},
			isa.Inst{Op: isa.LI, Ta: scratch, Imm: lo},
			isa.Inst{Op: isa.JALR, Ta: l.Ta, Tb: scratch})
	}
	// An out-of-reach branch becomes the inverted branch over a jump.
	inv := isa.BEQ
	if op == isa.BEQ {
		inv = isa.BNE
	}
	if a.level[i] == relaxNear {
		// The link register of the JAL is the scratch register (its
		// value is clobbered, documented).
		return a.put(p, i,
			isa.Inst{Op: inv, Tb: l.Tb, B: l.B, Imm: 2},
			isa.Inst{Op: isa.JAL, Ta: scratch, Imm: in.Imm - 1})
	}
	hi, lo := splitConst(target)
	return a.put(p, i,
		isa.Inst{Op: inv, Tb: l.Tb, B: l.B, Imm: 4},
		isa.Inst{Op: isa.LUI, Ta: scratch, Imm: hi},
		isa.Inst{Op: isa.LI, Ta: scratch, Imm: lo},
		isa.Inst{Op: isa.JALR, Ta: scratch, Tb: scratch})
}

// Disassemble renders an encoded TIM image as assembly text, one
// instruction per line with addresses, for the CLI and for debugging
// translated programs.
func Disassemble(words []ternary.Word) string {
	var b strings.Builder
	for i, w := range words {
		in, err := isa.Decode(w)
		if err != nil {
			fmt.Fprintf(&b, "%5d: %v  <illegal: %v>\n", i, w, err)
			continue
		}
		fmt.Fprintf(&b, "%5d: %v  %s\n", i, w, in)
	}
	return b.String()
}
