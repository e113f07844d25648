package rv32

import (
	"fmt"
	"strconv"
	"strings"
)

// dataSize returns the byte size of a data-section statement. For .org it
// returns the gap from cur (already validated non-negative by the caller's
// layout loop).
func (a *rvAsm) dataSize(st *rvStmt, cur int32) (int32, error) {
	switch st.mnemonic {
	case ".word":
		return int32(4 * len(st.args)), nil
	case ".half":
		return int32(2 * len(st.args)), nil
	case ".byte":
		return int32(len(st.args)), nil
	case ".space":
		if len(st.args) != 1 {
			return 0, fmt.Errorf("line %d: .space wants one size", st.line)
		}
		v, err := a.evalInt(st.args[0], st.line)
		if err != nil || v < 0 {
			return 0, fmt.Errorf("line %d: bad .space size", st.line)
		}
		return v, nil
	case ".asciz":
		if len(st.args) != 1 {
			return 0, fmt.Errorf("line %d: .asciz wants one string", st.line)
		}
		s, err := strconv.Unquote(st.args[0])
		if err != nil {
			return 0, fmt.Errorf("line %d: bad string: %v", st.line, err)
		}
		return int32(len(s) + 1), nil
	case ".align":
		if len(st.args) != 1 {
			return 0, fmt.Errorf("line %d: .align wants one value", st.line)
		}
		n, err := a.evalInt(st.args[0], st.line)
		if err != nil || n < 0 || n > 12 {
			return 0, fmt.Errorf("line %d: bad .align", st.line)
		}
		size := int32(1) << n
		return (size - cur%size) % size, nil
	case ".org":
		if len(st.args) != 1 {
			return 0, fmt.Errorf("line %d: .org wants one address", st.line)
		}
		v, err := a.evalInt(st.args[0], st.line)
		if err != nil {
			return 0, err
		}
		if v < cur {
			return 0, fmt.Errorf("line %d: .org %d before current %d", st.line, v, cur)
		}
		return v - cur, nil
	}
	return 0, fmt.Errorf("line %d: %q not valid in .data", st.line, st.mnemonic)
}

// emitData appends the statement's bytes to the image.
func (a *rvAsm) emitData(st *rvStmt, data []byte, cur int32) ([]byte, int32, error) {
	put := func(v int32, n int) {
		for k := 0; k < n; k++ {
			data = append(data, byte(v>>(8*k)))
		}
		cur += int32(n)
	}
	switch st.mnemonic {
	case ".word", ".half", ".byte":
		n := map[string]int{".word": 4, ".half": 2, ".byte": 1}[st.mnemonic]
		for _, arg := range st.args {
			v, err := a.evalSym(arg, st.line)
			if err != nil {
				return data, cur, err
			}
			put(v, n)
		}
	case ".space", ".align", ".org":
		sz, err := a.dataSize(st, cur)
		if err != nil {
			return data, cur, err
		}
		for k := int32(0); k < sz; k++ {
			data = append(data, 0)
		}
		cur += sz
	case ".asciz":
		s, err := strconv.Unquote(st.args[0])
		if err != nil {
			return data, cur, err
		}
		data = append(data, s...)
		data = append(data, 0)
		cur += int32(len(s) + 1)
	}
	return data, cur, nil
}

// textSize returns how many machine instructions a text statement expands
// to. It must agree exactly with emitText.
func (a *rvAsm) textSize(st *rvStmt) (int32, error) {
	switch st.mnemonic {
	case "li", "la":
		if len(st.args) != 2 {
			return 0, fmt.Errorf("line %d: %s wants rd, value", st.line, st.mnemonic)
		}
		v, err := a.evalDataSym(st.args[1], st.line)
		if err != nil {
			return 0, err
		}
		return sizeLI(v), nil
	case "call":
		return 1, nil // jal ra, target (±1 MiB covers the suite)
	case ".org":
		return 0, fmt.Errorf("line %d: .org not supported in .text", st.line)
	}
	return 1, nil
}

// evalDataSym evaluates constants and *data* labels (available before text
// layout). Text labels are rejected here to keep pseudo sizes stable.
func (a *rvAsm) evalDataSym(s string, line int) (int32, error) {
	if v, ok := a.labels[s]; ok {
		return v, nil
	}
	return a.evalInt(s, line)
}

// parseMem parses "imm(reg)" or "(reg)" or "imm" address syntax.
func (a *rvAsm) parseMem(s string, line int) (Reg, int32, error) {
	open := strings.Index(s, "(")
	if open < 0 {
		v, err := a.evalSym(s, line)
		return 0, v, err // absolute: offset from x0
	}
	if !strings.HasSuffix(s, ")") {
		return 0, 0, fmt.Errorf("line %d: bad address %q", line, s)
	}
	r, err := ParseReg(strings.TrimSpace(s[open+1 : len(s)-1]))
	if err != nil {
		return 0, 0, fmt.Errorf("line %d: %v", line, err)
	}
	offStr := strings.TrimSpace(s[:open])
	var off int32
	if offStr != "" {
		off, err = a.evalSym(offStr, line)
		if err != nil {
			return 0, 0, err
		}
	}
	return r, off, nil
}

// emitText appends the statement's instructions to the program. idx is the
// statement's laid-out instruction index (the PC in words).
func (a *rvAsm) emitText(p *Program, st *rvStmt, idx int32) error {
	emit := func(in Inst) {
		p.Insts = append(p.Insts, in)
		p.Lines = append(p.Lines, st.line)
	}
	reg := func(s string) (Reg, error) {
		r, err := ParseReg(s)
		if err != nil {
			return 0, fmt.Errorf("line %d: %v", st.line, err)
		}
		return r, nil
	}
	// branchTarget resolves a label or numeric word offset into a byte
	// offset relative to the instruction at index idx+slot.
	branchTarget := func(s string, slot int32) (int32, error) {
		if v, ok := a.labels[s]; ok {
			return (v - (idx + slot)) * 4, nil
		}
		v, err := a.evalInt(s, st.line)
		if err != nil {
			return 0, err
		}
		return v * 4, nil // numeric operands are word offsets
	}
	args := st.args
	argN := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("line %d: %s wants %d operands, got %d", st.line, st.mnemonic, n, len(args))
		}
		return nil
	}

	switch st.mnemonic {
	case "nop":
		emit(Inst{Op: ADDI})
		return nil
	case "halt":
		emit(Inst{Op: EBREAK})
		return nil
	case "li":
		if err := argN(2); err != nil {
			return err
		}
		rd, err := reg(args[0])
		if err != nil {
			return err
		}
		v, err := a.evalDataSym(args[1], st.line)
		if err != nil {
			return err
		}
		emitLI(emit, rd, v)
		return nil
	case "la":
		if err := argN(2); err != nil {
			return err
		}
		rd, err := reg(args[0])
		if err != nil {
			return err
		}
		v, err := a.evalDataSym(args[1], st.line)
		if err != nil {
			return err
		}
		emitLI(emit, rd, v)
		return nil
	case "mv":
		if err := argN(2); err != nil {
			return err
		}
		rd, err := reg(args[0])
		if err != nil {
			return err
		}
		rs, err := reg(args[1])
		if err != nil {
			return err
		}
		emit(Inst{Op: ADDI, Rd: rd, Rs1: rs})
		return nil
	case "not":
		if err := argN(2); err != nil {
			return err
		}
		rd, err := reg(args[0])
		if err != nil {
			return err
		}
		rs, err := reg(args[1])
		if err != nil {
			return err
		}
		emit(Inst{Op: XORI, Rd: rd, Rs1: rs, Imm: -1})
		return nil
	case "neg":
		if err := argN(2); err != nil {
			return err
		}
		rd, err := reg(args[0])
		if err != nil {
			return err
		}
		rs, err := reg(args[1])
		if err != nil {
			return err
		}
		emit(Inst{Op: SUB, Rd: rd, Rs2: rs})
		return nil
	case "seqz":
		if err := argN(2); err != nil {
			return err
		}
		rd, err := reg(args[0])
		if err != nil {
			return err
		}
		rs, err := reg(args[1])
		if err != nil {
			return err
		}
		emit(Inst{Op: SLTIU, Rd: rd, Rs1: rs, Imm: 1})
		return nil
	case "snez":
		if err := argN(2); err != nil {
			return err
		}
		rd, err := reg(args[0])
		if err != nil {
			return err
		}
		rs, err := reg(args[1])
		if err != nil {
			return err
		}
		emit(Inst{Op: SLTU, Rd: rd, Rs1: 0, Rs2: rs})
		return nil
	case "j":
		if err := argN(1); err != nil {
			return err
		}
		off, err := branchTarget(args[0], 0)
		if err != nil {
			return err
		}
		emit(Inst{Op: JAL, Rd: 0, Imm: off})
		return nil
	case "jr":
		if err := argN(1); err != nil {
			return err
		}
		rs, err := reg(args[0])
		if err != nil {
			return err
		}
		emit(Inst{Op: JALR, Rd: 0, Rs1: rs})
		return nil
	case "ret":
		emit(Inst{Op: JALR, Rd: 0, Rs1: 1})
		return nil
	case "call":
		if err := argN(1); err != nil {
			return err
		}
		off, err := branchTarget(args[0], 0)
		if err != nil {
			return err
		}
		emit(Inst{Op: JAL, Rd: 1, Imm: off})
		return nil
	case "beqz", "bnez", "bltz", "bgez", "bgtz", "blez":
		if err := argN(2); err != nil {
			return err
		}
		rs, err := reg(args[0])
		if err != nil {
			return err
		}
		off, err := branchTarget(args[1], 0)
		if err != nil {
			return err
		}
		switch st.mnemonic {
		case "beqz":
			emit(Inst{Op: BEQ, Rs1: rs, Imm: off})
		case "bnez":
			emit(Inst{Op: BNE, Rs1: rs, Imm: off})
		case "bltz":
			emit(Inst{Op: BLT, Rs1: rs, Imm: off})
		case "bgez":
			emit(Inst{Op: BGE, Rs1: rs, Imm: off})
		case "bgtz":
			emit(Inst{Op: BLT, Rs1: 0, Rs2: rs, Imm: off})
		case "blez":
			emit(Inst{Op: BGE, Rs1: 0, Rs2: rs, Imm: off})
		}
		return nil
	case "bgt", "ble", "bgtu", "bleu":
		if err := argN(3); err != nil {
			return err
		}
		rs, err := reg(args[0])
		if err != nil {
			return err
		}
		rt, err := reg(args[1])
		if err != nil {
			return err
		}
		off, err := branchTarget(args[2], 0)
		if err != nil {
			return err
		}
		// Swap operands: bgt a,b == blt b,a.
		switch st.mnemonic {
		case "bgt":
			emit(Inst{Op: BLT, Rs1: rt, Rs2: rs, Imm: off})
		case "ble":
			emit(Inst{Op: BGE, Rs1: rt, Rs2: rs, Imm: off})
		case "bgtu":
			emit(Inst{Op: BLTU, Rs1: rt, Rs2: rs, Imm: off})
		case "bleu":
			emit(Inst{Op: BGEU, Rs1: rt, Rs2: rs, Imm: off})
		}
		return nil
	}

	op, ok := OpByName[st.mnemonic]
	if !ok {
		return fmt.Errorf("line %d: unknown mnemonic %q", st.line, st.mnemonic)
	}
	in := Inst{Op: op}
	switch op.Fmt() {
	case FmtR:
		if err := argN(3); err != nil {
			return err
		}
		var err error
		if in.Rd, err = ParseReg(args[0]); err != nil {
			return fmt.Errorf("line %d: %v", st.line, err)
		}
		if in.Rs1, err = ParseReg(args[1]); err != nil {
			return fmt.Errorf("line %d: %v", st.line, err)
		}
		if in.Rs2, err = ParseReg(args[2]); err != nil {
			return fmt.Errorf("line %d: %v", st.line, err)
		}
	case FmtI:
		if op.IsLoad() || op == JALR {
			if op == JALR && len(args) == 1 {
				// "jalr rs" shorthand: rd=ra.
				rs, err := ParseReg(args[0])
				if err != nil {
					return fmt.Errorf("line %d: %v", st.line, err)
				}
				in.Rd, in.Rs1 = 1, rs
				break
			}
			if err := argN(2); err != nil {
				return err
			}
			var err error
			if in.Rd, err = ParseReg(args[0]); err != nil {
				return fmt.Errorf("line %d: %v", st.line, err)
			}
			if in.Rs1, in.Imm, err = a.parseMem(args[1], st.line); err != nil {
				return err
			}
			break
		}
		if err := argN(3); err != nil {
			return err
		}
		var err error
		if in.Rd, err = ParseReg(args[0]); err != nil {
			return fmt.Errorf("line %d: %v", st.line, err)
		}
		if in.Rs1, err = ParseReg(args[1]); err != nil {
			return fmt.Errorf("line %d: %v", st.line, err)
		}
		if in.Imm, err = a.evalSym(args[2], st.line); err != nil {
			return err
		}
	case FmtS:
		if err := argN(2); err != nil {
			return err
		}
		var err error
		if in.Rs2, err = ParseReg(args[0]); err != nil {
			return fmt.Errorf("line %d: %v", st.line, err)
		}
		if in.Rs1, in.Imm, err = a.parseMem(args[1], st.line); err != nil {
			return err
		}
	case FmtB:
		if err := argN(3); err != nil {
			return err
		}
		var err error
		if in.Rs1, err = ParseReg(args[0]); err != nil {
			return fmt.Errorf("line %d: %v", st.line, err)
		}
		if in.Rs2, err = ParseReg(args[1]); err != nil {
			return fmt.Errorf("line %d: %v", st.line, err)
		}
		if in.Imm, err = branchTarget(args[2], 0); err != nil {
			return err
		}
	case FmtU:
		if err := argN(2); err != nil {
			return err
		}
		var err error
		if in.Rd, err = ParseReg(args[0]); err != nil {
			return fmt.Errorf("line %d: %v", st.line, err)
		}
		if in.Imm, err = a.evalSym(args[1], st.line); err != nil {
			return err
		}
	case FmtJ:
		if err := argN(2); err != nil {
			return err
		}
		var err error
		if in.Rd, err = ParseReg(args[0]); err != nil {
			return fmt.Errorf("line %d: %v", st.line, err)
		}
		if in.Imm, err = branchTarget(args[1], 0); err != nil {
			return err
		}
	case FmtSys:
		if err := argN(0); err != nil {
			return err
		}
	}
	emit(in)
	return nil
}

// sizeLI returns the expansion length of "li rd, v"; it must agree with
// emitLI.
func sizeLI(v int32) int32 {
	if fitsSigned(v, 12) || v&0xfff == 0 {
		return 1
	}
	return 2
}

// emitLI expands "li rd, v" into the canonical lui/addi pair.
func emitLI(emit func(Inst), rd Reg, v int32) {
	if fitsSigned(v, 12) {
		emit(Inst{Op: ADDI, Rd: rd, Imm: v})
		return
	}
	hi := (v + 0x800) >> 12 & 0xfffff
	lo := v - hi<<12
	emit(Inst{Op: LUI, Rd: rd, Imm: hi})
	if lo != 0 {
		emit(Inst{Op: ADDI, Rd: rd, Rs1: rd, Imm: lo})
	}
}
