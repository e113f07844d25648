// Package isa defines the ART-9 instruction set architecture of Table I of
// the paper: 24 ternary instructions in four categories (R, I, B, M)
// operating on 9-trit words, nine general-purpose ternary registers
// (T0…T8) addressed by 2-trit indices, and the 9-trit instruction encoding
// described in DESIGN.md §3.
package isa

import (
	"fmt"
	"strconv"

	"repro/internal/ternary"
)

// Op identifies one of the 24 ART-9 instructions.
type Op uint8

// The 24 ART-9 instructions (Table I), grouped by category.
const (
	// R-type: register/register logical and arithmetic operations.
	MV   Op = iota // TRF[Ta] = TRF[Tb]
	PTI            // TRF[Ta] = PTI(TRF[Tb])
	NTI            // TRF[Ta] = NTI(TRF[Tb])
	STI            // TRF[Ta] = STI(TRF[Tb])
	AND            // TRF[Ta] = TRF[Ta] & TRF[Tb]   (trit-wise min)
	OR             // TRF[Ta] = TRF[Ta] | TRF[Tb]   (trit-wise max)
	XOR            // TRF[Ta] = TRF[Ta] ⊕ TRF[Tb]   (trit-wise −(a·b))
	ADD            // TRF[Ta] = TRF[Ta] + TRF[Tb]
	SUB            // TRF[Ta] = TRF[Ta] − TRF[Tb]
	SR             // TRF[Ta] = TRF[Ta] ≫ TRF[Tb][1:0]
	SL             // TRF[Ta] = TRF[Ta] ≪ TRF[Tb][1:0]
	COMP           // TRF[Ta] = compare(TRF[Ta], TRF[Tb]) → sign in LST

	// I-type: immediate operations.
	ANDI // TRF[Ta] = TRF[Ta] & imm[2:0]
	ADDI // TRF[Ta] = TRF[Ta] + imm[2:0]; ADDI x,0 is the canonical NOP
	SRI  // TRF[Ta] = TRF[Ta] ≫ imm[1:0]
	SLI  // TRF[Ta] = TRF[Ta] ≪ imm[1:0]
	LUI  // TRF[Ta] = {imm[3:0], 00000}
	LI   // TRF[Ta] = {TRF[Ta][8:5], imm[4:0]}

	// B-type: control transfer.
	BEQ  // PC = PC + imm[3:0] if TRF[Tb][0] == B
	BNE  // PC = PC + imm[3:0] if TRF[Tb][0] != B
	JAL  // TRF[Ta] = PC+1, PC = PC + imm[4:0]
	JALR // TRF[Ta] = PC+1, PC = TRF[Tb] + imm[2:0]

	// M-type: memory access.
	LOAD  // TRF[Ta] = TDM[TRF[Tb] + imm[2:0]]
	STORE // TDM[TRF[Tb] + imm[2:0]] = TRF[Ta]

	NumOps = 24
)

var opNames = [NumOps]string{
	"MV", "PTI", "NTI", "STI", "AND", "OR", "XOR", "ADD", "SUB", "SR", "SL", "COMP",
	"ANDI", "ADDI", "SRI", "SLI", "LUI", "LI",
	"BEQ", "BNE", "JAL", "JALR",
	"LOAD", "STORE",
}

// String returns the assembler mnemonic of op.
func (op Op) String() string {
	if int(op) < len(opNames) {
		return opNames[op]
	}
	return fmt.Sprintf("Op(%d)", uint8(op))
}

// OpByName maps an assembler mnemonic (upper case) to its opcode.
var OpByName = func() map[string]Op {
	m := make(map[string]Op, NumOps)
	for i, n := range opNames {
		m[n] = Op(i)
	}
	return m
}()

// Category is the instruction category of Table I.
type Category uint8

const (
	CatR Category = iota // register/register
	CatI                 // immediate
	CatB                 // branch/jump
	CatM                 // memory
)

func (c Category) String() string {
	return [...]string{"R", "I", "B", "M"}[c]
}

// Category returns the Table I category of op.
func (op Op) Category() Category {
	switch {
	case op <= COMP:
		return CatR
	case op <= LI:
		return CatI
	case op <= JALR:
		return CatB
	default:
		return CatM
	}
}

// ImmTrits returns the width in trits of op's immediate field (Table I),
// or 0 if op takes no immediate.
func (op Op) ImmTrits() int {
	switch op {
	case ANDI, ADDI, JALR, LOAD, STORE:
		return 3
	case SRI, SLI:
		return 2
	case LUI, BEQ, BNE:
		return 4
	case LI, JAL:
		return 5
	}
	return 0
}

// HasTa reports whether op encodes a Ta register field.
func (op Op) HasTa() bool { return op != BEQ && op != BNE }

// HasTb reports whether op encodes a Tb register field.
func (op Op) HasTb() bool {
	switch op {
	case MV, PTI, NTI, STI, AND, OR, XOR, ADD, SUB, SR, SL, COMP,
		BEQ, BNE, JALR, LOAD, STORE:
		return true
	}
	return false
}

// ReadsTa reports whether the instruction reads TRF[Ta] as a source
// (two-address R/I-type ops read and overwrite Ta; LI merges into Ta's
// upper trits; STORE reads Ta as the value to store).
func (op Op) ReadsTa() bool {
	switch op {
	case AND, OR, XOR, ADD, SUB, SR, SL, COMP,
		ANDI, ADDI, SRI, SLI, LI, STORE:
		return true
	}
	return false
}

// ReadsTb reports whether the instruction reads TRF[Tb].
func (op Op) ReadsTb() bool {
	switch op {
	case MV, PTI, NTI, STI, AND, OR, XOR, ADD, SUB, SR, SL, COMP,
		BEQ, BNE, JALR, LOAD, STORE:
		return true
	}
	return false
}

// WritesReg reports whether the instruction writes a register, and which
// field names it (always Ta in ART-9).
func (op Op) WritesReg() bool {
	switch op {
	case BEQ, BNE, STORE:
		return false
	}
	return true
}

// IsBranch reports whether op is a conditional branch.
func (op Op) IsBranch() bool { return op == BEQ || op == BNE }

// IsJump reports whether op is an unconditional jump.
func (op Op) IsJump() bool { return op == JAL || op == JALR }

// IsMem reports whether op accesses TDM.
func (op Op) IsMem() bool { return op == LOAD || op == STORE }

// Reg is a general-purpose ternary register index, T0…T8 (§IV-A: the TRF
// holds nine registers, each addressed by a 2-trit value).
type Reg uint8

// NumRegs is the number of general-purpose ternary registers.
const NumRegs = 9

// Valid reports whether r names an architectural register.
func (r Reg) Valid() bool { return r < NumRegs }

// String returns the assembler name of r ("T0"…"T8").
func (r Reg) String() string { return fmt.Sprintf("T%d", uint8(r)) }

// ParseReg parses a register name of the form "T0"…"T8" (case-insensitive).
func ParseReg(s string) (Reg, error) {
	if len(s) == 2 && (s[0] == 'T' || s[0] == 't') && s[1] >= '0' && s[1] <= '8' {
		return Reg(s[1] - '0'), nil
	}
	return 0, fmt.Errorf("isa: invalid register %q (want T0..T8)", s)
}

// regField converts a register index to its 2-trit balanced field value.
func regField(r Reg) int { return int(r) - 4 }

// regFromField converts a 2-trit balanced field value to a register index.
func regFromField(v int) Reg { return Reg(v + 4) }

// Inst is a decoded ART-9 instruction. Fields that the opcode does not use
// are zero and ignored by Encode.
type Inst struct {
	Op  Op
	Ta  Reg          // destination (and first source for two-address ops)
	Tb  Reg          // second source / base register
	B   ternary.Trit // branch condition trit (BEQ/BNE only)
	Imm int          // balanced immediate value
}

// NOP returns the canonical no-operation: ADDI T0, 0 (§IV-B — the ISA has
// no dedicated NOP encoding).
func NOP() Inst { return Inst{Op: ADDI, Ta: 0, Imm: 0} }

// IsNOP reports whether i has no architectural effect (an ADDI with a zero
// immediate).
func (i Inst) IsNOP() bool { return i.Op == ADDI && i.Imm == 0 }

// Validate checks operand ranges against the encoding (register indices and
// immediate widths of Table I).
func (i Inst) Validate() error {
	if i.Op >= NumOps {
		return fmt.Errorf("isa: invalid opcode %d", i.Op)
	}
	if i.Op.HasTa() && !i.Ta.Valid() {
		return fmt.Errorf("isa: %s: invalid Ta %d", i.Op, i.Ta)
	}
	if i.Op.HasTb() && !i.Tb.Valid() {
		return fmt.Errorf("isa: %s: invalid Tb %d", i.Op, i.Tb)
	}
	if n := i.Op.ImmTrits(); n > 0 {
		if !ternary.FitsTrits(i.Imm, n) {
			return fmt.Errorf("isa: %s: immediate %d does not fit in %d trits (|imm| ≤ %d)",
				i.Op, i.Imm, n, ternary.MaxForTrits(n))
		}
	} else if i.Imm != 0 {
		return fmt.Errorf("isa: %s takes no immediate", i.Op)
	}
	if i.Op.IsBranch() {
		if !i.B.Valid() {
			return fmt.Errorf("isa: %s: invalid condition trit %d", i.Op, i.B)
		}
	} else if i.B != 0 {
		return fmt.Errorf("isa: %s takes no condition trit", i.Op)
	}
	return nil
}

// Operand names one assembler operand field of an instruction.
type Operand uint8

const (
	OperandTa  Operand = iota // destination / first source register
	OperandTb                 // second source / base register
	OperandB                  // branch condition trit
	OperandImm                // immediate (or, in assembly, a symbol)
)

// operands caches Operands per opcode.
var operands = func() (t [NumOps][]Operand) {
	for op := Op(0); op < NumOps; op++ {
		for o, has := range [...]bool{op.HasTa(), op.HasTb(), op.IsBranch(), op.ImmTrits() > 0} {
			if has {
				t[op] = append(t[op], Operand(o))
			}
		}
	}
	return
}()

// Operands returns op's assembler operands in source order: Ta, Tb, the
// condition trit, then the immediate, each only if op encodes it. The
// assembler's parser and printer and Inst.String all follow this order.
func (op Op) Operands() []Operand {
	if op >= NumOps {
		return nil
	}
	return operands[op]
}

// String disassembles i into assembler syntax.
func (i Inst) String() string {
	if i.Op >= NumOps {
		return fmt.Sprintf("<invalid op %d>", uint8(i.Op))
	}
	vals := [...]string{
		OperandTa: i.Ta.String(), OperandTb: i.Tb.String(),
		OperandB: strconv.Itoa(int(i.B)), OperandImm: strconv.Itoa(i.Imm),
	}
	s, sep := i.Op.String(), " "
	for _, o := range i.Op.Operands() {
		s += sep + vals[o]
		sep = ", "
	}
	return s
}
