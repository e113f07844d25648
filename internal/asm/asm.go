// Package asm implements the ART-9 assembler: the textual front door of
// both frameworks in the paper. It turns assembly source into TIM images
// (encoded 9-trit instructions) and TDM initialisation, resolving labels,
// expanding pseudo-instructions and relaxing out-of-range branches.
//
// Syntax (one statement per line):
//
//	; comment   # comment   // comment
//	label:               ; text or data label at the current location
//	MNEMONIC operands    ; any Table I instruction, e.g.  ADD T1, T2
//	NOP                  ; pseudo: ADDI T0, 0 (§IV-B)
//	LDI T3, 1234         ; pseudo: load full 9-trit constant (LUI [+ LI])
//	LDA T3, label        ; pseudo: load an address/symbol
//	HALT                 ; pseudo: jump-to-self, stops the simulator
//	.text / .data        ; section switch (TIM vs TDM)
//	.org N               ; advance the location counter
//	.word N [, N]...     ; literal words (decimal or 0t trit literal)
//	.space N             ; reserve N zero words
//	.equ NAME, N         ; assemble-time constant
//
// Operands follow isa.Op.Operands: Ta, Tb, the condition trit, then the
// immediate. An immediate may name a label or an .equ constant; branch
// and JAL targets name labels. The condition trit, .org, .space and .equ
// values are constants: a literal or an .equ defined above.
//
// Branch operands may be numeric offsets or labels; label branches that do
// not reach are relaxed automatically (inverted branch over a JAL, or an
// absolute LDA+JALR for far targets) using the scratch register T8, which
// is also the translator's ABI scratch. No section may pass the 3^9 words
// a 9-trit address reaches.
//
// The assembler works on typed statements (Line): Assemble parses source
// into them, AssembleLines assembles them directly, and Print renders them
// back as source that assembles to the same program.
package asm

import (
	"fmt"
	"strings"

	"repro/internal/isa"
	"repro/internal/ternary"
)

// Program is the output of the assembler: a TIM image plus TDM
// initialisation and the symbol table.
type Program struct {
	// Text is the decoded instruction stream, one entry per TIM word.
	Text []isa.Inst
	// Words is the encoded TIM image, parallel to Text.
	Words []ternary.Word
	// Data maps TDM addresses to initial words.
	Data map[int]ternary.Word
	// Symbols maps label/constant names to values.
	Symbols map[string]int
	// Lines maps each Text index to its 1-based source line, for traces.
	Lines []int
}

// TextCells returns the number of ternary memory cells the program's
// instructions occupy — the Fig. 5 metric for ART-9.
func (p *Program) TextCells() int { return len(p.Text) * ternary.WordTrits }

// scratch is the register branch relaxation, far jumps and HALT use.
const scratch = isa.Reg(8)

// Mnemonic is what a Line assembles: one of the 24 Table I instructions
// (see Instr), one of the four pseudo-instructions, or, as the zero
// value, nothing — a line that only carries a label.
type Mnemonic uint8

// The pseudo-instructions, numbered after the Table I instructions.
const (
	NOP Mnemonic = isa.NumOps + 1 + iota
	HALT
	LDI
	LDA

	// Directives, which only the parser produces.
	dirText
	dirData
	dirWord // one value: Imm or Target
	dirSpace
	dirOrg
	dirEqu // Target names the constant, Imm holds its value
	numMnemonics
)

// Instr returns the mnemonic of a Table I instruction.
func Instr(op isa.Op) Mnemonic { return Mnemonic(op) + 1 }

// Op returns the Table I instruction m names, if it names one.
func (m Mnemonic) Op() (isa.Op, bool) {
	if m >= 1 && m <= isa.NumOps {
		return isa.Op(m - 1), true
	}
	return 0, false
}

var mnemonicNames = [numMnemonics]string{
	NOP: "NOP", HALT: "HALT", LDI: "LDI", LDA: "LDA",
	dirText: ".text", dirData: ".data", dirWord: ".word",
	dirSpace: ".space", dirOrg: ".org", dirEqu: ".equ",
}

// String returns the source spelling of m ("" for a label-only line).
func (m Mnemonic) String() string {
	if op, ok := m.Op(); ok {
		return op.String()
	}
	if m < numMnemonics {
		return mnemonicNames[m]
	}
	return fmt.Sprintf("Mnemonic(%d)", uint8(m))
}

var (
	ldOperands  = []isa.Operand{isa.OperandTa, isa.OperandImm}
	immOperands = []isa.Operand{isa.OperandImm}
)

// operands returns m's operand fields in source order.
func (m Mnemonic) operands() []isa.Operand {
	if op, ok := m.Op(); ok {
		return op.Operands()
	}
	switch m {
	case LDI, LDA:
		return ldOperands
	case dirWord, dirSpace, dirOrg, dirEqu:
		return immOperands
	}
	return nil
}

// Line is one assembly statement in typed form: a Table I instruction or
// pseudo with its operands resolved, plus an optional label bound to its
// location. Operand fields that Op does not take are zero. The
// translator builds Lines directly; the parser builds them from source.
type Line struct {
	Label  string   // label bound to this line ("" if none)
	Op     Mnemonic // zero for a label-only line
	Ta, Tb isa.Reg
	B      ternary.Trit
	Imm    int
	Target string // symbolic immediate (label or .equ); when set, Imm is ignored
}

// Assemble assembles src.
func Assemble(src string) (*Program, error) {
	lines, srcLines, err := parse(src)
	if err != nil {
		return nil, err
	}
	return assemble(lines, srcLines)
}

// AssembleLines assembles typed statements; errors and Program.Lines
// number them from 1.
func AssembleLines(lines []Line) (*Program, error) {
	srcLines := make([]int, len(lines))
	for i := range srcLines {
		srcLines[i] = i + 1
	}
	return assemble(lines, srcLines)
}

func assemble(lines []Line, srcLines []int) (*Program, error) {
	a := &assembler{lines: lines, srcLine: srcLines, equ: map[string]int{}}
	if err := a.layout(); err != nil {
		return nil, err
	}
	return a.emit()
}

type section uint8

const (
	secText section = iota
	secData
)

type assembler struct {
	lines   []Line
	srcLine []int // 1-based source line of each Line
	equ     map[string]int
	labels  map[string]int // name -> address (filled during layout)

	// Per-line layout, parallel to lines.
	sec   []section // section the line sits in (before any switch it makes)
	addr  []int     // location counter at the start of the line
	size  []int     // words occupied at the current relaxation level
	level []int     // relaxation level of label branches and jumps

	textLen int // TIM words the layout occupies

	errs errList
}

type errList []error

func (e errList) Error() string {
	var b strings.Builder
	for i, err := range e {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(err.Error())
	}
	return b.String()
}

func (e errList) or() error {
	if len(e) == 0 {
		return nil
	}
	return e
}

// errorf records an error against line i of the input.
func (a *assembler) errorf(i int, format string, args ...interface{}) {
	a.errs = append(a.errs, fmt.Errorf("line %d: %s", a.srcLine[i], fmt.Sprintf(format, args...)))
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == '.':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
