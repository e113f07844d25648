package asm

import (
	"strconv"
	"strings"

	"repro/internal/isa"
)

// Print appends lines to b as assembly source, one statement per line: an
// optional "label:", then a tab, the mnemonic and its operands in the
// order isa.Op.Operands gives. Assemble parses the text back into the
// same program.
func Print(b *strings.Builder, lines []Line) {
	var num [24]byte
	for i := range lines {
		l := &lines[i]
		if l.Label != "" {
			b.WriteString(l.Label)
			b.WriteByte(':')
		}
		if l.Op != 0 {
			b.WriteByte('\t')
			b.WriteString(l.Op.String())
			sep := " "
			target := l.Target
			if l.Op == dirEqu {
				b.WriteString(sep)
				b.WriteString(l.Target)
				sep, target = ", ", ""
			}
			for _, o := range l.Op.operands() {
				b.WriteString(sep)
				sep = ", "
				switch o {
				case isa.OperandTa, isa.OperandTb:
					r := l.Ta
					if o == isa.OperandTb {
						r = l.Tb
					}
					b.WriteByte('T')
					b.Write(strconv.AppendUint(num[:0], uint64(r), 10))
				case isa.OperandB:
					b.Write(strconv.AppendInt(num[:0], int64(l.B), 10))
				case isa.OperandImm:
					if target != "" {
						b.WriteString(target)
					} else {
						b.Write(strconv.AppendInt(num[:0], int64(l.Imm), 10))
					}
				}
			}
		}
		b.WriteByte('\n')
	}
}
