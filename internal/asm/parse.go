package asm

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/isa"
	"repro/internal/ternary"
)

// mnemonics maps the upper-case source spelling of every mnemonic and
// directive to its Mnemonic.
var mnemonics = func() map[string]Mnemonic {
	m := make(map[string]Mnemonic, numMnemonics)
	for k := Mnemonic(1); k < numMnemonics; k++ {
		m[strings.ToUpper(k.String())] = k
	}
	return m
}()

// parser turns source text into Lines. .equ values are known from their
// definition on, so constant operands can use them.
type parser struct {
	lines   []Line
	srcLine []int
	equ     map[string]int
	errs    errList
}

// parse turns source text into typed lines and the 1-based source line
// of each. Registers and literals are resolved here; names stay symbols
// for layout. Each label beyond the first on a source line, and each
// .word value, gets a line of its own.
func parse(src string) ([]Line, []int, error) {
	n := strings.Count(src, "\n") + 1
	p := &parser{lines: make([]Line, 0, n), srcLine: make([]int, 0, n), equ: map[string]int{}}
	for ln := 1; ; ln++ {
		raw, rest, more := strings.Cut(src, "\n")
		p.parseLine(ln, raw)
		if !more {
			break
		}
		src = rest
	}
	return p.lines, p.srcLine, p.errs.or()
}

func (p *parser) add(ln int, l Line) {
	p.lines = append(p.lines, l)
	p.srcLine = append(p.srcLine, ln)
}

func (p *parser) errorf(ln int, format string, args ...interface{}) {
	p.errs = append(p.errs, fmt.Errorf("line %d: %s", ln, fmt.Sprintf(format, args...)))
}

func (p *parser) parseLine(ln int, s string) {
	s = stripComment(s)
	// Peel off any leading labels (several may share a line).
	var label string
	for {
		s = strings.TrimSpace(s)
		i := strings.IndexByte(s, ':')
		if i < 0 {
			break
		}
		name := strings.TrimSpace(s[:i])
		if !isIdent(name) {
			break
		}
		if label != "" {
			p.add(ln, Line{Label: label})
		}
		label = name
		s = s[i+1:]
	}
	if s == "" {
		if label != "" {
			p.add(ln, Line{Label: label})
		}
		return
	}
	head, rest := s, ""
	if i := strings.IndexAny(s, " \t"); i >= 0 {
		head, rest = s[:i], s[i:]
	}
	m, ok := mnemonics[strings.ToUpper(head)]
	switch {
	case !ok && strings.HasPrefix(head, "."):
		p.errorf(ln, "unknown directive %s", head)
		return
	case !ok:
		p.errorf(ln, "unknown mnemonic %q", strings.ToUpper(head))
		return
	}
	var buf [4]string
	args := splitOperands(rest, buf[:0])
	l := Line{Label: label, Op: m}
	var err error
	switch m {
	case dirText, dirData:
	case dirEqu:
		if len(args) != 2 {
			p.errorf(ln, ".equ wants NAME, VALUE")
			return
		}
		if !isIdent(args[0]) {
			p.errorf(ln, ".equ: invalid name %q", args[0])
			return
		}
		l.Target = args[0]
		if l.Imm, err = p.constant(args[1]); err == nil {
			if _, dup := p.equ[l.Target]; !dup {
				p.equ[l.Target] = l.Imm
			}
		}
	case dirWord:
		if len(args) == 0 {
			p.errorf(ln, ".word wants at least one value")
			return
		}
		for k, v := range args {
			if k > 0 {
				p.add(ln, l)
				l = Line{Op: dirWord}
			}
			if err = setImm(&l, v); err != nil {
				break
			}
		}
	case dirSpace, dirOrg:
		if len(args) != 1 {
			p.errorf(ln, "%s wants one value", m)
			return
		}
		l.Imm, err = p.constant(args[0])
	default:
		err = p.operands(&l, args)
	}
	if err != nil {
		p.errorf(ln, "%v", err)
		return
	}
	p.add(ln, l)
}

// operands parses an instruction's operands in the order isa gives.
func (p *parser) operands(l *Line, args []string) error {
	ops := l.Op.operands()
	if len(args) != len(ops) {
		return fmt.Errorf("%s wants %d operands, got %d", l.Op, len(ops), len(args))
	}
	var err error
	for k, o := range ops {
		switch o {
		case isa.OperandTa:
			l.Ta, err = isa.ParseReg(args[k])
		case isa.OperandTb:
			l.Tb, err = isa.ParseReg(args[k])
		case isa.OperandB:
			var b int
			if b, err = p.constant(args[k]); err == nil {
				if b < -1 || b > 1 {
					return fmt.Errorf("%s condition trit %d out of range", l.Op, b)
				}
				l.B = ternary.Trit(b)
			}
		case isa.OperandImm:
			err = setImm(l, args[k])
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// setImm parses an immediate operand: a literal, or a name left as the
// line's Target.
func setImm(l *Line, s string) error {
	if c := s[0]; c == '+' || c == '-' || (c >= '0' && c <= '9') {
		v, err := literal(s)
		l.Imm = v
		return err
	}
	if !isIdent(s) {
		return fmt.Errorf("cannot evaluate %q as a constant", s)
	}
	l.Target = s
	return nil
}

// constant evaluates a parse-time constant: a literal or an .equ defined
// above.
func (p *parser) constant(s string) (int, error) {
	if v, ok := p.equ[s]; ok {
		return v, nil
	}
	return literal(s)
}

// literal evaluates a decimal or (optionally negated) 0t trit literal.
func literal(s string) (int, error) {
	if t := strings.TrimPrefix(s, "-"); strings.HasPrefix(t, "0t") {
		w, err := ternary.ParseWord(t)
		if err != nil {
			return 0, err
		}
		if t != s {
			return -w.Int(), nil
		}
		return w.Int(), nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("cannot evaluate %q as a constant", s)
	}
	return v, nil
}

// stripComment removes ;, # and // comments.
func stripComment(s string) string {
	if i := strings.IndexAny(s, ";#"); i >= 0 {
		s = s[:i]
	}
	if i := strings.Index(s, "//"); i >= 0 {
		s = s[:i]
	}
	return s
}

// splitOperands appends the comma-separated operands of s to f, trimmed,
// dropping empty ones.
func splitOperands(s string, f []string) []string {
	for s != "" {
		var x string
		x, s, _ = strings.Cut(s, ",")
		if x = strings.TrimSpace(x); x != "" {
			f = append(f, x)
		}
	}
	return f
}
