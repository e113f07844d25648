package rv32

import (
	"fmt"
	"strconv"
	"strings"
)

// The RV32 assembler: a two-pass assembler for the subset of GNU syntax the
// benchmark suite uses. It stands in for the open-source RISC-V toolchain
// of §III-A (DESIGN.md §4, substitution 1): its output is exactly what the
// software-level compiling framework consumes.
//
// Program layout is Harvard: instructions are indexed by word (PC/4 = text
// index), data lives in a separate byte-addressed space starting at 0.
//
// Supported directives: .text .data .equ .word .half .byte .space .align
// .asciz .org — and the usual pseudo-instructions (li la mv not neg nop j
// jr ret call beqz bnez bltz bgez bgtz blez bgt ble bgtu bleu seqz snez
// sgtz sltz halt).

// Program is an assembled RV32 program.
type Program struct {
	Insts   []Inst   // decoded text
	Words   []uint32 // encoded text, parallel to Insts
	Data    []byte   // initialised data image (byte-addressed from 0)
	Symbols map[string]int32
	Lines   []int // source line per instruction
}

// TextBytes returns the instruction-memory footprint in bytes.
func (p *Program) TextBytes() int { return 4 * len(p.Insts) }

// TextBits returns the instruction-memory footprint in bits — the Fig. 5
// metric for the RV32I column.
func (p *Program) TextBits() int { return 32 * len(p.Insts) }

// maxDataBytes bounds the assembled data image, so a hostile .space or
// .org cannot make the assembler allocate gigabytes. It is far above
// any data memory a program here runs with.
const maxDataBytes = 1 << 20

type rvAsm struct {
	equ    map[string]int32
	labels map[string]int32 // text labels: instruction index; data: byte addr
	errs   []string
}

func (a *rvAsm) errorf(line int, format string, args ...interface{}) {
	a.errs = append(a.errs, fmt.Sprintf("line %d: %s", line, fmt.Sprintf(format, args...)))
}

func (a *rvAsm) err() error {
	if len(a.errs) == 0 {
		return nil
	}
	return fmt.Errorf("%s", strings.Join(a.errs, "\n"))
}

type rvStmt struct {
	line     int
	sec      string // "text" or "data"
	mnemonic string
	args     []string
}

// Assemble assembles RV32 source text.
func Assemble(src string) (*Program, error) {
	a := &rvAsm{equ: map[string]int32{}, labels: map[string]int32{}}

	// ---- Pass 0: scan statements and labels.
	var stmts []rvStmt
	type lblDecl struct {
		name string
		idx  int
		sec  string
		line int
	}
	var decls []lblDecl
	sec := "text"
	for ln, raw := range strings.Split(src, "\n") {
		line := ln + 1
		s := raw
		for _, sep := range []string{"#", "//", ";"} {
			if i := strings.Index(s, sep); i >= 0 {
				s = s[:i]
			}
		}
		for {
			s = strings.TrimSpace(s)
			i := strings.Index(s, ":")
			if i < 0 || strings.ContainsAny(s[:i], " \t\",(") {
				break
			}
			decls = append(decls, lblDecl{strings.TrimSpace(s[:i]), len(stmts), sec, line})
			s = s[i+1:]
		}
		if s == "" {
			continue
		}
		f := splitRVOperands(s)
		head := strings.ToLower(f[0])
		switch head {
		case ".text":
			sec = "text"
			continue
		case ".data":
			sec = "data"
			continue
		case ".equ", ".set":
			if len(f) != 3 {
				a.errorf(line, "%s wants NAME, VALUE", head)
				continue
			}
			v, err := a.evalInt(f[2], line)
			if err != nil {
				a.errs = append(a.errs, err.Error())
				continue
			}
			a.equ[f[1]] = v
			continue
		case ".globl", ".global", ".p2align":
			continue // accepted and ignored where harmless
		}
		stmts = append(stmts, rvStmt{line: line, sec: sec, mnemonic: head, args: f[1:]})
	}
	if err := a.err(); err != nil {
		return nil, err
	}

	// ---- Pass 1: lay out data (independent of text), then text.
	dataAddr := int32(0)
	dataSize := map[int]int32{} // stmt index -> size in bytes
	for si := range stmts {
		st := &stmts[si]
		if st.sec != "data" {
			continue
		}
		sz, err := a.dataSize(st, dataAddr)
		if err == nil && int64(dataAddr)+int64(sz) > maxDataBytes {
			err = fmt.Errorf("line %d: data image exceeds %d bytes", st.line, maxDataBytes)
		}
		if err != nil {
			a.errs = append(a.errs, err.Error())
			continue
		}
		dataSize[si] = sz
		dataAddr += sz
	}
	// Bind data labels before text layout (la/li of data symbols).
	dataAddrs := make([]int32, len(stmts)+1)
	{
		cur := int32(0)
		for si := range stmts {
			dataAddrs[si] = cur
			if stmts[si].sec == "data" {
				// dataSize already turned .org into the gap up to its
				// absolute address (and a bad .org into an error).
				cur += dataSize[si]
			}
		}
		dataAddrs[len(stmts)] = cur
	}
	for _, d := range decls {
		if d.sec != "data" {
			continue
		}
		addr := dataAddrs[len(stmts)]
		for j := d.idx; j < len(stmts); j++ {
			if stmts[j].sec == "data" {
				addr = dataAddrs[j]
				break
			}
		}
		if _, dup := a.labels[d.name]; dup {
			a.errorf(d.line, "duplicate label %q", d.name)
		}
		a.labels[d.name] = addr
	}
	if err := a.err(); err != nil {
		return nil, err
	}

	// Text layout: instruction index per statement (pseudo expansion).
	textIdx := make([]int32, len(stmts)+1)
	cur := int32(0)
	for si := range stmts {
		textIdx[si] = cur
		if stmts[si].sec != "text" {
			continue
		}
		n, err := a.textSize(&stmts[si])
		if err != nil {
			a.errs = append(a.errs, err.Error())
			continue
		}
		cur += n
	}
	textIdx[len(stmts)] = cur
	for _, d := range decls {
		if d.sec != "text" {
			continue
		}
		addr := textIdx[len(stmts)]
		for j := d.idx; j < len(stmts); j++ {
			if stmts[j].sec == "text" {
				addr = textIdx[j]
				break
			}
		}
		if _, dup := a.labels[d.name]; dup {
			a.errorf(d.line, "duplicate label %q", d.name)
		}
		a.labels[d.name] = addr
	}
	if err := a.err(); err != nil {
		return nil, err
	}

	// ---- Pass 2: emit.
	p := &Program{Symbols: map[string]int32{}}
	for n, v := range a.equ {
		p.Symbols[n] = v
	}
	for n, v := range a.labels {
		p.Symbols[n] = v
	}
	var data []byte
	dcur := int32(0)
	for si := range stmts {
		st := &stmts[si]
		if st.sec == "data" {
			var err error
			data, dcur, err = a.emitData(st, data, dcur)
			if err != nil {
				a.errs = append(a.errs, err.Error())
			}
			continue
		}
		if err := a.emitText(p, st, textIdx[si]); err != nil {
			a.errs = append(a.errs, err.Error())
		}
	}
	p.Data = data
	if err := a.err(); err != nil {
		return nil, err
	}
	// Encode.
	p.Words = make([]uint32, len(p.Insts))
	for i, in := range p.Insts {
		w, err := Encode(in)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", p.Lines[i], err)
		}
		p.Words[i] = w
	}
	return p, nil
}

// splitRVOperands tokenises "op a, b, 4(sp)" keeping parenthesised forms
// intact and honouring quoted strings.
func splitRVOperands(s string) []string {
	s = strings.TrimSpace(s)
	i := strings.IndexAny(s, " \t")
	if i < 0 {
		return []string{s}
	}
	head := s[:i]
	rest := strings.TrimSpace(s[i:])
	var out []string
	out = append(out, head)
	depth, start := 0, 0
	inStr := false
	for j := 0; j < len(rest); j++ {
		switch rest[j] {
		case '"':
			inStr = !inStr
		case '(':
			if !inStr {
				depth++
			}
		case ')':
			if !inStr {
				depth--
			}
		case ',':
			if depth == 0 && !inStr {
				if f := strings.TrimSpace(rest[start:j]); f != "" {
					out = append(out, f)
				}
				start = j + 1
			}
		}
	}
	if f := strings.TrimSpace(rest[start:]); f != "" {
		out = append(out, f)
	}
	return out
}

// evalInt evaluates numbers (decimal, hex, char) and .equ constants.
func (a *rvAsm) evalInt(s string, line int) (int32, error) {
	if v, ok := a.equ[s]; ok {
		return v, nil
	}
	if len(s) >= 3 && s[0] == '\'' && s[len(s)-1] == '\'' {
		body := s[1 : len(s)-1]
		if body == "\\n" {
			return '\n', nil
		}
		if body == "\\0" {
			return 0, nil
		}
		if len(body) == 1 {
			return int32(body[0]), nil
		}
	}
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("line %d: cannot evaluate %q", line, s)
	}
	return int32(v), nil
}

// evalSym evaluates numbers, constants and labels.
func (a *rvAsm) evalSym(s string, line int) (int32, error) {
	if v, ok := a.labels[s]; ok {
		return v, nil
	}
	return a.evalInt(s, line)
}
