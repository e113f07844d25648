package asm

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/ternary"
)

// Property: any valid instruction stream survives the
// render → assemble → encode → disassemble → reassemble cycle intact.
func TestAssembleDisassembleProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 100; trial++ {
		// Build a random but label-free instruction stream (numeric
		// branch offsets kept in range and pointing anywhere — the
		// assembler does not execute them).
		n := rng.Intn(40) + 5
		var src strings.Builder
		for i := 0; i < n; i++ {
			op := isa.Op(rng.Intn(isa.NumOps))
			in := isa.Inst{Op: op}
			if op.HasTa() {
				in.Ta = isa.Reg(rng.Intn(isa.NumRegs))
			}
			if op.HasTb() {
				in.Tb = isa.Reg(rng.Intn(isa.NumRegs))
			}
			if k := op.ImmTrits(); k > 0 {
				max := ternary.MaxForTrits(k)
				in.Imm = rng.Intn(2*max+1) - max
			}
			if op.IsBranch() {
				in.B = ternary.Trit(rng.Intn(3) - 1)
			}
			src.WriteString(in.String())
			src.WriteByte('\n')
		}
		p1, err := Assemble(src.String())
		if err != nil {
			t.Fatalf("trial %d: assemble: %v\n%s", trial, err, src.String())
		}
		// Disassemble and reassemble.
		var back strings.Builder
		for _, l := range strings.Split(strings.TrimSpace(Disassemble(p1.Words)), "\n") {
			f := strings.Fields(l)
			back.WriteString(strings.Join(f[2:], " ") + "\n")
		}
		p2, err := Assemble(back.String())
		if err != nil {
			t.Fatalf("trial %d: reassemble: %v\n%s", trial, err, back.String())
		}
		if len(p1.Words) != len(p2.Words) {
			t.Fatalf("trial %d: length drift %d -> %d", trial, len(p1.Words), len(p2.Words))
		}
		for i := range p1.Words {
			if p1.Words[i] != p2.Words[i] {
				t.Fatalf("trial %d: word %d drift", trial, i)
			}
		}
	}
}

// Property: label-based branches always land exactly on their targets, at
// any distance (exercising all three relaxation levels).
func TestBranchTargetProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, gap := range []int{1, 5, 39, 40, 41, 80, 120, 121, 122, 200, 400} {
		var src strings.Builder
		src.WriteString("\tBEQ T1, 0, target\n")
		for i := 0; i < gap; i++ {
			// Filler that never branches.
			fmt.Fprintf(&src, "\tADDI T%d, %d\n", rng.Intn(7)+1, rng.Intn(3))
		}
		src.WriteString("target:\tHALT\n")
		p, err := Assemble(src.String())
		if err != nil {
			t.Fatalf("gap %d: %v", gap, err)
		}
		target := p.Symbols["target"]
		// Simulate just the branch resolution: walk the first emitted
		// instruction group manually.
		in := p.Text[0]
		switch in.Op {
		case isa.BEQ:
			if 0+in.Imm != target {
				t.Errorf("gap %d: short branch lands at %d, want %d", gap, in.Imm, target)
			}
		case isa.BNE: // inverted forms
			// Level 1: BNE +2; JAL off. Level 2: BNE +4; LUI; LI; JALR.
			next := p.Text[1]
			if next.Op == isa.JAL {
				if 1+next.Imm != target {
					t.Errorf("gap %d: near branch lands at %d, want %d", gap, 1+next.Imm, target)
				}
			} else if next.Op == isa.LUI {
				w := ternary.Word{}.SetField(5, 8, next.Imm)
				low := ternary.Word{}.SetField(0, 4, p.Text[2].Imm)
				for k := 0; k < 5; k++ {
					w[k] = low[k]
				}
				if w.Int() != target {
					t.Errorf("gap %d: far branch lands at %d, want %d", gap, w.Int(), target)
				}
			} else {
				t.Errorf("gap %d: unexpected relaxation shape %v", gap, next)
			}
		default:
			t.Errorf("gap %d: unexpected first op %v", gap, in)
		}
	}
}

// Property: program text cells equal 9 × instruction count for arbitrary
// programs (the Fig. 5 accounting).
func TestTextCellsProperty(t *testing.T) {
	for _, n := range []int{1, 7, 50, 333} {
		var src strings.Builder
		for i := 0; i < n; i++ {
			src.WriteString("NOP\n")
		}
		p, err := Assemble(src.String())
		if err != nil {
			t.Fatal(err)
		}
		if p.TextCells() != 9*n {
			t.Errorf("n=%d: cells %d, want %d", n, p.TextCells(), 9*n)
		}
	}
}
