package xlate

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
)

// mn returns the mnemonic spelled op.
func mn(op string) asm.Mnemonic {
	if o, ok := isa.OpByName[op]; ok {
		return asm.Instr(o)
	}
	return map[string]asm.Mnemonic{"LDI": asm.LDI, "LDA": asm.LDA, "HALT": asm.HALT}[op]
}

// rl, il and ml are shorthand Line builders for peephole unit tests.
func rl(op string, ta, tb isa.Reg) asm.Line {
	return asm.Line{Op: mn(op), Ta: ta, Tb: tb}
}

func il(op string, ta isa.Reg, imm int) asm.Line {
	return asm.Line{Op: mn(op), Ta: ta, Imm: imm}
}

func ml(op string, ta, tb isa.Reg, imm int) asm.Line {
	return asm.Line{Op: mn(op), Ta: ta, Tb: tb, Imm: imm}
}

func countOps(lines []asm.Line) int {
	n := 0
	for _, l := range lines {
		if l.Op != 0 {
			n++
		}
	}
	return n
}

func TestPeepholeIdentities(t *testing.T) {
	in := []asm.Line{
		rl("MV", 1, 1),   // removed
		il("ADDI", 2, 0), // removed
		il("SLI", 3, 0),  // removed
		rl("ADD", 4, 0),  // ADD x, T0: removed
		rl("SUB", 5, 0),  // removed
		rl("MV", 1, 2),   // kept
		il("ADDI", 2, 1), // kept
		rl("OR", 4, 0),   // OR with T0 is max(x,0) — MUST be kept
	}
	out, removed := peephole(in)
	if removed != 5 {
		t.Errorf("removed %d, want 5", removed)
	}
	if countOps(out) != 3 {
		t.Errorf("%d ops left, want 3: %v", countOps(out), out)
	}
	for _, l := range out {
		if l.Op == mn("OR") {
			return
		}
	}
	t.Error("OR x, T0 was wrongly removed (not an identity in balanced ternary)")
}

func TestPeepholeSpillReload(t *testing.T) {
	// STORE then immediate LOAD of the same slot → MV (or dropped).
	in := []asm.Line{
		ml("STORE", 3, 0, -9),
		ml("LOAD", 4, 0, -9),
	}
	out, _ := peephole(in)
	if countOps(out) != 2 || out[1].Op != mn("MV") || out[1].Ta != 4 || out[1].Tb != 3 {
		t.Errorf("reload not converted to MV: %v", out)
	}
	// Same register: reload dropped entirely.
	in = []asm.Line{
		ml("STORE", 3, 0, -9),
		ml("LOAD", 3, 0, -9),
	}
	out, _ = peephole(in)
	if countOps(out) != 1 {
		t.Errorf("same-register reload not dropped: %v", out)
	}
	// Different slot: untouched.
	in = []asm.Line{
		ml("STORE", 3, 0, -9),
		ml("LOAD", 3, 0, -8),
	}
	out, _ = peephole(in)
	if countOps(out) != 2 || out[1].Op != mn("LOAD") {
		t.Errorf("different-slot reload was touched: %v", out)
	}
}

func TestPeepholeSpillReloadLabelBarrier(t *testing.T) {
	// A label between store and reload blocks the rewrite (another path
	// may enter there).
	in := []asm.Line{
		ml("STORE", 3, 0, -9),
		{Label: "L1", Op: mn("LOAD"), Ta: 4, Tb: 0, Imm: -9},
	}
	out, removed := peephole(in)
	if removed != 0 || out[1].Op != mn("LOAD") {
		t.Errorf("labelled reload was rewritten: %v", out)
	}
}

func TestPeepholeDeadWrite(t *testing.T) {
	// LDI overwritten before any read → dropped.
	in := []asm.Line{
		il("LDI", 7, 5),
		il("LDI", 7, 9),
		rl("MV", 1, 7),
	}
	out, removed := peephole(in)
	if removed != 1 || countOps(out) != 2 {
		t.Errorf("dead LDI not removed: %v", out)
	}
	// A read in between keeps it.
	in = []asm.Line{
		il("LDI", 7, 5),
		rl("ADD", 1, 7),
		il("LDI", 7, 9),
	}
	_, removed = peephole(in)
	if removed != 0 {
		t.Errorf("live LDI removed")
	}
	// Control flow in between keeps it.
	in = []asm.Line{
		il("LDI", 7, 5),
		{Op: mn("JAL"), Ta: 8, Target: "x"},
		il("LDI", 7, 9),
	}
	_, removed = peephole(in)
	if removed != 0 {
		t.Errorf("LDI across control flow removed")
	}
}

func TestPeepholeDuplicateLDI(t *testing.T) {
	in := []asm.Line{
		il("LDI", 7, 100),
		rl("ADD", 1, 7),
		il("LDI", 7, 100), // same constant, no intervening write → dropped
		rl("ADD", 2, 7),
	}
	out, removed := peephole(in)
	if removed != 1 || countOps(out) != 3 {
		t.Errorf("duplicate LDI not removed: %v", out)
	}
	// Different constant: kept.
	in = []asm.Line{
		il("LDI", 7, 100),
		rl("ADD", 1, 7),
		il("LDI", 7, 101),
	}
	_, removed = peephole(in)
	if removed != 0 {
		t.Error("distinct LDI removed")
	}
}

func TestPeepholePreservesLabels(t *testing.T) {
	in := []asm.Line{
		{Label: "entry", Op: mn("MV"), Ta: 1, Tb: 1}, // identity with label
		il("ADDI", 1, 1),
	}
	out, _ := peephole(in)
	found := false
	for _, l := range out {
		if l.Label == "entry" {
			found = true
		}
	}
	if !found {
		t.Errorf("label lost during removal: %v", out)
	}
}

func TestPeepholeNeverTouchesPrologue(t *testing.T) {
	// The LDI T0, 0 prologue would look dead (T0 never rewritten...)
	// but must survive: every spill slot and zero-compare uses it.
	in := []asm.Line{
		il("LDI", 0, 0),
		il("LDI", 1, 5),
	}
	_, removed := peephole(in)
	if removed != 0 {
		t.Error("prologue LDI T0 removed")
	}
}

func TestLineMetadata(t *testing.T) {
	// Read/write sets drive every rule; pin them for each op family.
	if w, ok := lineWrites(rl("COMP", 1, 2)); !ok || w != 1 {
		t.Error("COMP writes Ta")
	}
	if _, ok := lineWrites(ml("STORE", 1, 2, 0)); ok {
		t.Error("STORE writes no register")
	}
	if w, ok := lineWrites(ml("LOAD", 1, 2, 0)); !ok || w != 1 {
		t.Error("LOAD writes Ta")
	}
	if st := ml("STORE", 1, 2, 0); !lineReads(st, 1) || !lineReads(st, 2) {
		t.Error("STORE reads Ta and Tb")
	}
	if lineReads(il("LDI", 1, 5), 1) {
		t.Error("LDI reads no register")
	}
	if !isControl(asm.Line{Op: mn("HALT")}) || isControl(rl("ADD", 1, 2)) {
		t.Error("control classification wrong")
	}
}
