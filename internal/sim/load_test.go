package sim

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/ternary"
)

// TestLoadResetsStateBetweenPrograms reuses one State for a long program
// and then a shorter one: the second Load must zero every word beyond the
// new image, every register and the PC, or the second program starts
// from the first one's residue.
func TestLoadResetsStateBetweenPrograms(t *testing.T) {
	long, err := asm.Assemble(`
		LDI T1, 111
		LDI T2, 222
		LDI T3, 20
		STORE T1, T3, 0
		STORE T2, T3, 1
		ADD T1, T2
		ADD T1, T2
		ADD T1, T2
		HALT
	`)
	if err != nil {
		t.Fatal(err)
	}
	short, err := asm.Assemble(`
		LDI T1, 5
		HALT
	`)
	if err != nil {
		t.Fatal(err)
	}

	f := NewFunctional(Config{})
	if err := f.S.Load(long); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(); err != nil {
		t.Fatal(err)
	}

	if err := f.S.Load(short); err != nil {
		t.Fatal(err)
	}
	// No stale instruction words: everything past the short image is 0.
	tim := f.S.TIM.Snapshot()
	for a := len(short.Words); a < len(long.Words); a++ {
		if !tim[a].IsZero() {
			t.Errorf("TIM[%d] = %v, want zero after shorter reload", a, tim[a])
		}
	}
	// No stale data words from the first program's stores.
	for _, a := range []int{20, 21} {
		w, err := f.S.TDM.Read(a)
		if err != nil {
			t.Fatal(err)
		}
		if !w.IsZero() {
			t.Errorf("TDM[%d] = %v, want zero after reload", a, w)
		}
	}
	// No stale registers or PC: the first run left T1..T3 and the halt
	// address behind.
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		if got := f.S.Reg(r); !got.IsZero() {
			t.Errorf("T%d = %v after reload, want zero", r, got)
		}
	}
	if !f.S.PC.IsZero() {
		t.Errorf("PC = %d after reload, want 0", f.S.PC.Int())
	}

	// The short program still runs correctly on the reused state.
	res, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.HaltPC != len(short.Words)-1 {
		t.Errorf("halt PC = %d, want %d", res.HaltPC, len(short.Words)-1)
	}
	if got := f.S.Reg(1).Int(); got != 5 {
		t.Errorf("T1 = %d, want 5", got)
	}
}

// TestLoadZeroesRegisterFile writes every register of a State directly,
// reloads it, and expects the new program to start from a zeroed TRF — a
// reused machine must not hand one job's registers to the next.
func TestLoadZeroesRegisterFile(t *testing.T) {
	p, err := asm.Assemble("HALT")
	if err != nil {
		t.Fatal(err)
	}
	s := NewState(Config{})
	if err := s.Load(p); err != nil {
		t.Fatal(err)
	}
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		s.SetReg(r, ternary.FromInt(100*int(r)-401))
	}
	s.PC = ternary.PackedFromInt(7)
	if err := s.Load(p); err != nil {
		t.Fatal(err)
	}
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		if got := s.Reg(r); !got.IsZero() {
			t.Errorf("Reg(T%d) = %d after reload, want 0", r, got.Int())
		}
	}
	if !s.PC.IsZero() {
		t.Errorf("PC = %d after reload, want 0", s.PC.Int())
	}
}
