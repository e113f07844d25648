package sim

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/ternary"
)

// allWords returns every 9-trit word, indexed by its
// unsigned (addressing) value.
func allWords() []ternary.Word {
	ws := make([]ternary.Word, ternary.WordStates)
	for i := range ws {
		ws[i] = ternary.FromInt(i)
	}
	return ws
}

// checkSlot compares a predecoded slot with the on-the-fly decode of word w
// fetched from TIM index addr: DecodePacked plus PackedFromInt, Inc and Add
// exactly as a step would compute them, their TIM indices, and the
// registers the pipeline's hazard unit treats as read.
func checkSlot(t *testing.T, got slot, w ternary.Word, addr int) {
	t.Helper()
	q := ternary.Pack(w)
	pc := ternary.Pack(ternary.FromInt(addr))
	if pc.UIndex() != addr {
		t.Fatalf("address %d does not round-trip (UIndex %d)", addr, pc.UIndex())
	}
	in, err := isa.DecodePacked(q)
	if got.word != q {
		t.Fatalf("[%d] %v: slot word = %v", addr, w, got.word)
	}
	if err != nil {
		if got.ok {
			t.Fatalf("[%d] %v: undecodable word predecoded as %v", addr, w, got.in)
		}
		return
	}
	imm := ternary.PackedFromInt(in.Imm)
	want := slot{word: q, ok: true, in: in, imm: imm, seq: pc.Inc(), target: pc.Add(imm),
		seqIdx: uint(pc.Inc().UIndex()), targetIdx: uint(pc.Add(imm).UIndex())}
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		if (in.Op.ReadsTa() && in.Ta == r) || (in.Op.ReadsTb() && in.Tb == r) {
			want.reads |= 1 << r
		}
	}
	if got != want {
		t.Fatalf("[%d] %v: slot = %+v, want %+v", addr, w, got, want)
	}
}

// TestPredecodeMatchesDecodeAtWrapEdges decodes all 3^9 words at the
// addresses where pc+1 and pc+imm wrap — index 0, MaxInt (the largest
// positive PC), MaxInt+1 (the most negative) and WordStates-1 (PC −1) —
// and compares every slot with the on-the-fly computation.
func TestPredecodeMatchesDecodeAtWrapEdges(t *testing.T) {
	ws := allWords()
	for _, addr := range []int{0, 1, ternary.MaxInt, ternary.MaxInt + 1, ternary.WordStates - 1} {
		pc := ternary.PackedFromInt(addr)
		for _, w := range ws {
			got, _ := decodeAt(ternary.Pack(w), pc)
			checkSlot(t, got, w, addr)
		}
	}
}

// TestPredecodeFullImage loads all 3^9 words as one image — each word at
// its own address, so every address including both wrap edges is covered
// — and checks the image the run-time predecode builds, then that a
// second predecode over an unchanged TIM keeps every slot.
func TestPredecodeFullImage(t *testing.T) {
	ws := allWords()
	s := NewState(Config{})
	if err := s.Load(&asm.Program{Words: ws}); err != nil {
		t.Fatal(err)
	}
	s.predecode()
	if len(s.image) != len(ws) {
		t.Fatalf("image has %d slots, want %d", len(s.image), len(ws))
	}
	for a, w := range ws {
		checkSlot(t, s.image[a], w, a)
	}
	before := &s.image[0]
	s.predecode()
	if &s.image[0] != before {
		t.Error("predecode over an unchanged TIM reallocated the image")
	}
}

// illegalWord is an R-type word with an unassigned minor code.
var illegalWord = ternary.Word{}.SetField(7, 8, -4).SetField(4, 6, 13)

// TestUndecodableWordNotExecuted places an illegal word right after the
// halt: both cores predecode it but never fetch it, so the run succeeds.
func TestUndecodableWordNotExecuted(t *testing.T) {
	halt, err := asm.Assemble("LDI T1, 7\nHALT")
	if err != nil {
		t.Fatal(err)
	}
	p := &asm.Program{Words: append(append([]ternary.Word{}, halt.Words...), illegalWord)}
	for _, core := range []string{"functional", "pipelined"} {
		s := NewState(Config{})
		if err := s.Load(p); err != nil {
			t.Fatal(err)
		}
		if _, err := runCore(core, s); err != nil {
			t.Errorf("%s: %v", core, err)
		}
		if got := s.Reg(1).Int(); got != 7 {
			t.Errorf("%s: T1 = %d, want 7", core, got)
		}
	}
}

func runCore(core string, s *State) (Result, error) {
	if core == "functional" {
		return (&Functional{S: s}).Run()
	}
	return (&Pipeline{S: s}).Run()
}

// TestUndecodableWordExecutedErrorText pins the fault both cores report
// for an executed illegal word, loaded as part of the image or written
// into TIM directly after construction.
func TestUndecodableWordExecutedErrorText(t *testing.T) {
	nop := isa.MustEncode(isa.NOP())
	want := map[string]string{
		"functional": "sim: at PC=1: isa: illegal R-type minor 13 in TT1110000",
		"pipelined":  "sim: IF at PC=1: isa: illegal R-type minor 13 in TT1110000",
	}
	for _, core := range []string{"functional", "pipelined"} {
		loaded := NewState(Config{})
		if err := loaded.Load(&asm.Program{Words: []ternary.Word{nop, illegalWord}}); err != nil {
			t.Fatal(err)
		}
		direct := NewState(Config{})
		if err := direct.TIM.LoadImage([]ternary.Word{nop, illegalWord}); err != nil {
			t.Fatal(err)
		}
		for name, s := range map[string]*State{"loaded": loaded, "direct": direct} {
			_, err := runCore(core, s)
			if err == nil || err.Error() != want[core] {
				t.Errorf("%s/%s: error = %v, want %q", core, name, err, want[core])
			}
		}
	}
}

// TestDirectTIMWritesExecute writes TIM directly — on a fresh State, and
// over a State whose image was predecoded by an earlier run — and expects
// the written words, not a stale image, to execute.
func TestDirectTIMWritesExecute(t *testing.T) {
	first, err := asm.Assemble("LDI T1, 5\nHALT")
	if err != nil {
		t.Fatal(err)
	}
	second, err := asm.Assemble("LDI T1, -12\nHALT")
	if err != nil {
		t.Fatal(err)
	}
	for _, core := range []string{"functional", "pipelined"} {
		fresh := NewState(Config{})
		if err := fresh.TIM.LoadImage(first.Words); err != nil {
			t.Fatal(err)
		}
		if _, err := runCore(core, fresh); err != nil {
			t.Fatal(err)
		}
		if got := fresh.Reg(1).Int(); got != 5 {
			t.Errorf("%s: fresh State T1 = %d, want 5", core, got)
		}

		reused := NewState(Config{})
		if err := reused.Load(first); err != nil {
			t.Fatal(err)
		}
		if _, err := runCore(core, reused); err != nil {
			t.Fatal(err)
		}
		reused.PC = ternary.Packed{}
		if err := reused.TIM.LoadImage(second.Words); err != nil {
			t.Fatal(err)
		}
		if _, err := runCore(core, reused); err != nil {
			t.Fatal(err)
		}
		if got := reused.Reg(1).Int(); got != -12 {
			t.Errorf("%s: rewritten TIM T1 = %d, want -12", core, got)
		}
	}
}
