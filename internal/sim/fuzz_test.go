package sim_test

import (
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/asm"
	"repro/internal/sim"
	"repro/internal/ternary"
)

// fuzzTDMWords are the TDM sizes a fuzz input picks from: small ones make
// out-of-range LOADs and STOREs common.
var fuzzTDMWords = [...]int{27, 243, 2187, ternary.WordStates}

// maxFuzzWords bounds the TIM image a fuzz input decodes to.
const maxFuzzWords = 512

// decodeCoresInput turns a fuzz input into a machine and a program. Bytes
// 0–1 set the budget, 1 + (a little-endian uint16 mod 2048) steps; byte 2
// picks the TDM size, byte 3 the number of initial TDM words, each then
// given as a little-endian uint16 address and value; and the rest is the
// TIM image, one little-endian uint16 per word. Values are read modulo
// 3^9 as the word's unsigned value. Inputs without a TIM word decode to
// nothing.
func decodeCoresInput(b []byte) (sim.Config, *asm.Program, bool) {
	if len(b) < 4 {
		return sim.Config{}, nil, false
	}
	word := func(i int) int { return int(binary.LittleEndian.Uint16(b[i:])) }
	cfg := sim.Config{MaxSteps: 1 + word(0)%2048, TDMWords: fuzzTDMWords[int(b[2])%len(fuzzTDMWords)]}
	prog := &asm.Program{Data: map[int]ternary.Word{}}
	i := 4
	for k := int(b[3]) % 16; k > 0 && i+4 <= len(b); k, i = k-1, i+4 {
		prog.Data[word(i)%cfg.TDMWords] = ternary.FromInt(word(i + 2))
	}
	for ; i+2 <= len(b) && len(prog.Words) < maxFuzzWords; i += 2 {
		prog.Words = append(prog.Words, ternary.FromInt(word(i)))
	}
	cfg.TIMWords = len(prog.Words)
	return cfg, prog, len(prog.Words) > 0
}

// encodeCoresInput is the inverse of decodeCoresInput for a program that
// fits: a budget of steps, TDM size fuzzTDMWords[tdm] and prog's image.
func encodeCoresInput(steps, tdm int, prog *asm.Program) []byte {
	b := binary.LittleEndian.AppendUint16(nil, uint16(steps-1))
	b = append(b, byte(tdm), byte(len(prog.Data)))
	addrs := make([]int, 0, len(prog.Data))
	for a := range prog.Data {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	for _, a := range addrs {
		b = binary.LittleEndian.AppendUint16(b, uint16(a))
		b = binary.LittleEndian.AppendUint16(b, uint16(ternary.Pack(prog.Data[a]).UIndex()))
	}
	for _, w := range prog.Words {
		b = binary.LittleEndian.AppendUint16(b, uint16(ternary.Pack(w).UIndex()))
	}
	return b
}

// edgePrograms are the rare corners of the step loop, each run by FuzzCores
// under every budget up to its end on a 27-word TDM: halts by a taken
// branch to itself, a JALR halt stalled behind the LOAD of its target, and
// TDM faults on an instruction stalled behind a LOAD, followed by more
// code or by the end of TIM.
var edgePrograms = []string{
	"LDI T1, 0\nBNE T1, 0, self\nself: BEQ T1, 0, self\n",
	"LDI T1, 1\nBEQ T1, 0, self\nself: BNE T1, 0, self\n",
	"LDA T1, stop\nSTORE T1, T0, 3\nLOAD T2, T0, 3\nstop: JALR T3, T2, 0\n",
	"LDI T1, 100\nSTORE T1, T0, 3\nLOAD T2, T0, 3\nLOAD T3, T2, 0\nNOP\nHALT\n",
	"LDI T1, 100\nSTORE T1, T0, 3\nLOAD T2, T0, 3\nSTORE T3, T2, 0\nNOP\nHALT\n",
	"LDI T1, 100\nSTORE T1, T0, 3\nLOAD T2, T0, 3\nLOAD T3, T2, 0\n",
	"LDI T1, 100\nSTORE T1, T0, 3\nLOAD T2, T0, 3\nSTORE T3, T2, 0\n",
}

// FuzzCores runs arbitrary TIM images, legal or not, on every core. The
// timed functional core must reproduce the Pipeline: the whole Result and
// the final PC, TRF and TDM when both halt, or the same ErrNoHalt, or a
// fault on both. The untimed functional core reports Cycles == Retired
// and no stalls; it halts with the timed run's Result and state whenever
// the timed run halts, faults with its error whenever it faults, and
// stops with ErrNoHalt only when the timed run does too.
func FuzzCores(f *testing.F) {
	assemble := func(src string) *asm.Program {
		p, err := asm.Assemble(src)
		if err != nil {
			f.Fatalf("%v\n%s", err, src)
		}
		return p
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 16; i++ {
		f.Add(encodeCoresInput(1+i*128, len(fuzzTDMWords)-1, assemble(sim.BuildRandomProgram(rng, 30))))
	}
	for _, src := range sim.GoldenPrograms() {
		if p := assemble(src); len(p.Data) < 16 && len(p.Words) <= maxFuzzWords {
			f.Add(encodeCoresInput(2048, len(fuzzTDMWords)-1, p))
		}
	}
	for _, src := range edgePrograms {
		p := assemble(src)
		for steps := 1; steps <= 4*len(p.Words)+8; steps++ {
			f.Add(encodeCoresInput(steps, 0, p))
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		cfg, prog, ok := decodeCoresInput(b)
		if !ok {
			return
		}
		newCores(cfg).compare(t, "input", prog, prog.Data)

		timed, untimed := sim.NewFunctional(cfg), sim.NewFunctional(cfg)
		for _, s := range []*sim.State{timed.S, untimed.S} {
			if err := s.Load(prog); err != nil {
				t.Fatal(err)
			}
		}
		tres, terr := timed.RunTimed(context.Background())
		ures, uerr := untimed.Run()
		if ures.Cycles != ures.Retired || ures.StallsLoad != 0 || ures.StallsBranch != 0 {
			t.Fatalf("Run: cycles %d retired %d stalls %d/%d, want cycles == retired and no stalls",
				ures.Cycles, ures.Retired, ures.StallsLoad, ures.StallsBranch)
		}
		var noHalt sim.ErrNoHalt
		switch {
		case errors.As(uerr, &noHalt):
			if !errors.As(terr, &noHalt) {
				t.Fatalf("Run: %v, but RunTimed: %v", uerr, terr)
			}
		case terr == nil:
			want := tres
			want.Cycles, want.StallsLoad, want.StallsBranch = want.Retired, 0, 0
			if uerr != nil || ures != want {
				t.Fatalf("Run: %+v, %v\nRunTimed: %+v", ures, uerr, tres)
			}
			if untimed.S.PC != timed.S.PC || untimed.S.TRF != timed.S.TRF ||
				!slices.Equal(untimed.S.TDM.Snapshot(), timed.S.TDM.Snapshot()) {
				t.Fatal("Run and RunTimed halt in different states")
			}
		case !errors.As(terr, &noHalt):
			if uerr == nil || uerr.Error() != terr.Error() {
				t.Fatalf("Run: %v, but RunTimed: %v", uerr, terr)
			}
		}
	})
}
