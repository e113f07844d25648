package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/ternary"
)

// runFunc assembles and runs src on the functional core.
func runFunc(t *testing.T, src string) (*Functional, Result) {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	f := NewFunctional(Config{})
	if err := f.S.Load(p); err != nil {
		t.Fatal(err)
	}
	res, err := f.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return f, res
}

// runPipe assembles and runs src on the pipelined core.
func runPipe(t *testing.T, src string) (*Pipeline, Result) {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	pl := NewPipeline(Config{})
	if err := pl.S.Load(p); err != nil {
		t.Fatal(err)
	}
	res, err := pl.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return pl, res
}

func TestFunctionalBasicALU(t *testing.T) {
	f, res := runFunc(t, `
		LDI T1, 100
		LDI T2, -42
		ADD T1, T2      ; T1 = 58
		MV  T3, T1
		SUB T3, T2      ; T3 = 100
		STI T4, T2      ; T4 = 42
		ADDI T4, 13     ; T4 = 55
		HALT
	`)
	want := map[isa.Reg]int{1: 58, 3: 100, 4: 55}
	for r, v := range want {
		if got := f.S.Reg(r).Int(); got != v {
			t.Errorf("T%d = %d, want %d", r, got, v)
		}
	}
	if res.Retired == 0 || res.Cycles != res.Retired {
		t.Errorf("functional cycles %d != retired %d", res.Cycles, res.Retired)
	}
}

func TestFunctionalLogicOps(t *testing.T) {
	f, _ := runFunc(t, `
		LDI T1, 0t110T
		LDI T2, 0t1T01
		MV T3, T1
		AND T3, T2
		MV T4, T1
		OR T4, T2
		MV T5, T1
		XOR T5, T2
		NTI T6, T1
		PTI T7, T1
		HALT
	`)
	w1, _ := ternary.ParseWord("110T")
	w2, _ := ternary.ParseWord("1T01")
	checks := []struct {
		r    isa.Reg
		want ternary.Word
	}{
		{3, ternary.And(w1, w2)},
		{4, ternary.Or(w1, w2)},
		{5, ternary.Xor(w1, w2)},
		{6, ternary.Nti(w1)},
		{7, ternary.Pti(w1)},
	}
	for _, c := range checks {
		if got := f.S.Reg(c.r); got != c.want {
			t.Errorf("T%d = %v, want %v", c.r, got, c.want)
		}
	}
}

func TestFunctionalShifts(t *testing.T) {
	f, _ := runFunc(t, `
		LDI T1, 42
		SLI T1, 2       ; 42*9 = 378
		LDI T2, 378
		SRI T2, 1       ; 126
		LDI T3, 2
		LDI T4, 5
		SL  T4, T3      ; 5*9 = 45
		HALT
	`)
	if got := f.S.Reg(1).Int(); got != 378 {
		t.Errorf("SLI: T1 = %d, want 378", got)
	}
	if got := f.S.Reg(2).Int(); got != 126 {
		t.Errorf("SRI: T2 = %d, want 126", got)
	}
	if got := f.S.Reg(4).Int(); got != 45 {
		t.Errorf("SL: T4 = %d, want 45", got)
	}
}

func TestFunctionalCompareAndBranch(t *testing.T) {
	// Classic max(): COMP then branch on the sign trit.
	src := `
		LDI T1, %d
		LDI T2, %d
		MV  T3, T1
		COMP T3, T2      ; sign(T1-T2) in LST
		BEQ T3, 1, t1max ; taken if T1 > T2
		MV  T4, T2       ; else max = T2
		JAL T0, done
	t1max:
		MV  T4, T1
	done:
		HALT
	`
	cases := []struct{ a, b, want int }{{10, 3, 10}, {3, 10, 10}, {-5, -9, -5}, {7, 7, 7}}
	for _, c := range cases {
		f, _ := runFunc(t, fmt.Sprintf(src, c.a, c.b))
		if got := f.S.Reg(4).Int(); got != c.want {
			t.Errorf("max(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestFunctionalCOMPAllThreeOutcomes(t *testing.T) {
	f, _ := runFunc(t, `
		LDI T1, 5
		LDI T2, 9
		MV T3, T1
		COMP T3, T2     ; -1
		MV T4, T2
		COMP T4, T1     ; +1
		MV T5, T1
		COMP T5, T1     ; 0
		HALT
	`)
	if f.S.Reg(3).Int() != -1 || f.S.Reg(4).Int() != 1 || f.S.Reg(5).Int() != 0 {
		t.Errorf("COMP outcomes = %d,%d,%d; want -1,1,0",
			f.S.Reg(3).Int(), f.S.Reg(4).Int(), f.S.Reg(5).Int())
	}
}

func TestFunctionalLUILIConstruction(t *testing.T) {
	// LUI/LI semantics straight from Table I.
	f, _ := runFunc(t, `
		LUI T1, 7       ; T1 = {7, 00000} = 7*243
		LI  T1, -11     ; low 5 trits = -11, upper kept
		HALT
	`)
	if got, want := f.S.Reg(1).Int(), 7*243-11; got != want {
		t.Errorf("LUI/LI = %d, want %d", got, want)
	}
}

func TestFunctionalLoadStore(t *testing.T) {
	f, res := runFunc(t, `
		.data
		.org 10
	src:	.word 111, -222, 333
		.text
		LDA T1, src
		LOAD T2, T1, 0
		LOAD T3, T1, 1
		LOAD T4, T1, 2
		ADD T2, T3       ; -111
		ADD T2, T4       ; 222
		LDA T5, dst
		STORE T2, T5, 0
		HALT
		.data
	dst:	.word 0
	`)
	if got := f.S.Reg(2).Int(); got != 222 {
		t.Errorf("sum = %d, want 222", got)
	}
	dst := f.S.TDM
	w, err := dst.Read(13)
	if err != nil || w.Int() != 222 {
		t.Errorf("TDM[13] = %v (%v), want 222", w, err)
	}
	if res.Loads != 3 || res.Stores != 1 {
		t.Errorf("loads/stores = %d/%d, want 3/1", res.Loads, res.Stores)
	}
}

func TestFunctionalNegativeAddressing(t *testing.T) {
	// Balanced addresses wrap into the top of the unsigned space.
	f, _ := runFunc(t, `
		LDI T1, -1
		LDI T2, 777
		STORE T2, T1, 0
		LOAD T3, T1, 0
		HALT
	`)
	if got := f.S.Reg(3).Int(); got != 777 {
		t.Errorf("negative-address round trip = %d, want 777", got)
	}
}

func TestFunctionalJALLink(t *testing.T) {
	f, _ := runFunc(t, `
		NOP
		JAL T1, sub     ; at address 1: link = 2
		HALT
	sub:
		MV T2, T1
		JALR T3, T1, 0  ; return; link T3 = sub+2
	`)
	if got := f.S.Reg(2).Int(); got != 2 {
		t.Errorf("link = %d, want 2", got)
	}
	if got := f.S.Reg(3).Int(); got != 5 {
		t.Errorf("JALR link = %d, want 5", got)
	}
}

func TestFunctionalSubroutineCallReturn(t *testing.T) {
	// double(x): x += x; call twice via JAL/JALR.
	f, _ := runFunc(t, `
		LDI T2, 21
		JAL T1, double
		JAL T1, double
		HALT
	double:
		ADD T2, T2
		JALR T0, T1, 0
	`)
	if got := f.S.Reg(2).Int(); got != 84 {
		t.Errorf("double(double(21)) = %d, want 84", got)
	}
}

func TestFunctionalBNEConditionTrits(t *testing.T) {
	// Branch compares the LST of TRF[Tb] with the B trit; exercise all
	// three B values.
	for _, b := range []int{-1, 0, 1} {
		for _, v := range []int{-1, 0, 1} {
			src := fmt.Sprintf(`
				LDI T1, %d
				LDI T2, 0
				BEQ T1, %d, hit
				JAL T0, out
			hit:	LDI T2, 1
			out:	HALT
			`, v, b)
			f, _ := runFunc(t, src)
			want := 0
			if v == b {
				want = 1
			}
			if got := f.S.Reg(2).Int(); got != want {
				t.Errorf("BEQ LST=%d B=%d: hit=%d, want %d", v, b, got, want)
			}
		}
	}
}

func TestFunctionalANDIMasksLowTrits(t *testing.T) {
	f, _ := runFunc(t, `
		LDI T1, 0t1T1T1
		ANDI T1, 0t111   ; min with 000000111
		HALT
	`)
	w, _ := ternary.ParseWord("1T1T1")
	want := ternary.And(w, ternary.FromInt(13))
	if got := f.S.Reg(1); got != want {
		t.Errorf("ANDI = %v, want %v", got, want)
	}
}

func TestFunctionalCountingLoop(t *testing.T) {
	// Sum 1..10 = 55 with a COMP-driven loop.
	f, res := runFunc(t, `
		LDI T1, 0       ; sum
		LDI T2, 1       ; i
		LDI T3, 10      ; n
	loop:
		ADD T1, T2
		ADDI T2, 1
		MV T4, T2
		COMP T4, T3     ; i vs n
		BNE T4, 1, loop ; while i <= n
		HALT
	`)
	if got := f.S.Reg(1).Int(); got != 55 {
		t.Errorf("sum = %d, want 55", got)
	}
	if res.Taken != 9 || res.NotTaken != 1 {
		t.Errorf("taken/not = %d/%d, want 9/1", res.Taken, res.NotTaken)
	}
}

func TestFunctionalHaltViaJALR(t *testing.T) {
	// A far HALT: LDA self + JALR to self must also stop.
	f, _ := runFunc(t, `
		LDA T1, stop
	stop:
		JALR T2, T1, 0  ; jumps to itself
	`)
	if f.S.PC.UIndex() != 2 {
		t.Errorf("halt PC = %d, want 2", f.S.PC.UIndex())
	}
}

func TestFunctionalNoHaltError(t *testing.T) {
	p, err := asm.Assemble("loop: ADDI T1, 1\nJAL T0, loop")
	if err != nil {
		t.Fatal(err)
	}
	f := NewFunctional(Config{MaxSteps: 1000})
	if err := f.S.Load(p); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(); err == nil {
		t.Error("runaway program did not error")
	} else if _, ok := err.(ErrNoHalt); !ok {
		t.Errorf("error = %v, want ErrNoHalt", err)
	}
}

// TestRunTimedStopsOnDeadline runs a loop that never halts under a 50 ms
// deadline; the default budget would take seconds to exhaust. RunTimed
// polls the context and stops at the deadline.
func TestRunTimedStopsOnDeadline(t *testing.T) {
	p, err := asm.Assemble("loop: ADDI T1, 1\nJAL T0, loop")
	if err != nil {
		t.Fatal(err)
	}
	f := NewFunctional(Config{})
	if err := f.S.Load(p); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = f.RunTimed(ctx)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("RunTimed returned after %v, want under 2s", elapsed)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error = %v, want one wrapping context.DeadlineExceeded", err)
	}
}

func TestFunctionalIllegalInstruction(t *testing.T) {
	f := NewFunctional(Config{})
	// Plant an illegal word (bad R minor) at PC 0.
	w := ternary.Word{}.SetField(7, 8, -4).SetField(4, 6, 13)
	if err := f.S.TIM.LoadImage([]ternary.Word{w}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(); err == nil {
		t.Error("illegal instruction did not error")
	}
}

func TestFunctionalWrapArithmetic(t *testing.T) {
	f, _ := runFunc(t, `
		LDI T1, 9841
		ADDI T1, 1      ; wraps to -9841
		HALT
	`)
	if got := f.S.Reg(1).Int(); got != -9841 {
		t.Errorf("wrap = %d, want -9841", got)
	}
}

// buildRandomProgram emits a random but always-terminating program of n
// lines over all 24 opcodes: forward-only control flow (BEQ, BNE, JAL,
// and JALR through an LDA'd label), ALU and memory instructions, loads
// feeding the next instruction in its Ta slot, its Tb slot or as a
// STORE's data, and either halt idiom. Every line carries a label, so a
// transfer reaches its target however many words the lines between
// assemble to.
func buildRandomProgram(rng *rand.Rand, n int) string {
	var b strings.Builder
	// Seed registers with random small values.
	for r := 1; r < isa.NumRegs; r++ {
		fmt.Fprintf(&b, "LDI T%d, %d\n", r, rng.Intn(2001)-1000)
	}
	imm := func(max int) int { return rng.Intn(2*max+1) - max }
	for i := 0; i < n; i++ {
		r1, r2, r3 := rng.Intn(8)+1, rng.Intn(8)+1, rng.Intn(8)+1
		fwd := fmt.Sprintf("l%d", i+1+rng.Intn(min(10, n-i))) // at most 30 words ahead
		fmt.Fprintf(&b, "l%d:\t", i)
		switch op := rng.Intn(23); op {
		case 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11:
			rr := []string{"MV", "PTI", "NTI", "STI", "AND", "OR", "XOR", "ADD", "SUB", "SR", "SL", "COMP"}
			fmt.Fprintf(&b, "%s T%d, T%d", rr[op], r1, r2)
		case 12:
			fmt.Fprintf(&b, "ANDI T%d, %d", r1, imm(13))
		case 13:
			fmt.Fprintf(&b, "ADDI T%d, %d", r1, imm(13))
		case 14:
			fmt.Fprintf(&b, "SRI T%d, %d", r1, imm(4))
		case 15:
			fmt.Fprintf(&b, "SLI T%d, %d", r1, imm(4))
		case 16:
			fmt.Fprintf(&b, "LUI T%d, %d", r1, imm(40))
		case 17:
			fmt.Fprintf(&b, "LI T%d, %d", r1, imm(121))
		case 18:
			fmt.Fprintf(&b, "%s T%d, %d, %s", []string{"BEQ", "BNE"}[rng.Intn(2)], r1, rng.Intn(3)-1, fwd)
		case 19:
			fmt.Fprintf(&b, "JAL T%d, %s", r1, fwd)
		case 20:
			fmt.Fprintf(&b, "LDA T%d, %s\n\tJALR T%d, T%d, 0", r1, fwd, r2, r1)
		case 21:
			fmt.Fprintf(&b, "STORE T%d, T%d, %d", r1, r2, imm(13))
		case 22:
			// A LOAD, alone or feeding the next instruction's Ta slot,
			// Tb slot or STORE data.
			fmt.Fprintf(&b, "LOAD T%d, T%d, %d", r1, r2, imm(13))
			switch rng.Intn(4) {
			case 1:
				fmt.Fprintf(&b, "\n\tADD T%d, T%d", r1, r3)
			case 2:
				fmt.Fprintf(&b, "\n\tSUB T%d, T%d", r3, r1)
			case 3:
				fmt.Fprintf(&b, "\n\tSTORE T%d, T%d, %d", r1, r3, imm(13))
			}
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "l%d:\t", n)
	if rng.Intn(2) == 0 {
		b.WriteString("HALT\n")
	} else {
		r1 := rng.Intn(8) + 1
		fmt.Fprintf(&b, "LDA T%d, stop\nstop:\tJALR T%d, T%d, 0\n", r1, rng.Intn(9), r1)
	}
	return b.String()
}

// TestPipelineMatchesFunctionalRandom is the core equivalence property:
// on random programs the pipelined core must finish with exactly the same
// architectural state as the functional reference.
func TestPipelineMatchesFunctionalRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		src := buildRandomProgram(rng, 40)
		p, err := asm.Assemble(src)
		if err != nil {
			t.Fatalf("trial %d assemble: %v\n%s", trial, err, src)
		}
		f := NewFunctional(Config{})
		pl := NewPipeline(Config{})
		if err := f.S.Load(p); err != nil {
			t.Fatal(err)
		}
		if err := pl.S.Load(p); err != nil {
			t.Fatal(err)
		}
		fres, err := f.Run()
		if err != nil {
			t.Fatalf("trial %d functional: %v\n%s", trial, err, src)
		}
		pres, err := pl.Run()
		if err != nil {
			t.Fatalf("trial %d pipeline: %v\n%s", trial, err, src)
		}
		if f.S.TRF != pl.S.TRF {
			t.Fatalf("trial %d: TRF mismatch\nfunc: %v\npipe: %v\n%s",
				trial, f.S.TRF, pl.S.TRF, src)
		}
		fm, pm := f.S.TDM.Snapshot(), pl.S.TDM.Snapshot()
		for i := range fm {
			if fm[i] != pm[i] {
				t.Fatalf("trial %d: TDM[%d] mismatch: %v vs %v", trial, i, fm[i], pm[i])
			}
		}
		if fres.Retired != pres.Retired {
			t.Fatalf("trial %d: retired %d vs %d", trial, fres.Retired, pres.Retired)
		}
		// Cycle accounting invariant: fill (4) + one per instruction +
		// one per stall + one per squashed slot.
		want := pres.Retired + pres.StallsLoad + pres.StallsBranch + 4
		if pres.Cycles != want {
			t.Fatalf("trial %d: cycles %d, want %d (retired=%d loads=%d branch=%d)",
				trial, pres.Cycles, want, pres.Retired, pres.StallsLoad, pres.StallsBranch)
		}
	}
}

func TestPipelineLoadUseStall(t *testing.T) {
	// LOAD immediately followed by a consumer: exactly one stall.
	_, res := runPipe(t, `
		.data
		.org 5
	v:	.word 99
		.text
		LDA T1, v
		LOAD T2, T1, 0
		ADD T3, T2      ; load-use
		HALT
	`)
	if res.StallsLoad != 1 {
		t.Errorf("StallsLoad = %d, want 1", res.StallsLoad)
	}
	// With one spacer instruction: no stall.
	_, res = runPipe(t, `
		.data
		.org 5
	v:	.word 99
		.text
		LDA T1, v
		LOAD T2, T1, 0
		ADDI T5, 1
		ADD T3, T2
		HALT
	`)
	if res.StallsLoad != 0 {
		t.Errorf("spaced StallsLoad = %d, want 0", res.StallsLoad)
	}
}

func TestPipelineLoadUseValueCorrect(t *testing.T) {
	pl, _ := runPipe(t, `
		.data
		.org 5
	v:	.word 1234
		.text
		LDA T1, v
		LOAD T2, T1, 0
		ADDI T2, 1
		HALT
	`)
	if got := pl.S.Reg(2).Int(); got != 1235 {
		t.Errorf("load-use value = %d, want 1235", got)
	}
}

func TestPipelineBranchCosts(t *testing.T) {
	// A taken branch squashes one slot; not-taken costs nothing.
	_, res := runPipe(t, `
		LDI T1, 0
		BEQ T1, 0, skip  ; taken
		ADDI T2, 1
	skip:
		BEQ T1, 1, never ; not taken
		ADDI T3, 1
	never:
		HALT
	`)
	// Redirects: the taken BEQ and the implicit none else; HALT's own
	// detection does not squash (fetch simply stops).
	if res.StallsBranch != 1 {
		t.Errorf("StallsBranch = %d, want 1", res.StallsBranch)
	}
	if res.Taken != 1 || res.NotTaken != 1 {
		t.Errorf("taken/not = %d/%d, want 1/1", res.Taken, res.NotTaken)
	}
}

func TestPipelineBranchAfterCOMPNoStall(t *testing.T) {
	// §IV-B: forwarding the one-trit condition lets a branch follow its
	// COMP immediately with no stall.
	_, res := runPipe(t, `
		LDI T1, 5
		LDI T2, 3
		MV T3, T1
		COMP T3, T2
		BEQ T3, 1, yes   ; depends on COMP directly above
		ADDI T4, 1
	yes:
		HALT
	`)
	if res.StallsLoad != 0 {
		t.Errorf("COMP→BEQ caused %d load stalls, want 0", res.StallsLoad)
	}
	// Only the taken branch costs a slot.
	if res.StallsBranch != 1 {
		t.Errorf("StallsBranch = %d, want 1", res.StallsBranch)
	}
}

func TestPipelineForwardingChain(t *testing.T) {
	// Back-to-back dependent ALU ops must not stall and must compute
	// correctly through the forwarding network.
	pl, res := runPipe(t, `
		LDI T1, 1
		ADD T1, T1      ; 2
		ADD T1, T1      ; 4
		ADD T1, T1      ; 8
		ADD T1, T1      ; 16
		HALT
	`)
	if got := pl.S.Reg(1).Int(); got != 16 {
		t.Errorf("chain = %d, want 16", got)
	}
	if res.StallsLoad != 0 {
		t.Errorf("ALU chain stalled %d times", res.StallsLoad)
	}
}

func TestPipelineCPIBounds(t *testing.T) {
	// A long stall-free straight-line program approaches CPI 1.
	var b strings.Builder
	for i := 0; i < 500; i++ {
		fmt.Fprintf(&b, "ADDI T1, 1\n")
	}
	b.WriteString("HALT\n")
	_, res := runPipe(t, b.String())
	if cpi := res.CPI(); cpi > 1.02 {
		t.Errorf("straight-line CPI = %f, want ≈1", cpi)
	}
}

func TestPipelineLoopCycles(t *testing.T) {
	// The counting loop: per iteration 5 instructions + 1 taken-branch
	// squash (except the final fall-through).
	_, res := runPipe(t, `
		LDI T1, 0
		LDI T2, 1
		LDI T3, 10
	loop:
		ADD T1, T2
		ADDI T2, 1
		MV T4, T2
		COMP T4, T3
		BNE T4, 1, loop
		HALT
	`)
	wantRetired := uint64(6 + 10*5) // 5 setup (3 LDI = 6 words) + 50 loop
	if res.Retired != wantRetired {
		t.Errorf("retired = %d, want %d", res.Retired, wantRetired)
	}
	if res.StallsBranch != 9 {
		t.Errorf("branch squashes = %d, want 9", res.StallsBranch)
	}
	if res.StallsLoad != 0 {
		t.Errorf("load stalls = %d, want 0", res.StallsLoad)
	}
}

func TestResultCPIZeroSafe(t *testing.T) {
	var r Result
	if r.CPI() != 0 {
		t.Error("CPI of empty result should be 0")
	}
}
