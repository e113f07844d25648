package sim

import (
	"strings"
	"testing"

	"repro/internal/asm"
)

// goldenScheduleSrc exercises both stall sources of the pipeline.
const goldenScheduleSrc = `
	LDI T1, 40       ; LUI + LI (2 words)
	STORE T1, T0, 5
	LOAD T2, T0, 5   ; load...
	ADD T2, T2       ; ...use → 1 stall
	BEQ T2, 0, skip  ; LST(80)... 80 = 10T01: LST=1 → not taken
	ADDI T3, 1
	skip:	JAL T4, end      ; taken → 1 squash
	ADDI T3, 1       ; skipped
	end:	HALT
`

// TestGoldenPipelineSchedule pins the exact cycle-by-cycle behaviour of
// the §IV-B pipeline on a program exercising both stall sources. If the
// microarchitecture changes, this fails loudly with the full schedule.
func TestGoldenPipelineSchedule(t *testing.T) {
	p, err := asm.Assemble(goldenScheduleSrc)
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPipeline(Config{})
	var trace []string
	pl.Trace = func(cycle uint64, line string) { trace = append(trace, line) }
	if err := pl.S.Load(p); err != nil {
		t.Fatal(err)
	}
	res, err := pl.Run()
	if err != nil {
		t.Fatal(err)
	}

	// Expected accounting: 9 retired (8 real + halt), 1 load-use stall,
	// 1 squash, fill 4 → cycles = 9 + 1 + 1 + 4 = 15.
	if res.Retired != 9 {
		t.Errorf("retired = %d, want 9", res.Retired)
	}
	if res.StallsLoad != 1 {
		t.Errorf("load stalls = %d, want 1", res.StallsLoad)
	}
	if res.StallsBranch != 1 {
		t.Errorf("squashes = %d, want 1", res.StallsBranch)
	}
	if res.Cycles != 15 {
		t.Errorf("cycles = %d, want 15\nschedule:\n%s",
			res.Cycles, strings.Join(trace, "\n"))
	}
	if res.NotTaken != 1 || res.Taken != 0 {
		t.Errorf("branch outcome %d/%d, want 0 taken / 1 not", res.Taken, res.NotTaken)
	}
	if got := pl.S.Reg(2).Int(); got != 80 {
		t.Errorf("T2 = %d, want 80", got)
	}
	if got := pl.S.Reg(3).Int(); got != 1 {
		t.Errorf("T3 = %d, want 1 (fall-through executed, post-JAL skipped)", got)
	}

	// The trace must show the stall (ID holds while EX bubbles) and the
	// redirect marker.
	joined := strings.Join(trace, "\n")
	if !strings.Contains(joined, "[stall]") {
		t.Error("schedule missing the load-use stall marker")
	}
	if !strings.Contains(joined, "[redirect]") {
		t.Error("schedule missing the taken-transfer redirect marker")
	}
}
