package sim

import (
	"math"
	"testing"

	"repro/internal/isa"
)

func TestOpMix(t *testing.T) {
	_, res := runPipe(t, `
		LDI T1, 1
		ADD T1, T1
		ADD T1, T1
		STORE T1, T0, 5
		LOAD T2, T0, 5
		HALT
	`)
	mix := res.OpMix()
	// LDI 1 expands to LUI+LI (2), plus 2 ADD, 1 STORE, 1 LOAD, and the
	// halt (a retired JAL) = 7 retired, all op-counted.
	if res.ByOp[isa.ADD] != 2 {
		t.Errorf("ADD count = %d, want 2", res.ByOp[isa.ADD])
	}
	if res.ByOp[isa.LOAD] != 1 || res.ByOp[isa.STORE] != 1 {
		t.Errorf("mem counts = %d/%d", res.ByOp[isa.LOAD], res.ByOp[isa.STORE])
	}
	if res.ByOp[isa.JAL] != 1 {
		t.Errorf("halt JAL count = %d, want 1", res.ByOp[isa.JAL])
	}
	// Every retired instruction is op-counted, so the fractions must sum
	// to exactly 1 — the switching-activity profile covers the whole run.
	sum := 0.0
	for _, f := range mix {
		sum += f
	}
	if math.Abs(sum-1.0) > 1e-9 {
		t.Errorf("mix fractions sum to %f, want 1", sum)
	}
	if math.Abs(mix[isa.ADD]-2.0/float64(res.Retired)) > 1e-9 {
		t.Errorf("ADD fraction = %f", mix[isa.ADD])
	}
}

// opMixPrograms are the golden programs of the op-mix checks.
var opMixPrograms = map[string]string{
	"straightline": `
		LDI T1, 7
		ADD T1, T1
		HALT
	`,
	"loop": `
		LDI T1, 0
		LDI T2, 1
		LDI T3, 5
	loop:	ADD T1, T2
		ADDI T2, 1
		MV T4, T2
		COMP T4, T3
		BNE T4, 1, loop
		HALT
	`,
	"memory": `
		LDI T1, 40
		STORE T1, T0, 3
		LOAD T2, T0, 3
		SUB T2, T1
		HALT
	`,
}

// TestOpMixSumsToOneOnGoldenPrograms asserts ΣOpMix == 1 and
// ΣByOp == ΣByCategory == Retired on a spread of programs, on both cores —
// the regression guard for the halt-retirement metric skew.
func TestOpMixSumsToOneOnGoldenPrograms(t *testing.T) {
	for name, src := range opMixPrograms {
		for core, run := range map[string]func(*testing.T, string) (*State, Result){
			"functional": func(t *testing.T, s string) (*State, Result) {
				f, r := runFunc(t, s)
				return f.S, r
			},
			"pipeline": func(t *testing.T, s string) (*State, Result) {
				p, r := runPipe(t, s)
				return p.S, r
			},
		} {
			_, res := run(t, src)
			sum := 0.0
			for _, f := range res.OpMix() {
				sum += f
			}
			if math.Abs(sum-1.0) > 1e-9 {
				t.Errorf("%s/%s: ΣOpMix = %f, want 1", core, name, sum)
			}
			var ops, cats uint64
			for _, n := range res.ByOp {
				ops += n
			}
			for _, n := range res.ByCategory {
				cats += n
			}
			if ops != res.Retired || cats != res.Retired {
				t.Errorf("%s/%s: ΣByOp=%d ΣByCategory=%d Retired=%d",
					core, name, ops, cats, res.Retired)
			}
		}
	}
}

func TestOpMixMatchesBetweenCores(t *testing.T) {
	src := `
		LDI T1, 0
		LDI T2, 1
		LDI T3, 9
	loop:	ADD T1, T2
		ADDI T2, 1
		MV T4, T2
		COMP T4, T3
		BNE T4, 1, loop
		HALT
	`
	_, fres := runFunc(t, src)
	_, pres := runPipe(t, src)
	if fres.ByOp != pres.ByOp {
		t.Errorf("op histograms differ between cores:\nfunc: %v\npipe: %v",
			fres.ByOp, pres.ByOp)
	}
}

func TestOpMixEmpty(t *testing.T) {
	var r Result
	if len(r.OpMix()) != 0 {
		t.Error("empty result produced a mix")
	}
}
