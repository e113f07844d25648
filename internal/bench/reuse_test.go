package bench

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/asm"
	"repro/internal/engine"
	"repro/internal/isa"
	"repro/internal/rv32"
	"repro/internal/sim"
	"repro/internal/ternary"
	"repro/internal/xlate"
	"repro/internal/xlate/randprog"
)

// reuseWorkloads is the paper suite plus random structured programs.
func reuseWorkloads() []Workload {
	ws := slices.Clone(Workloads)
	g := randprog.New(1414)
	for i := 0; i < 6; i++ {
		ws = append(ws, Workload{Name: fmt.Sprintf("random-%d", i), Source: g.Generate(12), Iterations: 1})
	}
	return ws
}

// compileART9 is the job's path from RV32 source to the ART-9 program and
// its initial TDM contents.
func compileART9(t *testing.T, w Workload) (*asm.Program, map[int]ternary.Word) {
	t.Helper()
	rvProg, err := rv32.Assemble(w.Source)
	if err != nil {
		t.Fatal(err)
	}
	out, err := xlate.Translate(rvProg, xlate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Assemble(out.Asm)
	if err != nil {
		t.Fatal(err)
	}
	return prog, xlate.DataImage(rvProg)
}

// machineState is everything a run leaves behind on a core.
type machineState struct {
	res sim.Result
	pc  ternary.Packed
	trf [isa.NumRegs]ternary.Word
	tdm []ternary.Word
}

func snapshot(res sim.Result, s *sim.State) machineState {
	m := machineState{res: res, pc: s.PC, tdm: s.TDM.Snapshot()}
	for r := range m.trf {
		m.trf[r] = s.TRF[r].Unpack()
	}
	return m
}

// runCore loads prog and data into s and runs one core over it.
func runCore(t *testing.T, core string, s *sim.State, prog *asm.Program, data map[int]ternary.Word) machineState {
	t.Helper()
	if err := s.Load(prog); err != nil {
		t.Fatal(err)
	}
	if err := s.TDM.SetAll(data); err != nil {
		t.Fatal(err)
	}
	var res sim.Result
	var err error
	if core == "functional" {
		res, err = (&sim.Functional{S: s}).Run()
	} else {
		res, err = (&sim.Pipeline{S: s}).Run()
	}
	if err != nil {
		t.Fatal(err)
	}
	return snapshot(res, s)
}

// TestMachineReuseMatchesFresh runs every program on one shared State,
// twice through in opposite orders so each follows a different program
// and also reruns over its own residue, and compares the Outcome, each
// core's full Result and each core's final PC, TRF and TDM with runs on
// fresh States.
func TestMachineReuseMatchesFresh(t *testing.T) {
	ctx := context.Background()
	ws := reuseWorkloads()
	order := append(slices.Clone(ws), ws...)
	slices.Reverse(order[len(ws):])
	shared := sim.NewState(sim.Config{})
	for _, w := range order {
		fresh := sim.NewState(sim.Config{})
		want, err := runOn(ctx, w, xlate.Options{}, fresh)
		if err != nil {
			t.Fatalf("%s fresh: %v", w.Name, err)
		}
		got, err := runOn(ctx, w, xlate.Options{}, shared)
		if err != nil {
			t.Fatalf("%s reused: %v", w.Name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: reused Outcome %+v, fresh %+v", w.Name, got, want)
		}
		if !reflect.DeepEqual(snapshot(sim.Result{}, shared), snapshot(sim.Result{}, fresh)) {
			t.Errorf("%s: reused machine's final state differs from a fresh one", w.Name)
		}

		prog, data := compileART9(t, w)
		for _, core := range []string{"functional", "pipelined"} {
			want := runCore(t, core, sim.NewState(sim.Config{}), prog, data)
			got := runCore(t, core, shared, prog, data)
			if got.res != want.res {
				t.Errorf("%s/%s: reused Result %+v, fresh %+v", w.Name, core, got.res, want.res)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: reused final PC/TRF/TDM differ from a fresh core's", w.Name, core)
			}
		}
	}
}

// TestMachineReuseAcrossWorkers runs three interleaved rounds of every
// program through a four-worker engine, so pooled machines pass between
// worker goroutines, and compares each Outcome with a fresh-machine run.
func TestMachineReuseAcrossWorkers(t *testing.T) {
	ctx := context.Background()
	ws := reuseWorkloads()
	want := map[string]*Outcome{}
	for _, w := range ws {
		o, err := runOn(ctx, w, xlate.Options{}, sim.NewState(sim.Config{}))
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		want[w.Name] = o
	}

	var jobs []engine.Job
	for round := 0; round < 3; round++ {
		for i := range ws {
			w := ws[(i+3*round)%len(ws)]
			jobs = append(jobs, engine.Job{
				ID: fmt.Sprintf("%s#%d", w.Name, round),
				Fn: func(ctx context.Context) (any, error) { return RunCtx(ctx, w, xlate.Options{}) },
			})
		}
	}
	eng := engine.New(engine.Options{Workers: 4})
	defer eng.Close()
	results, err := eng.Run(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(jobs) {
		t.Fatalf("%d results for %d jobs", len(results), len(jobs))
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.ID, r.Err)
		}
		o := r.Value.(*Outcome)
		if !reflect.DeepEqual(o, want[o.Workload.Name]) {
			t.Errorf("%s: pooled Outcome %+v, fresh %+v", r.ID, o, want[o.Workload.Name])
		}
	}
}
