package sim

import (
	"context"
	"fmt"

	"repro/internal/ternary"
)

// Functional is the instruction-accurate reference core: one instruction
// per step, no micro-architecture. It defines the architectural semantics
// against which the pipelined core is verified.
//
// A Functional literal over an existing State, Functional{S: s}, runs s
// with the default step budget.
type Functional struct {
	S   *State
	cfg Config
}

// NewFunctional builds a functional core over a fresh state.
func NewFunctional(cfg Config) *Functional {
	return &Functional{S: NewState(cfg), cfg: cfg.withDefaults()}
}

// pollEvery is the number of instructions a run retires between checks
// of its context.
const pollEvery = 4096

// Run executes until halt or the step budget is exhausted. Every
// instruction takes one step, so Cycles == Retired and both stall counts
// are zero.
func (f *Functional) Run() (Result, error) {
	res, err := f.run(context.Background(), false)
	res.Cycles, res.StallsLoad, res.StallsBranch = res.Retired, 0, 0
	return res, err
}

// RunTimed executes like Run and reports the timing of the 5-stage
// Pipeline: it returns the Result Pipeline.Run returns for the same
// program, with cycles = retired + load-use stalls + taken non-halt
// transfers + 4 (the pipeline fill). The budget is charged in cycles, so
// RunTimed returns ErrNoHalt exactly when the Pipeline would, and it
// faults whenever the Pipeline faults. The final PC, TRF and TDM of a
// halted run equal the Pipeline's. The context is polled every pollEvery
// instructions; a cancelled run returns an error wrapping ctx.Err().
func (f *Functional) RunTimed(ctx context.Context) (Result, error) {
	return f.run(ctx, true)
}

// run is the one step loop of Run and RunTimed. It counts the Pipeline's
// stalls in both modes; timed selects the cycle budget and Cycles.
//
// In Pipeline cycles, with n the retired instructions plus the stalls
// before instruction j, j is fetched in cycle n+1, leaves ID in cycle
// n+2 (n now counting j's own load-use stall), reaches MEM in n+4 and,
// if it is the halt, WB in n+5.
func (f *Functional) run(ctx context.Context, timed bool) (res Result, err error) {
	s := f.S
	s.predecode()
	budget := uint64(f.cfg.withDefaults().MaxSteps)
	elapsed := func() uint64 {
		if timed {
			return res.Retired + res.StallsLoad + res.StallsBranch
		}
		return res.Retired
	}
	noHalt := func() (Result, error) {
		if timed {
			res.Cycles = budget
		}
		return res, ErrNoHalt{int(budget)}
	}
	var loaded uint16 // TRF bit of the previous instruction's LOAD destination
	for {
		if elapsed() >= budget {
			return noHalt()
		}
		if res.Retired%pollEvery == 0 {
			if err := ctx.Err(); err != nil {
				return res, fmt.Errorf("sim: at PC=%d: %w", s.PC.Int(), err)
			}
		}
		d, err := s.fetch(s.PC)
		if err != nil {
			return res, err
		}
		in := &d.in
		if d.reads&loaded != 0 {
			res.StallsLoad++
		}
		e := evaluate(d, s.TRF[in.Ta], s.TRF[in.Tb])
		if e.isLoad || e.isStore {
			if err := s.access(&e); err != nil {
				if timed && elapsed()+4 > budget && !s.faultsInFetch(d, e, elapsed()+2, budget) {
					return noHalt()
				}
				return res, fmt.Errorf("sim: at PC=%d: %w", s.PC.Int(), err)
			}
			if e.isLoad {
				res.Loads++
			} else {
				res.Stores++
			}
		}
		// The halt retires like any other instruction, so its opcode
		// counts toward the mix — otherwise ΣOpMix < 1 and the
		// switching-activity profile under-reports the datapath.
		res.ByCategory[in.Op.Category()]++
		res.ByOp[in.Op]++
		res.Retired++
		if e.isHalt(s.PC) {
			res.HaltPC = s.PC.UIndex()
			if timed {
				if elapsed()+4 > budget {
					return noHalt()
				}
				res.Cycles = elapsed() + 4
			}
			return res, nil
		}
		if e.writesReg {
			s.TRF[e.reg] = e.val
		}
		if e.branch {
			if e.taken {
				res.Taken++
			} else {
				res.NotTaken++
			}
		} else if e.taken {
			res.Jumps++
		}
		if e.taken {
			res.StallsBranch++
		}
		loaded = 0
		if e.isLoad {
			loaded = 1 << e.reg
		}
		s.PC = e.nextPC
	}
}

// fetch returns the slot of the instruction at pc, reading and decoding
// TIM on the spot when the image does not hold it.
func (s *State) fetch(pc ternary.Packed) (*slot, error) {
	if d := s.slotAt(pc); d != nil {
		return d, nil
	}
	w, err := s.TIM.ReadP(pc.UIndex())
	if err != nil {
		return nil, fmt.Errorf("sim: fetch at PC=%d: %w", pc.Int(), err)
	}
	sl, err := decodeAt(w, pc)
	if err != nil {
		return nil, fmt.Errorf("sim: at PC=%d: %w", pc.Int(), err)
	}
	return &sl, nil
}

// access performs the TDM read or write of the LOAD or STORE effect e.
func (s *State) access(e *effect) (err error) {
	if e.isLoad {
		e.val, err = s.TDM.ReadP(e.addr.UIndex())
		return err
	}
	return s.TDM.WriteP(e.addr.UIndex(), e.store)
}

// faultsInFetch reports whether the Pipeline faults within budget when
// the TDM fault of the memory instruction d, with effect e, leaving ID in
// cycle id, would reach MEM only after the budget. Before that MEM cycle
// the Pipeline fetches the instruction after d, in cycle id, and unless
// that one stalls behind d's load, jumps or halts, the one after it, in
// cycle id+1. A fault in either fetch ends its run first.
func (s *State) faultsInFetch(d *slot, e effect, id, budget uint64) bool {
	if id > budget {
		return false
	}
	next, err := s.fetch(d.seq)
	if err != nil {
		return true
	}
	if id+1 > budget || e.isLoad && next.reads&(1<<e.reg) != 0 {
		return false
	}
	if evaluate(next, s.TRF[next.in.Ta], s.TRF[next.in.Tb]).taken {
		return false
	}
	_, err = s.fetch(next.seq)
	return err != nil
}
