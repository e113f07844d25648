package sim

import (
	"context"
	"fmt"

	"repro/internal/isa"
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
//
// The loop keeps the PC as an index into the predecoded image, converting
// it to packed form only on return and for a fetch outside the image, and
// each opcode writes the State directly. It counts only retired
// instructions, load-use stalls, taken branches, non-halt jumps and the
// per-opcode mix; the rest of the Result is derived from them on return.
// evaluate is the Pipeline's datapath alone: the differential tests, not
// shared code, tie the two cores together.
func (f *Functional) run(ctx context.Context, timed bool) (Result, error) {
	s := f.S
	s.predecode()
	budget := uint64(f.cfg.withDefaults().MaxSteps)
	image, trf := s.image, &s.TRF
	pc := uint(s.PC.UIndex())
	var (
		n, stallsLoad, taken, jumps, elapsed uint64
		byOp                                 [isa.NumOps]uint64
		loaded                               uint16 // TRF bit of the previous instruction's LOAD destination
		halt                                 *slot
		err                                  error
	)
loop:
	for {
		if elapsed = n; timed {
			elapsed += stallsLoad + taken + jumps
		}
		if elapsed >= budget {
			err = ErrNoHalt{int(budget)}
			break
		}
		if n%pollEvery == 0 {
			if err = ctx.Err(); err != nil {
				err = fmt.Errorf("sim: at PC=%d: %w", ternary.PackedFromInt(int(pc)).Int(), err)
				break
			}
		}
		var d *slot
		if pc < uint(len(image)) && image[pc].ok {
			d = &image[pc]
		} else if d, err = s.fetch(ternary.PackedFromInt(int(pc))); err != nil {
			break
		}
		in := &d.in
		if d.reads&loaded != 0 {
			stallsLoad++
			elapsed++
		}
		loaded = 0
		next := d.seqIdx
		switch in.Op {
		case isa.MV:
			trf[in.Ta] = trf[in.Tb]
		case isa.PTI:
			trf[in.Ta] = trf[in.Tb].Pti()
		case isa.NTI:
			trf[in.Ta] = trf[in.Tb].Nti()
		case isa.STI:
			trf[in.Ta] = trf[in.Tb].Sti()
		case isa.AND:
			trf[in.Ta] = trf[in.Ta].And(trf[in.Tb])
		case isa.OR:
			trf[in.Ta] = trf[in.Ta].Or(trf[in.Tb])
		case isa.XOR:
			trf[in.Ta] = trf[in.Ta].Xor(trf[in.Tb])
		case isa.ADD:
			trf[in.Ta] = trf[in.Ta].Add(trf[in.Tb])
		case isa.SUB:
			trf[in.Ta] = trf[in.Ta].Sub(trf[in.Tb])
		case isa.SR:
			trf[in.Ta] = trf[in.Ta].ShiftRight(ternary.ShiftAmount(trf[in.Tb].Field(0, 1)))
		case isa.SL:
			trf[in.Ta] = trf[in.Ta].ShiftLeft(ternary.ShiftAmount(trf[in.Tb].Field(0, 1)))
		case isa.COMP:
			trf[in.Ta] = trf[in.Ta].Comp(trf[in.Tb])
		case isa.ANDI:
			trf[in.Ta] = trf[in.Ta].And(d.imm)
		case isa.ADDI:
			trf[in.Ta] = trf[in.Ta].Add(d.imm)
		case isa.SRI:
			trf[in.Ta] = trf[in.Ta].ShiftRight(ternary.ShiftAmount(in.Imm))
		case isa.SLI:
			trf[in.Ta] = trf[in.Ta].ShiftLeft(ternary.ShiftAmount(in.Imm))
		case isa.LUI:
			trf[in.Ta] = d.imm.ShiftLeft(5) // see evaluate
		case isa.LI:
			ta := trf[in.Ta]
			trf[in.Ta] = ternary.Packed{N: ta.N&^liLoMask | d.imm.N, P: ta.P&^liLoMask | d.imm.P}
		case isa.BEQ, isa.BNE:
			if (trf[in.Tb].Trit(0) == in.B) == (in.Op == isa.BEQ) {
				if next = d.targetIdx; next != pc {
					taken++
				}
			}
		case isa.JAL:
			if next = d.targetIdx; next != pc {
				trf[in.Ta] = d.seq
				jumps++
			}
		case isa.JALR:
			if next = uint(trf[in.Tb].Add(d.imm).UIndex()); next != pc {
				trf[in.Ta] = d.seq
				jumps++
			}
		case isa.LOAD:
			var v ternary.Packed
			if v, err = s.TDM.ReadP(trf[in.Tb].Add(d.imm).UIndex()); err != nil {
				err = s.tdmFault(d, pc, err, timed, elapsed, budget)
				break loop
			}
			trf[in.Ta] = v
			loaded = 1 << in.Ta
		case isa.STORE:
			if err = s.TDM.WriteP(trf[in.Tb].Add(d.imm).UIndex(), trf[in.Ta]); err != nil {
				err = s.tdmFault(d, pc, err, timed, elapsed, budget)
				break loop
			}
		}
		if next == pc { // the halt idiom: a transfer to itself
			halt = d
			break
		}
		byOp[in.Op]++
		n++
		pc = next
	}

	s.PC = ternary.PackedFromInt(int(pc))
	res := Result{
		Retired:      n,
		StallsLoad:   stallsLoad,
		StallsBranch: taken + jumps,
		Taken:        taken,
		NotTaken:     byOp[isa.BEQ] + byOp[isa.BNE] - taken,
		Jumps:        jumps,
		Loads:        byOp[isa.LOAD],
		Stores:       byOp[isa.STORE],
	}
	if halt != nil {
		// The halt retires like any other instruction, so its opcode
		// counts toward the mix — otherwise ΣOpMix < 1 and the
		// switching-activity profile under-reports the datapath — but
		// not as a taken branch or jump.
		byOp[halt.in.Op]++
		res.Retired++
		if elapsed++; timed && elapsed+4 > budget {
			err = ErrNoHalt{int(budget)}
		} else {
			res.HaltPC = int(pc)
			res.Cycles = elapsed + 4
		}
	}
	res.ByOp = byOp
	for op, k := range byOp {
		res.ByCategory[isa.Op(op).Category()] += k
	}
	if _, ok := err.(ErrNoHalt); ok && timed {
		res.Cycles = budget
	}
	return res, err
}

// tdmFault is the error that ends a run when the LOAD or STORE d at pc
// faults on TDM, with elapsed cycles counted before d leaves ID. A timed
// run whose budget ends before d's MEM cycle stops with ErrNoHalt, as the
// Pipeline does, unless the Pipeline's fetch of a later instruction
// faults first.
func (s *State) tdmFault(d *slot, pc uint, err error, timed bool, elapsed, budget uint64) error {
	if timed && elapsed+4 > budget && !s.faultsInFetch(d, evaluate(d, s.TRF[d.in.Ta], s.TRF[d.in.Tb]), elapsed+2, budget) {
		return ErrNoHalt{int(budget)}
	}
	return fmt.Errorf("sim: at PC=%d: %w", ternary.PackedFromInt(int(pc)).Int(), err)
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
