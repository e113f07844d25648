package sim

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/ternary"
)

// Pipeline is the cycle-accurate 5-stage pipelined ART-9 core of §IV-B and
// Fig. 4 of the paper: IF → ID → EX → MEM → WB with
//
//   - a hazard detection unit (HDU) in ID comparing adjacent instructions,
//   - full forwarding into the operand read (EX results same-cycle for the
//     ID-stage branch-condition/target datapath, MEM and WB results via the
//     forwarding multiplexers), so ALU-use hazards never stall,
//   - branch-target calculation and condition checking in ID, redirecting
//     the PC directly, so a taken control transfer squashes exactly the one
//     slot behind it,
//   - stalls inserted only for load-use hazards and taken transfers,
//     matching the paper's "we only observe the hardware-inserted stall
//     cycles when there exist load-use data hazards and taken branches".
//
// The model executes real values through the stage latches; tests verify
// that its final architectural state equals the functional core's. A
// Pipeline literal over an existing State, Pipeline{S: s}, runs s with the
// default step budget.
type Pipeline struct {
	S   *State
	cfg Config

	// Trace, if non-nil, receives a one-line description of every cycle.
	Trace func(cycle uint64, line string)
}

// NewPipeline builds a pipelined core over a fresh state.
func NewPipeline(cfg Config) *Pipeline {
	return &Pipeline{S: NewState(cfg), cfg: cfg.withDefaults()}
}

// latchIFID carries a fetched instruction into decode.
type latchIFID struct {
	valid bool
	pc    ternary.Packed
	d     *slot
}

// latch carries an instruction past ID, through ID/EX, EX/MEM and MEM/WB,
// with the effect ID computed from its forwarded operands. EX passes the
// effect on unchanged; MEM fills val for loads.
type latch struct {
	valid bool
	d     *slot
	eff   effect
	halt  bool // this instruction is the halt transfer
}

// Run executes the loaded program cycle by cycle until the halt
// instruction leaves writeback.
func (p *Pipeline) Run() (Result, error) {
	var (
		res                Result
		ifid               latchIFID
		idex, exmem, memwb latch

		fetchPC   = p.S.PC
		stopFetch bool // halt observed in ID: stop issuing new work

		// Pre-shift snapshots for the trace: the instruction each stage
		// is working on THIS cycle, rendered at the cycle's end.
		idS            latchIFID
		exS, memS, wbS latch
	)
	p.S.predecode()
	budget := p.cfg.withDefaults().MaxSteps

	for cycle := 0; cycle < budget; cycle++ {
		res.Cycles++
		if p.Trace != nil {
			idS, exS, memS, wbS = ifid, idex, exmem, memwb
		}

		// ---- WB: retire memwb (first half of cycle: write TRF).
		if memwb.valid {
			e := memwb.eff
			if memwb.halt {
				// The halt idiom has no architectural effect beyond
				// parking the PC at its own address, but it retires
				// like any other instruction, so its opcode counts
				// toward the mix (ΣOpMix must reach 1).
				res.Retired++
				res.ByCategory[memwb.d.in.Op.Category()]++
				res.ByOp[memwb.d.in.Op]++
				p.S.PC = e.nextPC
				res.HaltPC = e.nextPC.UIndex()
				return res, nil
			}
			if e.writesReg {
				p.S.TRF[e.reg] = e.val
			}
			res.Retired++
			res.ByCategory[memwb.d.in.Op.Category()]++
			res.ByOp[memwb.d.in.Op]++
			if e.branch {
				if e.taken {
					res.Taken++
				} else {
					res.NotTaken++
				}
			} else if e.taken {
				res.Jumps++
			}
		}

		// ---- MEM: TDM access for exmem.
		if exmem.valid {
			e := &exmem.eff
			if e.isLoad {
				v, err := p.S.TDM.ReadP(e.addr.UIndex())
				if err != nil {
					return res, fmt.Errorf("sim: MEM: %w", err)
				}
				e.val = v
				res.Loads++
			}
			if e.isStore {
				if err := p.S.TDM.WriteP(e.addr.UIndex(), e.store); err != nil {
					return res, fmt.Errorf("sim: MEM: %w", err)
				}
				res.Stores++
			}
		}
		memwb = exmem

		// ---- EX: the effect ID computed from the resolved operands.
		exmem, idex = idex, latch{}

		// ---- ID: hazard detection, forwarding, branch resolution.
		redirect := false
		var redirectPC ternary.Packed
		stalled := false
		if ifid.valid {
			in := ifid.d.in
			// Load-use hazard: the instruction now entering EX (exmem
			// was just filled from idex — but that is this cycle's EX;
			// the HDU compares ID against the instruction in EX).
			if exmem.valid && exmem.eff.isLoad && exmem.eff.writesReg {
				r := exmem.eff.reg
				if (in.Op.ReadsTa() && in.Ta == r) || (in.Op.ReadsTb() && in.Tb == r) {
					stalled = true
					res.StallsLoad++
				}
			}
			if !stalled {
				ta := p.forward(in.Ta, exmem, memwb)
				tb := p.forward(in.Tb, exmem, memwb)
				e := evaluate(ifid.d, ta, tb)
				halt := e.isHalt(ifid.pc)
				idex = latch{valid: true, d: ifid.d, eff: e, halt: halt}
				if halt {
					stopFetch = true
				} else if e.taken {
					redirect = true
					redirectPC = e.nextPC
					res.StallsBranch++
				}
			}
		}

		// ---- IF: fetch into ifid unless stalled or draining.
		var ifS latchIFID // what IF fetched this cycle (for the trace)
		if stalled {
			// ifid retained; the bubble naturally flows from idex being
			// empty next cycle.
		} else if redirect {
			ifid = latchIFID{} // squash the wrong-path fetch
			fetchPC = redirectPC
		} else if stopFetch {
			ifid = latchIFID{}
		} else {
			d := p.S.slotAt(fetchPC)
			if d == nil {
				w, err := p.S.TIM.ReadP(fetchPC.UIndex())
				if err != nil {
					return res, fmt.Errorf("sim: IF at PC=%d: %w", fetchPC.Int(), err)
				}
				sl, err := decodeAt(w, fetchPC)
				if err != nil {
					return res, fmt.Errorf("sim: IF at PC=%d: %w", fetchPC.Int(), err)
				}
				d = &sl
			}
			ifid = latchIFID{valid: true, pc: fetchPC, d: d}
			fetchPC = d.seq
			ifS = ifid
		}

		if p.Trace != nil {
			p.Trace(res.Cycles, p.traceLine(ifS, idS, exS, memS, wbS, stalled, redirect))
		}
	}
	return res, ErrNoHalt{budget}
}

// forward resolves the value of register r as seen by the instruction in
// ID: the newest in-flight producer wins (EX this cycle, then MEM, then
// WB); otherwise the register file. The load-use stall rule guarantees
// that an EX-stage LOAD is never selected here.
func (p *Pipeline) forward(r isa.Reg, exmem, memwb latch) ternary.Packed {
	if exmem.valid && exmem.eff.writesReg && exmem.eff.reg == r && !exmem.eff.isLoad {
		return exmem.eff.val
	}
	if memwb.valid && memwb.eff.writesReg && memwb.eff.reg == r {
		return memwb.eff.val
	}
	return p.S.TRF[r]
}

// traceLine renders one cycle of the schedule. Every column shows the
// instruction the stage worked on during this cycle — the pre-shift latch
// contents snapshotted at the top of the loop, plus the instruction IF
// fetched — so the five columns line up with the textbook pipeline diagram
// rather than trailing a stage behind.
func (p *Pipeline) traceLine(ifS, idS latchIFID, exS, memS, wbS latch, stalled, redirect bool) string {
	stage := func(valid bool, d *slot) string {
		if !valid {
			return "-"
		}
		return d.in.String()
	}
	flags := ""
	if stalled {
		flags += " [stall]"
	}
	if redirect {
		flags += " [redirect]"
	}
	return fmt.Sprintf("IF:%-18s ID:%-18s EX:%-18s MEM:%-18s WB:%-18s%s",
		stage(ifS.valid, ifS.d), stage(idS.valid, idS.d),
		stage(exS.valid, exS.d), stage(memS.valid, memS.d),
		stage(wbS.valid, wbS.d), flags)
}
