// Package sim is the cycle-accurate simulator of the hardware-level
// evaluation framework (§III-B, Fig. 3 of the paper). It provides two
// models of the ART-9 core:
//
//   - a functional reference core (Functional) that retires one
//     instruction per step with the architectural semantics of Table I, and
//   - the 5-stage pipelined core of §IV-B (Pipeline) with the hazard
//     detection unit, forwarding multiplexers and ID-stage branch
//     resolution, whose only stall sources are load-use hazards and taken
//     control transfers — exactly the behaviour the paper reports.
//
// Both consume the assembler's output and produce run results (cycle and
// instruction counts, stall accounting, final architectural state) that
// the performance estimator (internal/perf) turns into DMIPS figures.
//
// Because the Pipeline's stalls follow from the retired instruction
// stream, Functional.RunTimed reports the Pipeline's Result in one
// functional pass: cycles = retired + load-use stalls + taken non-halt
// transfers + 4. The evaluation paths run RunTimed; the Pipeline remains
// the cycle-by-cycle model behind art9-sim's trace and the oracle the
// differential tests pin RunTimed to.
//
// The two cores share no datapath code. The functional core's step loop
// indexes the predecoded image by an unsigned PC index, executes each
// opcode straight onto the State and derives most Result counters once,
// on return; evaluate and its effect record serve the Pipeline alone.
// The differential tests (oracle_test.go) and the FuzzCores target are
// what hold the two to the same semantics.
package sim

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/ternary"
	"repro/internal/tmem"
)

// DefaultMemWords is the default TIM/TDM size: the full 9-trit address
// space. The FPGA prototype of Table V uses 256-word memories instead.
const DefaultMemWords = tmem.MaxWords

// SemanticsVersion names the observable semantics of the simulators:
// the architectural behaviour of Table I, the pipeline's stall/flush
// accounting, and every counter a run result reports. The fleet-wide
// result cache folds it into its keys, so bump it whenever a simulator
// change can alter any reported metric for an unchanged program —
// otherwise peers built before and after the change would share keys
// and replay stale results into each other.
const SemanticsVersion = "art9-sim/v1"

// Config sizes a machine.
type Config struct {
	TIMWords int // instruction memory words; 0 → DefaultMemWords
	TDMWords int // data memory words; 0 → DefaultMemWords
	MaxSteps int // cycle/step budget before ErrNoHalt; 0 → 100M
}

func (c Config) withDefaults() Config {
	if c.TIMWords == 0 {
		c.TIMWords = DefaultMemWords
	}
	if c.TDMWords == 0 {
		c.TDMWords = DefaultMemWords
	}
	if c.MaxSteps == 0 {
		c.MaxSteps = 100_000_000
	}
	return c
}

// State is the architectural state of an ART-9 core: the program counter,
// the nine-entry ternary register file, and the two memories. PC and TRF
// hold the bit-plane form (ternary.Packed) so the datapath never converts
// per trit; Reg/SetReg expose the Word view at the boundary.
//
// A State may be reloaded and run any number of times. It keeps its
// predecoded instruction image across runs, so a reused State allocates
// only when a program is longer than any it ran before.
type State struct {
	PC  ternary.Packed
	TRF [isa.NumRegs]ternary.Packed
	TIM *tmem.Memory
	TDM *tmem.Memory

	// image is TIM[0:imageLen] predecoded, brought up to date with TIM
	// at the start of every run; imageLen is the length of the last
	// loaded program.
	image    []slot
	imageLen int
}

// NewState builds a zeroed machine with the given configuration.
func NewState(cfg Config) *State {
	cfg = cfg.withDefaults()
	return &State{
		TIM: tmem.New("TIM", cfg.TIMWords),
		TDM: tmem.New("TDM", cfg.TDMWords),
	}
}

// Load initialises TIM and TDM from an assembled program and resets PC and
// the register file. Both memories are Reset first, so reloading over a
// previously used State leaks nothing from the earlier program: no
// instruction or data word beyond the new image and no register value.
func (s *State) Load(p *asm.Program) error {
	s.TIM.Reset()
	s.TDM.Reset()
	s.TRF = [isa.NumRegs]ternary.Packed{}
	s.PC = ternary.Packed{}
	s.imageLen = 0
	if err := s.TIM.LoadImage(p.Words); err != nil {
		return err
	}
	s.imageLen = len(p.Words)
	return s.TDM.SetAll(p.Data)
}

// slot is one predecoded TIM word: the instruction plus every value that
// depends only on the word and its address, so a step never re-derives
// them.
type slot struct {
	word   ternary.Packed // the TIM word the slot was decoded from
	ok     bool           // false until built, and for a word that does not decode
	in     isa.Inst
	imm    ternary.Packed // in.Imm in packed form
	seq    ternary.Packed // the word's address plus one
	target ternary.Packed // address plus imm: the BEQ/BNE/JAL destination
	reads  uint16         // bit r set when the instruction reads TRF[r]

	// seqIdx and targetIdx are seq and target as TIM indices, the form
	// the functional core steps by.
	seqIdx, targetIdx uint
}

// decodeAt decodes the word w fetched from address pc.
func decodeAt(w, pc ternary.Packed) (slot, error) {
	in, err := isa.DecodePacked(w)
	if err != nil {
		return slot{word: w}, err
	}
	imm := ternary.PackedFromInt(in.Imm)
	var reads uint16
	if in.Op.ReadsTa() {
		reads |= 1 << in.Ta
	}
	if in.Op.ReadsTb() {
		reads |= 1 << in.Tb
	}
	seq, target := pc.Inc(), pc.Add(imm)
	return slot{word: w, ok: true, in: in, imm: imm, seq: seq, target: target, reads: reads,
		seqIdx: uint(seq.UIndex()), targetIdx: uint(target.UIndex())}, nil
}

// predecode brings the image up to date with TIM[0:imageLen]. A slot is
// rebuilt only when TIM no longer holds the word it was decoded from, so
// a program run on both cores, or rerun, over one State decodes once,
// and TIM written directly since the Load still executes as written.
func (s *State) predecode() {
	if s.imageLen > cap(s.image) {
		s.image = make([]slot, s.imageLen)
	}
	s.image = s.image[:s.imageLen]
	for i := range s.image {
		w, err := s.TIM.ReadP(i)
		if err != nil { // TIM replaced by a smaller memory since the Load
			s.image = s.image[:i]
			return
		}
		if d := &s.image[i]; !d.ok || d.word != w {
			*d, _ = decodeAt(w, ternary.PackedFromInt(i))
		}
	}
}

// slotAt returns the image slot of the instruction at pc, or nil when the
// image does not cover pc or its word does not decode; the cores then read
// and decode TIM on the spot, which reports the fault.
func (s *State) slotAt(pc ternary.Packed) *slot {
	if i := pc.UIndex(); i < len(s.image) && s.image[i].ok {
		return &s.image[i]
	}
	return nil
}

// Reg returns TRF[r].
func (s *State) Reg(r isa.Reg) ternary.Word { return s.TRF[r].Unpack() }

// SetReg sets TRF[r].
func (s *State) SetReg(r isa.Reg, w ternary.Word) { s.TRF[r] = ternary.Pack(w) }

// Result summarises a run.
type Result struct {
	Cycles       uint64 // total clock cycles (functional: == Retired)
	Retired      uint64 // architecturally completed instructions
	StallsLoad   uint64 // load-use stall cycles inserted by the HDU
	StallsBranch uint64 // squashed fetch slots after taken transfers
	Taken        uint64 // taken conditional branches
	NotTaken     uint64 // not-taken conditional branches
	Jumps        uint64 // JAL/JALR retired (excluding the halt)
	Loads        uint64
	Stores       uint64
	ByCategory   [4]uint64          // retired instructions per Table I category
	ByOp         [isa.NumOps]uint64 // retired instructions per opcode
	HaltPC       int                // address of the halt instruction
}

// OpMix returns the per-opcode dynamic instruction mix as fractions of
// retired instructions — the switching-activity profile of the datapath.
func (r Result) OpMix() map[isa.Op]float64 {
	m := make(map[isa.Op]float64)
	if r.Retired == 0 {
		return m
	}
	for op, n := range r.ByOp {
		if n > 0 {
			m[isa.Op(op)] = float64(n) / float64(r.Retired)
		}
	}
	return m
}

// CPI returns cycles per retired instruction.
func (r Result) CPI() float64 {
	if r.Retired == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(r.Retired)
}

// ErrNoHalt is returned when the step budget is exhausted.
type ErrNoHalt struct{ Steps int }

func (e ErrNoHalt) Error() string {
	return fmt.Sprintf("sim: no halt within %d steps (runaway program?)", e.Steps)
}

// effect is the architectural outcome of one instruction: the full Table I
// semantics evaluated against a read-only view of the state, the record
// the Pipeline carries through its stage latches. Memory reads are
// performed by the caller, in MEM.
type effect struct {
	writesReg bool
	reg       isa.Reg
	val       ternary.Packed // value to write (for LOAD: filled by caller)

	isLoad  bool
	isStore bool
	addr    ternary.Packed // memory address for LOAD/STORE
	store   ternary.Packed // value to store

	nextPC ternary.Packed
	taken  bool // control transfer redirected away from PC+1
	branch bool // conditional branch (for taken/not-taken stats)
}

// liLoMask covers the 5 low trit positions replaced by LI.
const liLoMask = 1<<5 - 1

// evaluate computes the effect of the predecoded instruction d with
// register read values ta and tb (already forwarded by the Pipeline as
// appropriate). Everything runs in the bit-plane form; each kernel is
// differentially pinned to the trit-serial reference in internal/ternary,
// so the architectural semantics of Table I are unchanged.
func evaluate(d *slot, ta, tb ternary.Packed) effect {
	in := &d.in
	e := effect{nextPC: d.seq}
	switch in.Op {
	case isa.MV:
		e.writesReg, e.reg, e.val = true, in.Ta, tb
	case isa.PTI:
		e.writesReg, e.reg, e.val = true, in.Ta, tb.Pti()
	case isa.NTI:
		e.writesReg, e.reg, e.val = true, in.Ta, tb.Nti()
	case isa.STI:
		e.writesReg, e.reg, e.val = true, in.Ta, tb.Sti()
	case isa.AND:
		e.writesReg, e.reg, e.val = true, in.Ta, ta.And(tb)
	case isa.OR:
		e.writesReg, e.reg, e.val = true, in.Ta, ta.Or(tb)
	case isa.XOR:
		e.writesReg, e.reg, e.val = true, in.Ta, ta.Xor(tb)
	case isa.ADD:
		e.writesReg, e.reg, e.val = true, in.Ta, ta.Add(tb)
	case isa.SUB:
		e.writesReg, e.reg, e.val = true, in.Ta, ta.Sub(tb)
	case isa.SR:
		n := ternary.ShiftAmount(tb.Field(0, 1))
		e.writesReg, e.reg, e.val = true, in.Ta, ta.ShiftRight(n)
	case isa.SL:
		n := ternary.ShiftAmount(tb.Field(0, 1))
		e.writesReg, e.reg, e.val = true, in.Ta, ta.ShiftLeft(n)
	case isa.COMP:
		e.writesReg, e.reg, e.val = true, in.Ta, ta.Comp(tb)
	case isa.ANDI:
		e.writesReg, e.reg, e.val = true, in.Ta, ta.And(d.imm)
	case isa.ADDI:
		e.writesReg, e.reg, e.val = true, in.Ta, ta.Add(d.imm)
	case isa.SRI:
		e.writesReg, e.reg, e.val = true, in.Ta, ta.ShiftRight(ternary.ShiftAmount(in.Imm))
	case isa.SLI:
		e.writesReg, e.reg, e.val = true, in.Ta, ta.ShiftLeft(ternary.ShiftAmount(in.Imm))
	case isa.LUI:
		// imm fits in 4 trits, so its packed form occupies bits 0..3;
		// shifting by 5 lands it in the upper field with zero fill.
		e.writesReg, e.reg, e.val = true, in.Ta, d.imm.ShiftLeft(5)
	case isa.LI:
		v := ternary.Packed{ // keep TRF[Ta][8:5], replace [4:0] (5-trit imm: bits 0..4 only)
			N: ta.N&^liLoMask | d.imm.N,
			P: ta.P&^liLoMask | d.imm.P,
		}
		e.writesReg, e.reg, e.val = true, in.Ta, v
	case isa.BEQ, isa.BNE:
		e.branch = true
		cond := tb.Trit(0) == in.B
		if in.Op == isa.BNE {
			cond = !cond
		}
		if cond {
			e.nextPC = d.target
			e.taken = true
		}
	case isa.JAL:
		e.writesReg, e.reg, e.val = true, in.Ta, d.seq
		e.nextPC = d.target
		e.taken = true
	case isa.JALR:
		e.writesReg, e.reg, e.val = true, in.Ta, d.seq
		e.nextPC = tb.Add(d.imm)
		e.taken = true
	case isa.LOAD:
		e.isLoad = true
		e.writesReg, e.reg = true, in.Ta
		e.addr = tb.Add(d.imm)
	case isa.STORE:
		e.isStore = true
		e.addr = tb.Add(d.imm)
		e.store = ta
	}
	return e
}

// isHalt reports whether the effect is a jump to the instruction's own
// address — the HALT idiom the assembler emits (JAL x, 0 or an absolute
// JALR to self).
func (e effect) isHalt(pc ternary.Packed) bool {
	return e.taken && e.nextPC == pc
}
