package rv32

// Trace-driven cycle models of the two baseline cores of Tables II/III.
// Both attach to the Machine as Observers, so a single architectural run
// produces every baseline's cycle count.

// CycleModel is an Observer that accumulates a cycle count.
type CycleModel interface {
	Observer
	TotalCycles() uint64
}

// VexRiscvModel approximates the VexRiscv core at its small interlocked
// operating point (the ≈0.65 DMIPS/MHz configuration the paper cites):
// a 5-stage in-order pipeline *without* a bypass network, so a consumer
// stalls in decode until its producer reaches writeback (write-first
// register file: a producer decoded at cycle t is readable at t+3), plus a
// flush penalty for every taken control transfer (branches resolve in EX).
type VexRiscvModel struct {
	// BranchPenalty is the flush cost of a taken transfer.
	BranchPenalty uint64
	// MulExtra/DivExtra are the additional EX-occupancy cycles of the
	// iterative multiplier/divider options (Table II marks VexRiscv as
	// having a multiplier).
	MulExtra uint64
	DivExtra uint64

	t       uint64 // decode cycle of the most recently retired instruction
	ready   [NumRegs]uint64
	started bool
}

// NewVexRiscvModel returns the model with the small-config parameters.
func NewVexRiscvModel() *VexRiscvModel {
	return &VexRiscvModel{BranchPenalty: 2, MulExtra: 4, DivExtra: 33}
}

// Retire implements Observer.
func (v *VexRiscvModel) Retire(in Inst, taken bool, _ uint32) {
	t := v.t + 1
	if !v.started {
		v.started = true
		t = 1
	}
	// Interlock until each source's producer reaches writeback; x0 is
	// never pending, as no write to it is tracked.
	if in.Op.ReadsRs1() {
		t = max(t, v.ready[in.Rs1])
	}
	if in.Op.ReadsRs2() {
		t = max(t, v.ready[in.Rs2])
	}
	c := classOf(in.Op)
	switch c {
	case classMul:
		t += v.MulExtra
	case classDiv:
		t += v.DivExtra
	}
	if in.Op.WritesRd() && in.Rd != 0 {
		v.ready[in.Rd] = t + 3
	}
	if taken || c == classJAL || c == classJALR {
		t += v.BranchPenalty
	}
	v.t = t
}

// TotalCycles returns decode-slot cycles plus the pipeline drain.
func (v *VexRiscvModel) TotalCycles() uint64 {
	if !v.started {
		return 0
	}
	return v.t + 4
}

// PicoRV32Model applies the per-instruction cycle costs from the PicoRV32
// documentation (non-pipelined, multi-cycle; CPI ≈ 4, ≈0.31 DMIPS/MHz on
// Dhrystone with the dual-port register file and fast-multiply options the
// paper's RV32IM configuration implies).
type PicoRV32Model struct {
	Cycles uint64

	// Cost table, overridable for ablation studies.
	ALU, Load, Store, BranchTaken, BranchNot, Jump, Jalr, ShiftBase, Mul, Div uint64
	// SerialShift, when true, adds one cycle per shifted bit (the
	// BARREL_SHIFTER=0 configuration).
	SerialShift bool
}

// NewPicoRV32Model returns the documented default timing: the sequential
// ENABLE_MUL multiplier (~35 cycles) rather than the DSP-based fast
// multiply — the configuration consistent with the paper's Table III GEMM
// ratio (see EXPERIMENTS.md); switch Mul to ≈4 for the ENABLE_FAST_MUL
// ablation.
func NewPicoRV32Model() *PicoRV32Model {
	return &PicoRV32Model{
		ALU: 3, Load: 5, Store: 5,
		BranchTaken: 5, BranchNot: 3,
		Jump: 3, Jalr: 6,
		ShiftBase: 3, SerialShift: false,
		Mul: 35, Div: 40,
	}
}

// Retire implements Observer.
func (p *PicoRV32Model) Retire(in Inst, taken bool, shamt uint32) {
	switch classOf(in.Op) {
	case classJAL:
		p.Cycles += p.Jump
	case classJALR:
		p.Cycles += p.Jalr
	case classBranch:
		if taken {
			p.Cycles += p.BranchTaken
		} else {
			p.Cycles += p.BranchNot
		}
	case classLoad:
		p.Cycles += p.Load
	case classStore:
		p.Cycles += p.Store
	case classMul:
		p.Cycles += p.Mul
	case classDiv:
		p.Cycles += p.Div
	case classShift:
		p.Cycles += p.ShiftBase
		if p.SerialShift {
			p.Cycles += uint64(shamt)
		}
	default:
		p.Cycles += p.ALU
	}
}

// TotalCycles implements CycleModel.
func (p *PicoRV32Model) TotalCycles() uint64 { return p.Cycles }

// opClass is an op's timing class: the row of cost both cycle models
// charge it.
type opClass uint8

const (
	classALU opClass = iota
	classShift
	classLoad
	classStore
	classBranch
	classJAL
	classJALR
	classMul
	classDiv
)

// opClasses classifies every op once, so Retire picks its cost with one
// lookup.
var opClasses = func() (t [NumOps]opClass) {
	for i := range t {
		switch op := Op(i); {
		case op == JAL:
			t[i] = classJAL
		case op == JALR:
			t[i] = classJALR
		case op.IsBranch():
			t[i] = classBranch
		case op.IsLoad():
			t[i] = classLoad
		case op.IsStore():
			t[i] = classStore
		case op >= DIV:
			t[i] = classDiv
		case op.IsMul():
			t[i] = classMul
		case op.IsShift():
			t[i] = classShift
		}
	}
	return t
}()

// classOf returns op's timing class; an op outside the ISA times as ALU.
func classOf(op Op) opClass {
	if op < NumOps {
		return opClasses[op]
	}
	return classALU
}

var (
	_ CycleModel = (*VexRiscvModel)(nil)
	_ CycleModel = (*PicoRV32Model)(nil)
)
