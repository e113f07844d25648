package sim

import "fmt"

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

// step executes a single instruction. It returns done=true when the core
// retires a halt (jump-to-self).
func (f *Functional) step(res *Result) (done bool, err error) {
	s := f.S
	d := s.slotAt(s.PC)
	if d == nil {
		w, err := s.TIM.ReadP(s.PC.UIndex())
		if err != nil {
			return false, fmt.Errorf("sim: fetch at PC=%d: %w", s.PC.Int(), err)
		}
		sl, err := decodeAt(w, s.PC)
		if err != nil {
			return false, fmt.Errorf("sim: at PC=%d: %w", s.PC.Int(), err)
		}
		d = &sl
	}
	in := d.in
	e := evaluate(d, s.TRF[in.Ta], s.TRF[in.Tb])
	if e.isLoad {
		v, err := s.TDM.ReadP(e.addr.UIndex())
		if err != nil {
			return false, fmt.Errorf("sim: at PC=%d: %w", s.PC.Int(), err)
		}
		e.val = v
		res.Loads++
	}
	if e.isStore {
		if err := s.TDM.WriteP(e.addr.UIndex(), e.store); err != nil {
			return false, fmt.Errorf("sim: at PC=%d: %w", s.PC.Int(), err)
		}
		res.Stores++
	}
	if e.isHalt(s.PC) {
		res.HaltPC = s.PC.UIndex()
		res.Cycles++
		res.Retired++
		// The halt retires like any other instruction, so its opcode
		// counts toward the mix — otherwise ΣOpMix < 1 and the
		// switching-activity profile under-reports the datapath.
		res.ByCategory[in.Op.Category()]++
		res.ByOp[in.Op]++
		return true, nil
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
	res.ByCategory[in.Op.Category()]++
	res.ByOp[in.Op]++
	res.Cycles++
	res.Retired++
	s.PC = e.nextPC
	return false, nil
}

// Run executes until halt or the step budget is exhausted.
func (f *Functional) Run() (Result, error) {
	var res Result
	f.S.predecode()
	budget := f.cfg.withDefaults().MaxSteps
	for steps := 0; steps < budget; steps++ {
		done, err := f.step(&res)
		if err != nil {
			return res, err
		}
		if done {
			return res, nil
		}
	}
	return res, ErrNoHalt{budget}
}
