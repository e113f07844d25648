package bench

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/rv32"
	"repro/internal/xlate"
)

// FuzzCompile drives the untrusted compile path an art9-serve request
// reaches with inline RV32 source — rv32.Assemble, then xlate.Translate,
// then asm.Assemble of the generated ART-9 text — and requires it never
// to panic: malformed input must end in an error at some stage. Seed
// corpus: the §V-A programs and the extended workloads.
func FuzzCompile(f *testing.F) {
	for _, w := range append(append([]Workload{}, Workloads...), ExtendedWorkloads...) {
		f.Add(w.Source)
	}
	f.Add("li a0, 21\nadd a0, a0, a0\nebreak")
	f.Add("loop: j loop")

	f.Fuzz(func(t *testing.T, src string) {
		p, err := rv32.Assemble(src)
		if err != nil {
			return
		}
		out, err := xlate.Translate(p, xlate.Options{})
		if err != nil {
			return
		}
		_, _ = asm.Assemble(out.Asm)
	})
}
