package bench

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/rv32"
	"repro/internal/xlate"
)

// asmGoldenFile pins the sha256 of the translator's assembly text
// (xlate.Output.Asm) for every outcomeGoldenWorkloads program, with
// default options and with the redundancy checker and inline multiply
// both off. The text is the translator's product and the key of the
// shared program cache, so any change to it must be deliberate. The
// digests were captured while the translator still rendered its own
// text, before the printer moved into package asm.
const asmGoldenFile = "testdata/asm_golden.txt"

const asmGoldenHeader = "# workload sha256(default) sha256(no-peephole,no-inline-mul)"

func asmGoldenLine(t *testing.T, w Workload) string {
	t.Helper()
	rvProg, err := rv32.Assemble(w.Source)
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	row := w.Name
	for _, opts := range []xlate.Options{{}, {NoPeephole: true, NoInlineMul: true}} {
		out, err := xlate.Translate(rvProg, opts)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		row += fmt.Sprintf(" %x", sha256.Sum256([]byte(out.Asm)))
	}
	return row
}

// TestTranslateAsmGolden compares each program's assembly digests with
// asmGoldenFile.
func TestTranslateAsmGolden(t *testing.T) {
	ws := outcomeGoldenWorkloads()
	got := []string{asmGoldenHeader}
	for _, w := range ws {
		got = append(got, asmGoldenLine(t, w))
	}
	b, err := os.ReadFile(asmGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(want) != len(got) {
		t.Fatalf("%s: %d rows, want %d", asmGoldenFile, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("row %d:\n got  %s\n want %s", i, got[i], want[i])
		}
	}
}
