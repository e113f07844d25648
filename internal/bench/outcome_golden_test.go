package bench

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/xlate"
	"repro/internal/xlate/randprog"
)

// outcomeGoldenFile pins every counter a job reports for the paper suite
// and 50 random programs. Its figures were captured before either
// reference loop (the ART-9 functional core and the RV32 machine with its
// two cycle models) was rewritten for speed, so it is their oracle: a
// faster loop must reproduce every count exactly.
const outcomeGoldenFile = "testdata/outcome_golden.txt"

// outcomeGoldenHeader names the columns of outcomeGoldenFile.
const outcomeGoldenHeader = "# workload checksum rv_retired vex_cycles pico_cycles art9_cycles art_retired stalls_load stalls_branch art_loads art_stores"

// outcomeGoldenWorkloads is the paper suite plus 50 randprog programs.
func outcomeGoldenWorkloads() []Workload {
	ws := append([]Workload{}, Workloads...)
	g := randprog.New(2022)
	for i := 0; i < 50; i++ {
		ws = append(ws, Workload{Name: fmt.Sprintf("randprog-%d", i), Source: g.Generate(12), Iterations: 1})
	}
	return ws
}

// outcomeGoldenLine renders o's counters as one line of outcomeGoldenFile.
func outcomeGoldenLine(o *Outcome) string {
	return fmt.Sprintf("%s %d %d %d %d %d %d %d %d %d %d", o.Workload.Name,
		o.Checksum, o.RVRetired, o.VexCycles, o.PicoCycles,
		o.ART9Cycles, o.ARTRetired, o.ARTStallsLoad, o.ARTStallsBranch, o.ARTLoads, o.ARTStores)
}

// TestOutcomeGolden runs every golden workload as a job runs it and
// compares each reported counter with outcomeGoldenFile.
func TestOutcomeGolden(t *testing.T) {
	b, err := os.ReadFile(outcomeGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(b)), "\n")
	if want[0] != outcomeGoldenHeader {
		t.Fatalf("%s: header %q, want %q", outcomeGoldenFile, want[0], outcomeGoldenHeader)
	}
	want = want[1:]
	ws := outcomeGoldenWorkloads()
	if len(want) != len(ws) {
		t.Fatalf("%s: %d rows, want %d", outcomeGoldenFile, len(want), len(ws))
	}
	for i, w := range ws {
		o, err := Run(w, xlate.Options{})
		if err != nil {
			t.Errorf("%s: %v", w.Name, err)
			continue
		}
		if got := outcomeGoldenLine(o); got != want[i] {
			t.Errorf("%s:\n got  %s\n want %s\n(columns %s)", w.Name, got, want[i], outcomeGoldenHeader[2:])
		}
	}
}
