package main

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/rv32"
	"repro/internal/xlate"
)

// TestGenerateDeterministic pins the generator: a seed must give
// byte-identical sources in every process, so the digest of seed 1's
// first blocks is fixed. A deliberate generator change updates it (and
// resets every baseline measured with the old inputs).
func TestGenerateDeterministic(t *testing.T) {
	h := sha256.New()
	for i := int64(-genBlock); i < 3*genBlock; i++ {
		a, b := generate(1, i), generate(1, i)
		if a != b {
			t.Fatalf("job %d: two calls disagree", i)
		}
		fmt.Fprintf(h, "%s\x00%s\x00", a.Name, a.Source)
	}
	const want = "5dbfc6f8b8617448fae1fb9dac160e3ce2a6f8730d4b5ab1fae857a3a18be19a"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Fatalf("seed 1 digest = %s, want %s", got, want)
	}
	if generate(1, 5).Source == generate(2, 5).Source {
		t.Fatal("seeds 1 and 2 generate the same program")
	}
}

// TestGeneratedProgramsAgree runs programs from a spread of seeds —
// timed, warm-up and pool indices — on the RV32 reference and both ART-9
// cores: bench.Run fails unless the functional and pipelined checksums
// equal the RV32 one, and the benchmark's own reference must agree too.
func TestGeneratedProgramsAgree(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, -3, 1 << 40} {
		for _, i := range []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 977, -1, -4196, poolStart, poolStart + 39} {
			g := generate(seed, i)
			o, err := bench.Run(bench.Workload{Name: g.Name, Source: g.Source, Iterations: 1}, xlate.Options{})
			if err != nil {
				t.Fatalf("seed %d job %d: %v\n%s", seed, i, err, g.Source)
			}
			ref, err := reference(g.Source)
			if err != nil {
				t.Fatal(err)
			}
			if ref != o.Checksum {
				t.Fatalf("seed %d job %d: reference %d != bench checksum %d", seed, i, ref, o.Checksum)
			}
			if o.ARTRetired < 1000 || o.ARTRetired > 8000 {
				t.Errorf("seed %d job %d (%s): %d ART-9 instructions, far outside the 2k–6k design band", seed, i, g.Kernel, o.ARTRetired)
			}
		}
	}
}

// TestGeneratedProgramsUnique checks that programs differ where the
// program cache keys — the translated ART-9 source — across a seed's
// timed, warm-up and pool indices.
func TestGeneratedProgramsUnique(t *testing.T) {
	seen := map[string]int64{}
	var idx []int64
	for i := int64(-200); i < 600; i++ {
		idx = append(idx, i)
	}
	for p := int64(0); p < poolSize; p++ {
		idx = append(idx, poolStart+p)
	}
	for _, i := range idx {
		p, err := rv32.Assemble(generate(3, i).Source)
		if err != nil {
			t.Fatal(err)
		}
		out, err := xlate.Translate(p, xlate.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if j, dup := seen[out.Asm]; dup {
			t.Fatalf("jobs %d and %d translate to the same ART-9 source", j, i)
		}
		seen[out.Asm] = i
	}
}

// TestStreamsAreStratified checks the per-block mixes every workload's
// steadiness rests on.
func TestStreamsAreStratified(t *testing.T) {
	for b := int64(-2); b < 3; b++ {
		classes := map[string]int{}
		for i := b * genBlock; i < (b+1)*genBlock; i++ {
			g := generate(9, i)
			classes[g.Kernel]++
		}
		for _, k := range kernelNames {
			if classes[k] != genLevels {
				t.Fatalf("block %d: %d %s programs, want %d", b, classes[k], k, genLevels)
			}
		}
	}

	suite := suiteAt(9)
	for b := int64(-1); b < 3; b++ {
		n := map[string]int{}
		for i := b * suiteBlock; i < (b+1)*suiteBlock; i++ {
			n[suite(i).mj.Workload]++
		}
		if n["dhrystone"] != 9 || n["bubble"] != 2 || n["gemm"] != 2 || n["sobel"] != 2 {
			t.Fatalf("suite block %d mix %v", b, n)
		}
	}

	w, err := workloadByName("cache-mix", 9)
	if err != nil {
		t.Fatal(err)
	}
	replays := make([]int, poolSize)
	for b := int64(0); b < 4*poolSize/(mixBlock-1); b++ {
		fresh := 0
		for i := b * mixBlock; i < (b+1)*mixBlock; i++ {
			j := w.at(i)
			switch j.kind {
			case freshJob:
				fresh++
			case replayJob:
				replays[j.pool]++
			}
		}
		if fresh != 1 {
			t.Fatalf("mix block %d has %d fresh jobs, want 1", b, fresh)
		}
	}
	for p, n := range replays {
		if n != 4 {
			t.Fatalf("pool entry %d replayed %d times over four pool cycles, want 4", p, n)
		}
	}
}
