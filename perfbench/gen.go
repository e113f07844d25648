package main

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/rv32"
)

// The seeded program generator behind serve-fresh and the never-seen share
// of cache-mix. It writes variants of four kernels — bubble sort, GEMM,
// Sobel and string search — as RV32 assembly: array contents, sizes and
// loop counts vary, and every runtime value stays inside the translator's
// 9-trit value contract (|v| ≤ 9841), so the RV32 reference and both ART-9
// cores agree on the checksum each program leaves in a0.
//
// Jobs come in blocks of genBlock: every block holds each (kernel, size
// level) class exactly once, in a seeded order, so a run's cost mix does
// not drift with the seed. Only the contents within a class are random.
//
// Every program is unique at the ART-9 level too, where the program cache
// keys: data contents never reach the ART-9 source, so the job index is
// folded injectively into two code immediates — the data base address and
// the checksum's starting value.

const (
	genKernels = 4
	genLevels  = 5
	genBlock   = genKernels * genLevels

	// baseSlots × startValues indices map to distinct (base, start)
	// pairs; start values span [-startSpan, startSpan].
	baseSlots   = 1000
	startSpan   = 1000
	startValues = 2*startSpan + 1
)

var kernelNames = [genKernels]string{"bubble", "gemm", "sobel", "strsearch"}

// Size ladders, one entry per level, chosen so each program runs roughly
// 2k–6k dynamic ART-9 instructions.
var (
	bubbleN   = [genLevels]int{18, 20, 22, 24, 26}
	gemmN     = [genLevels]int{4, 4, 5, 5, 5}
	gemmRange = [genLevels]int{2, 3, 1, 2, 3} // |a|,|b| ≤ range
	sobelHW   = [genLevels][2]int{{8, 8}, {8, 10}, {10, 9}, {10, 10}, {11, 10}}
	strL      = [genLevels]int{80, 92, 104, 116, 128}
)

// genProgram is one generated job: a display name and the RV32 source.
type genProgram struct {
	Name   string
	Kernel string
	Source string
}

// splitMix is the SplitMix64 generator. The benchmark owns it, so a seed
// maps to the same inputs on every Go release, and seeding one per job
// costs nothing next to the job itself.
type splitMix struct{ s uint64 }

func (r *splitMix) Uint64() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *splitMix) Int63() int64    { return int64(r.Uint64() >> 1) }
func (r *splitMix) Seed(seed int64) { r.s = uint64(seed) }

// rngFor derives an independent stream for (seed, stream, i).
func rngFor(seed int64, stream string, i int64) *rand.Rand {
	h := splitMix{uint64(seed)}
	x := h.Uint64()
	for _, c := range []byte(stream) {
		h.s ^= uint64(c)
		x ^= h.Uint64()
	}
	h.s = x ^ uint64(i)
	h.Uint64()
	return rand.New(&h)
}

// floorDiv and floorMod are Euclidean, so negative job indices (warm-up
// and pool programs) land in their own blocks and slots.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

func floorMod(a, b int64) int64 { return a - b*floorDiv(a, b) }

// generate returns job i of the seed's sequence. Indices ≥ 0 are the
// timed stream; negative indices are reserved for warm-up and cache
// pools, so they never share code with a timed program.
func generate(seed, i int64) genProgram {
	block := floorDiv(i, genBlock)
	perm := rngFor(seed, "block", block).Perm(genBlock)
	class := perm[floorMod(i, genBlock)]
	kernel, level := class/genLevels, class%genLevels

	offs := rngFor(seed, "tag", 0)
	slot := floorMod(i+offs.Int63n(baseSlots), baseSlots)
	start := floorMod(floorDiv(i, baseSlots)+offs.Int63n(startValues), startValues) - startSpan
	base := int(4 * slot)

	r := rngFor(seed, "data", i)
	var src string
	switch kernel {
	case 0:
		src = bubbleSrc(r, bubbleN[level], base, int(start))
	case 1:
		src = gemmSrc(r, gemmN[level], gemmRange[level], base, int(start))
	case 2:
		src = sobelSrc(r, sobelHW[level][0], sobelHW[level][1], base, int(start))
	default:
		src = strSearchSrc(r, strL[level], base, int(start))
	}
	return genProgram{
		Name:   fmt.Sprintf("gen-%s-%d", kernelNames[kernel], i),
		Kernel: kernelNames[kernel],
		Source: src,
	}
}

// words renders values as .word lines of at most 12 entries.
func words(b *strings.Builder, vals []int) {
	for i, v := range vals {
		switch {
		case i%12 == 0:
			if i > 0 {
				b.WriteByte('\n')
			}
			b.WriteString("\t.word ")
		default:
			b.WriteString(", ")
		}
		fmt.Fprintf(b, "%d", v)
	}
	b.WriteByte('\n')
}

func randVals(r *rand.Rand, n, lo, hi int) []int {
	v := make([]int, n)
	for i := range v {
		v[i] = lo + r.Intn(hi-lo+1)
	}
	return v
}

// alternatingChecksum is the suite's order-sensitive epilogue: a0 starts
// at start and alternately adds and subtracts n words from label.
func alternatingChecksum(b *strings.Builder, label string, n, start int) {
	fmt.Fprintf(b, `	la   s0, %s
	li   s1, %d
	li   a0, %d
	li   t2, 0
chk:
	lw   t0, 0(s0)
	bnez t2, odd
	add  a0, a0, t0
	li   t2, 1
	j    next
odd:
	sub  a0, a0, t0
	li   t2, 0
next:
	addi s0, s0, 4
	addi s1, s1, -1
	bgtz s1, chk
	ebreak
`, label, n, start)
}

// bubbleSrc sorts n words in [-999, 999]; the alternating sum of a sorted
// array stays within twice the value range, plus the start value.
func bubbleSrc(r *rand.Rand, n, base, start int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# bubble sort, %d words\n.data\n.org %d\narr:\n", n, base)
	words(&b, randVals(r, n, -999, 999))
	fmt.Fprintf(&b, `.text
	la   s0, arr
	li   s1, %d
outer:
	mv   s2, s0
	li   s3, 0
inner:
	lw   t0, 0(s2)
	lw   t1, 4(s2)
	ble  t0, t1, noswap
	sw   t1, 0(s2)
	sw   t0, 4(s2)
noswap:
	addi s2, s2, 4
	addi s3, s3, 1
	blt  s3, s1, inner
	addi s1, s1, -1
	bgtz s1, outer
`, n-1)
	alternatingChecksum(&b, "arr", n, start)
	return b.String()
}

// gemmSrc multiplies two n×n matrices with entries in [-rng, rng] (B
// stored transposed); |C| ≤ n·rng², far inside the contract.
func gemmSrc(r *rand.Rand, n, rng, base, start int) string {
	sq := n * n
	var b strings.Builder
	fmt.Fprintf(&b, "# GEMM %dx%d\n.data\n.org %d\nA:\n", n, n, base)
	words(&b, randVals(r, sq, -rng, rng))
	fmt.Fprintf(&b, ".org %d\nBT:\n", base+4*sq)
	words(&b, randVals(r, sq, -rng, rng))
	fmt.Fprintf(&b, ".org %d\nC:\t.space %d\n", base+8*sq, 4*sq)
	fmt.Fprintf(&b, `.text
	la   s5, A
	la   s6, BT
	la   s7, C
	li   s0, 0
iloop:
	li   s1, 0
	li   s8, 0
jloop:
	li   a0, 0
	add  s2, s5, s0
	add  s3, s6, s1
	li   s4, %[1]d
kloop:
	lw   t0, 0(s2)
	lw   t1, 0(s3)
	mul  t0, t0, t1
	add  a0, a0, t0
	addi s2, s2, 4
	addi s3, s3, 4
	addi s4, s4, -1
	bgtz s4, kloop
	add  t2, s7, s0
	add  t2, t2, s8
	sw   a0, 0(t2)
	addi s8, s8, 4
	addi s1, s1, %[2]d
	li   t3, %[3]d
	blt  s1, t3, jloop
	addi s0, s0, %[2]d
	li   t3, %[3]d
	blt  s0, t3, iloop
`, n, 4*n, 4*sq)
	alternatingChecksum(&b, "C", sq, start)
	return b.String()
}

// sobelSrc filters an h×w image of pixels in [0, 20]; each output is at
// most 160 and the alternating sum of the interior stays below 6k.
func sobelSrc(r *rand.Rand, h, w, base, start int) string {
	inner := (h - 2) * (w - 2)
	var b strings.Builder
	fmt.Fprintf(&b, "# Sobel %dx%d\n.data\n.org %d\nimg:\n", h, w, base)
	words(&b, randVals(r, h*w, 0, 20))
	fmt.Fprintf(&b, ".org %d\nout:\t.space %d\n", base+4*h*w, 4*inner)
	fmt.Fprintf(&b, `.text
	la   s3, img
	la   s4, out
	li   s1, %[1]d
rloop:
	li   s2, %[2]d
cloop:
	lw   t0, 0(s3)
	lw   t1, 8(s3)
	sub  a1, t1, t0
	add  a2, t0, t1
	lw   t0, 4(s3)
	add  a2, a2, t0
	add  a2, a2, t0
	addi t2, s3, %[3]d
	lw   t0, 0(t2)
	lw   t1, 8(t2)
	sub  t1, t1, t0
	add  a1, a1, t1
	add  a1, a1, t1
	addi t2, t2, %[3]d
	neg  a2, a2
	lw   t0, 0(t2)
	lw   t1, 8(t2)
	add  a2, a2, t0
	add  a2, a2, t1
	sub  t1, t1, t0
	add  a1, a1, t1
	lw   t0, 4(t2)
	add  a2, a2, t0
	add  a2, a2, t0
	bgez a1, gxok
	neg  a1, a1
gxok:
	bgez a2, gyok
	neg  a2, a2
gyok:
	add  a1, a1, a2
	sw   a1, 0(s4)
	addi s3, s3, 4
	addi s4, s4, 4
	addi s2, s2, -1
	bgtz s2, cloop
	addi s3, s3, 8
	addi s1, s1, -1
	bgtz s1, rloop
`, h-2, w-2, 4*w)
	alternatingChecksum(&b, "out", inner, start)
	return b.String()
}

// strSearchSrc counts occurrences of a 3–5 word needle in an l-word
// haystack over a small alphabet, summing match positions (plus one) on
// top of the start value: at most start + Σ(i+1) over l ≤ 128 positions.
func strSearchSrc(r *rand.Rand, l, base, start int) string {
	m := 3 + r.Intn(3)
	alpha := 3 + r.Intn(2)
	hay := randVals(r, l, 0, alpha-1)
	// Plant the needle a few times so the inner loop runs to completion.
	needle := randVals(r, m, 0, alpha-1)
	for k := 0; k < 3; k++ {
		copy(hay[r.Intn(l-m+1):], needle)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# string search, %d-word needle in %d words\n.data\n.org %d\nhay:\n", m, l, base)
	words(&b, hay)
	fmt.Fprintf(&b, ".org %d\nneedle:\n", base+4*l)
	words(&b, needle)
	fmt.Fprintf(&b, `.text
	li   s1, 0
	li   a0, %[1]d
outer:
	la   s2, hay
	slli t0, s1, 2
	add  s2, s2, t0
	la   s3, needle
	li   s4, %[2]d
inner:
	lw   t0, 0(s2)
	lw   t1, 0(s3)
	bne  t0, t1, miss
	addi s2, s2, 4
	addi s3, s3, 4
	addi s4, s4, -1
	bgtz s4, inner
	add  a0, a0, s1
	addi a0, a0, 1
miss:
	addi s1, s1, 1
	li   t0, %[3]d
	blt  s1, t0, outer
	ebreak
`, start, m, l-m+1)
	return b.String()
}

// reference assembles and runs a program on the RV32 machine — the
// benchmark's own oracle — and returns the checksum it leaves in a0.
func reference(src string) (int, error) {
	p, err := rv32.Assemble(src)
	if err != nil {
		return 0, fmt.Errorf("rv32 assemble: %w", err)
	}
	m := rv32.NewMachine(1 << 16)
	if err := m.Load(p); err != nil {
		return 0, err
	}
	if err := m.Run(); err != nil {
		return 0, fmt.Errorf("rv32 run: %w", err)
	}
	return int(int32(m.Reg(10))), nil
}
