// Package randprog generates random structured RV32 programs for property
// tests. They are the widest net for translator and simulator bugs: every
// control-flow shape the mapping, label resolution and peephole phases
// must preserve, run to a halt on every core.
package randprog

import (
	"fmt"
	"math/rand"
	"strings"
)

// Gen builds random structured RV32 programs: straight-line arithmetic
// mixed with if/else diamonds and bounded counted loops (always
// terminating), over the value-contract-safe subset.
type Gen struct {
	rng   *rand.Rand
	b     strings.Builder
	label int
	depth int
}

// New returns a generator drawing from a source seeded with seed.
func New(seed int64) *Gen { return &Gen{rng: rand.New(rand.NewSource(seed))} }

func (g *Gen) newLabel(prefix string) string {
	g.label++
	return fmt.Sprintf("%s%d", prefix, g.label)
}

// Regs are the registers a generated program computes in; each starts from
// a fixed value and a0 carries one of the results.
var Regs = []string{"a0", "a1", "a2", "a3", "t0", "t1", "s2", "s3"}

func (g *Gen) reg() string { return Regs[g.rng.Intn(len(Regs))] }

// stmt emits one random statement (possibly a nested structure).
func (g *Gen) stmt() {
	switch k := g.rng.Intn(10); {
	case k < 4: // arithmetic
		d, s1, s2 := g.reg(), g.reg(), g.reg()
		switch g.rng.Intn(4) {
		case 0:
			fmt.Fprintf(&g.b, "\tadd %s, %s, %s\n", d, s1, s2)
		case 1:
			fmt.Fprintf(&g.b, "\tsub %s, %s, %s\n", d, s1, s2)
		case 2:
			fmt.Fprintf(&g.b, "\taddi %s, %s, %d\n", d, s1, g.rng.Intn(39)-19)
		case 3:
			fmt.Fprintf(&g.b, "\tslt %s, %s, %s\n", d, s1, s2)
		}
	case k < 6: // memory (aligned scratch area at 512..1020)
		r, base := g.reg(), 512+4*g.rng.Intn(120)
		if g.rng.Intn(2) == 0 {
			fmt.Fprintf(&g.b, "\tli s4, %d\n\tsw %s, 0(s4)\n", base, r)
		} else {
			fmt.Fprintf(&g.b, "\tli s4, %d\n\tlw %s, 0(s4)\n", base, r)
		}
	case k < 8 && g.depth < 2: // if/else diamond
		g.depth++
		els, end := g.newLabel("E"), g.newLabel("X")
		cond := g.rng.Intn(3)
		r1, r2 := g.reg(), g.reg()
		switch cond {
		case 0:
			fmt.Fprintf(&g.b, "\tbeq %s, %s, %s\n", r1, r2, els)
		case 1:
			fmt.Fprintf(&g.b, "\tblt %s, %s, %s\n", r1, r2, els)
		case 2:
			fmt.Fprintf(&g.b, "\tbge %s, %s, %s\n", r1, r2, els)
		}
		g.stmt()
		fmt.Fprintf(&g.b, "\tj %s\n%s:\n", end, els)
		g.stmt()
		fmt.Fprintf(&g.b, "%s:\n", end)
		g.depth--
	case k < 9 && g.depth < 2: // bounded counted loop
		g.depth++
		head := g.newLabel("L")
		n := g.rng.Intn(5) + 2
		fmt.Fprintf(&g.b, "\tli s5, %d\n%s:\n", n, head)
		g.stmt()
		fmt.Fprintf(&g.b, "\taddi s5, s5, -1\n\tbgtz s5, %s\n", head)
		g.depth--
	default: // clamp a register into a safe range to avoid overflow drift
		r := g.reg()
		g.b.WriteString("\tli s6, 1000\n")
		fmt.Fprintf(&g.b, "\trem %s, %s, s6\n", r, r)
	}
}

// Generate returns a program of n top-level statements that ends in
// ebreak.
func (g *Gen) Generate(n int) string {
	g.b.Reset()
	for i, r := range Regs {
		fmt.Fprintf(&g.b, "\tli %s, %d\n", r, (i*37)%100-50)
	}
	for i := 0; i < n; i++ {
		g.stmt()
	}
	g.b.WriteString("\tebreak\n")
	return g.b.String()
}
