package asm_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/bench"
	"repro/internal/rv32"
	"repro/internal/xlate"
)

// FuzzAssemble feeds arbitrary text to the assembler. It must never
// panic or run unbounded, and every source that assembles must survive
// a print round trip: printing its parsed statements and assembling the
// result, or assembling the statements directly, gives the same words,
// data and symbols. Seeds: the CLI testdata programs, every raw string
// literal in internal/sim's tests (its golden programs) and the
// translated paper suite.
func FuzzAssemble(f *testing.F) {
	files, err := filepath.Glob("../../cmd/*/testdata/*.t9s")
	if err != nil || len(files) == 0 {
		f.Fatalf("no .t9s seeds: %v", err)
	}
	for _, name := range files {
		b, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(b))
	}
	for _, src := range simPrograms(f) {
		f.Add(src)
	}
	for _, w := range bench.Workloads {
		p, err := rv32.Assemble(w.Source)
		if err != nil {
			f.Fatal(err)
		}
		out, err := xlate.Translate(p, xlate.Options{})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(out.Asm)
	}
	f.Add("x: y: .equ K, -0t+-\n.data\nd: .word x, K, 3\n.text\nLDI T1, K\nBEQ T1, K, y\nHALT")

	f.Fuzz(func(t *testing.T, src string) {
		p, err := asm.Assemble(src)
		if err != nil {
			return
		}
		lines, _, err := asm.Parse(src)
		if err != nil {
			t.Fatalf("source assembles but does not parse: %v", err)
		}
		var b strings.Builder
		asm.Print(&b, lines)
		q, err := asm.Assemble(b.String())
		if err != nil {
			t.Fatalf("printed source does not assemble: %v\n--- printed ---\n%s", err, b.String())
		}
		same(t, "printed", p, q)
		r, err := asm.AssembleLines(lines)
		if err != nil {
			t.Fatalf("parsed lines do not assemble: %v", err)
		}
		same(t, "structured", p, r)
	})
}

func same(t *testing.T, what string, p, q *asm.Program) {
	t.Helper()
	if !reflect.DeepEqual(p.Words, q.Words) || !reflect.DeepEqual(p.Data, q.Data) || !reflect.DeepEqual(p.Symbols, q.Symbols) {
		t.Fatalf("%s program differs:\nwords %v\n   vs %v\ndata %v\n  vs %v\nsymbols %v\n     vs %v",
			what, p.Words, q.Words, p.Data, q.Data, p.Symbols, q.Symbols)
	}
}

// simPrograms returns every raw string literal in internal/sim's test
// files, which hold its golden ART-9 programs.
func simPrograms(f *testing.F) []string {
	files, err := filepath.Glob("../sim/*_test.go")
	if err != nil || len(files) == 0 {
		f.Fatalf("no internal/sim tests: %v", err)
	}
	var out []string
	fset := token.NewFileSet()
	for _, name := range files {
		file, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			f.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING && strings.HasPrefix(lit.Value, "`") {
				if s, err := strconv.Unquote(lit.Value); err == nil {
					out = append(out, s)
				}
			}
			return true
		})
	}
	return out
}
