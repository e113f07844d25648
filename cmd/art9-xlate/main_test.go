package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestMain re-execs the test binary as the CLI itself when the marker
// env var is set, so the golden tests drive the real main() in a child
// process. Regenerate goldens with:
//
//	go run ./cmd/art9-xlate cmd/art9-xlate/testdata/mix.s > cmd/art9-xlate/testdata/mix.t9s.golden
//	go run ./cmd/art9-xlate -no-peephole -no-inline-mul cmd/art9-xlate/testdata/mix.s > cmd/art9-xlate/testdata/mix.plain.t9s.golden
//	go run ./cmd/art9-xlate -stats -diag cmd/art9-xlate/testdata/mix.s 2> cmd/art9-xlate/testdata/mix.stats.golden >/dev/null
func TestMain(m *testing.M) {
	if os.Getenv("ART9_XLATE_CLI") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs the CLI with args and returns its stdout and stderr.
func runCLI(t *testing.T, args ...string) (string, string) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "ART9_XLATE_CLI=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("art9-xlate %v: %v\n%s", args, err, stderr.String())
	}
	return stdout.String(), stderr.String()
}

func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s--- want ---\n%s", path, got, string(want))
	}
}

var mixSrc = filepath.Join("testdata", "mix.s")

// TestTranslationGolden pins the generated ART-9 assembly text, with and
// without the redundancy checker and inline multiply.
func TestTranslationGolden(t *testing.T) {
	stdout, _ := runCLI(t, mixSrc)
	golden(t, "mix.t9s.golden", stdout)
	stdout, _ = runCLI(t, "-no-peephole", "-no-inline-mul", mixSrc)
	golden(t, "mix.plain.t9s.golden", stdout)
}

// TestStatsGolden pins the -stats and -diag reports on stderr; stdout
// still carries the assembly.
func TestStatsGolden(t *testing.T) {
	stdout, stderr := runCLI(t, "-stats", "-diag", mixSrc)
	golden(t, "mix.stats.golden", stderr)
	golden(t, "mix.t9s.golden", stdout)
}

// TestOutputFile checks -o writes the same bytes as stdout mode.
func TestOutputFile(t *testing.T) {
	out := filepath.Join(t.TempDir(), "mix.t9s")
	if stdout, _ := runCLI(t, "-o", out, mixSrc); stdout != "" {
		t.Errorf("-o also wrote to stdout: %q", stdout)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "mix.t9s.golden", string(got))
}
