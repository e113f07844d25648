package rv32

import (
	"strings"
	"testing"
)

// TestAssembleRejectsHugeData pins the data-image bound: a .space or
// .org past maxDataBytes is an error, not a gigabyte allocation.
func TestAssembleRejectsHugeData(t *testing.T) {
	for _, src := range []string{
		".data\n.space 2000000000\n.text\nebreak",
		".data\n.org 2147483647\n.text\nebreak",
		".data\n.space 1048576\n.byte 1\n.text\nebreak",
	} {
		if _, err := Assemble(src); err == nil || !strings.Contains(err.Error(), "data image exceeds") {
			t.Errorf("Assemble(%q) = %v, want a data-image bound error", src, err)
		}
	}
}
