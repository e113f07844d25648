// Package tmem models the ternary instruction and data memories (TIM and
// TDM, §IV-A of the paper): synchronous single-port, word-addressed arrays
// of 9-trit cells. A behavioural model stands in for the ternary SRAM of
// [11]; the evaluation framework consumes only its cell counts, and takes
// access activity from the simulator's retired, load and store counts.
package tmem

import (
	"fmt"

	"repro/internal/ternary"
)

// MaxWords is the largest addressable memory: the full 9-trit address
// space, 3^9 words.
const MaxWords = ternary.WordStates

// Memory is a word-addressed ternary memory. Cells are stored in the
// bit-plane form (ternary.Packed) so the simulator hot path reads and
// writes without per-trit conversion; the Word-typed accessors convert at
// the boundary and remain the canonical interface for tests and tools.
type Memory struct {
	name  string
	words []ternary.Packed
}

// New returns a memory holding size 9-trit words. It panics if size is not
// in (0, MaxWords], since that is a construction-time configuration error.
func New(name string, size int) *Memory {
	if size <= 0 || size > MaxWords {
		panic(fmt.Sprintf("tmem: invalid size %d for %s (max %d)", size, name, MaxWords))
	}
	return &Memory{name: name, words: make([]ternary.Packed, size)}
}

// Name returns the memory's name ("TIM"/"TDM" conventionally).
func (m *Memory) Name() string { return m.name }

// Size returns the number of words.
func (m *Memory) Size() int { return len(m.words) }

// Cells returns the number of ternary storage cells (trits).
func (m *Memory) Cells() int { return len(m.words) * ternary.WordTrits }

// EncodedBits returns the storage in bits when the memory is emulated with
// binary-encoded ternary cells (2 bits per trit), the Table V accounting.
func (m *Memory) EncodedBits() int { return m.Cells() * ternary.BitsPerTrit }

// ReadP returns the packed word at index addr — the simulator hot path.
// Addressing beyond the physical size is an access fault, surfaced as an
// error exactly like the hardware's out-of-space condition.
func (m *Memory) ReadP(addr int) (ternary.Packed, error) {
	if addr < 0 || addr >= len(m.words) {
		return ternary.Packed{}, fmt.Errorf("tmem: %s read at %d out of range [0,%d)", m.name, addr, len(m.words))
	}
	return m.words[addr], nil
}

// WriteP stores q at index addr, with the same bounds behaviour as ReadP.
func (m *Memory) WriteP(addr int, q ternary.Packed) error {
	if addr < 0 || addr >= len(m.words) {
		return fmt.Errorf("tmem: %s write at %d out of range [0,%d)", m.name, addr, len(m.words))
	}
	m.words[addr] = q
	return nil
}

// Read returns the word at index addr (ReadP through the Word boundary).
func (m *Memory) Read(addr int) (ternary.Word, error) {
	q, err := m.ReadP(addr)
	return q.Unpack(), err
}

// Write stores w at index addr, with the same bounds behaviour as Read.
func (m *Memory) Write(addr int, w ternary.Word) error {
	return m.WriteP(addr, ternary.Pack(w))
}

// ReadWord is Read addressed by a 9-trit word using the unsigned
// interpretation of §II-A.
func (m *Memory) ReadWord(addr ternary.Word) (ternary.Word, error) {
	return m.Read(addr.UIndex())
}

// WriteWord is Write addressed by a 9-trit word.
func (m *Memory) WriteWord(addr, w ternary.Word) error {
	return m.Write(addr.UIndex(), w)
}

// LoadImage copies img into the memory starting at address 0, the
// program-load path. It fails if the image does not fit.
func (m *Memory) LoadImage(img []ternary.Word) error {
	if len(img) > len(m.words) {
		return fmt.Errorf("tmem: %s image of %d words exceeds size %d", m.name, len(img), len(m.words))
	}
	for i, w := range img {
		m.words[i] = ternary.Pack(w)
	}
	return nil
}

// SetAll initialises sparse contents (address → word), as produced by the
// assembler's .data section.
func (m *Memory) SetAll(init map[int]ternary.Word) error {
	for a, w := range init {
		if a < 0 || a >= len(m.words) {
			return fmt.Errorf("tmem: %s init at %d out of range [0,%d)", m.name, a, len(m.words))
		}
		m.words[a] = ternary.Pack(w)
	}
	return nil
}

// Reset zeroes the contents.
func (m *Memory) Reset() { clear(m.words) }

// Snapshot returns a copy of the memory contents (for test comparison).
func (m *Memory) Snapshot() []ternary.Word {
	s := make([]ternary.Word, len(m.words))
	for i, q := range m.words {
		s[i] = q.Unpack()
	}
	return s
}
