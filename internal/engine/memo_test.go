package engine

import "testing"

// TestProgramCacheMemoizesOversizedSource pins the memo side of the
// shared rescache.Index contract: a source whose accounted cost alone
// exceeds the byte bound still memoizes, because the newest entry is
// never evicted.
func TestProgramCacheMemoizesOversizedSource(t *testing.T) {
	c := NewProgramCacheSized(-1, 16)
	p1, err := c.Assemble(goodSrc)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.Assemble(goodSrc)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("oversized source re-assembled; want the memoized program")
	}
	if s := c.Stats(); s.Entries != 1 || s.Hits != 1 || s.Misses != 1 || s.Evictions != 0 {
		t.Errorf("stats %+v, want 1 entry / 1 hit / 1 miss / 0 evictions", s)
	}
}
