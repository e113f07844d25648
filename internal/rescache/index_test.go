package rescache

import "testing"

// TestIndexKeepsNewestOversizedEntry pins the Index rule both of its
// callers build on: the entry just stored is never evicted, even when
// its cost alone exceeds the byte bound. The result store refuses such
// a value before it reaches the index (TestLRUOversizedValueRefused);
// the engine's memo caches rely on it staying resident
// (TestProgramCacheMemoizesOversizedSource).
func TestIndexKeepsNewestOversizedEntry(t *testing.T) {
	x := NewIndex[int](16, -1)
	x.Put("a", 8, 1)
	x.Put("big", 100, 2)
	if v, ok := x.Get("big"); !ok || v != 2 {
		t.Fatalf("Get(big) = %v, %v; want the oversized entry resident", v, ok)
	}
	if _, ok := x.Get("a"); ok {
		t.Error("older entry survived an over-bound insert")
	}
	if x.Len() != 1 || x.Bytes() != 100 || x.Evictions() != 1 {
		t.Errorf("len %d bytes %d evictions %d, want 1 / 100 / 1", x.Len(), x.Bytes(), x.Evictions())
	}
	x.Purge()
	if x.Len() != 0 || x.Bytes() != 0 || x.Evictions() != 1 {
		t.Errorf("after Purge: len %d bytes %d evictions %d, want 0 / 0 / 1 (counter kept)",
			x.Len(), x.Bytes(), x.Evictions())
	}
}
