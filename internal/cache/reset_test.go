package cache

import (
	"runtime"
	"testing"

	"smartrefresh/internal/config"
)

// allocBytes returns the heap bytes one call of f allocates, read from
// runtime.MemStats.TotalAlloc around it, at GOMAXPROCS 1 so that no other
// goroutine allocates meanwhile.
func allocBytes(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestCacheChunkInstallBytes pins what the first install into an empty
// chunk of the Table 2 tag store allocates: in a new cache, that chunk
// and nothing else, 4096 sets × ways 4-byte words; after a Reset,
// nothing, and the reused chunk reads empty; a cache of another length
// allocates its own chunks, whatever another cache holds.
func TestCacheChunkInstallBytes(t *testing.T) {
	cfg := config.Table2_3DCache()
	chunkBytes := uint64(chunkSets * cfg.Ways * 4)

	t.Run("fresh", func(t *testing.T) {
		c := New(cfg)
		if got := allocBytes(func() { c.Access(0, true) }); got != chunkBytes {
			t.Errorf("first install into a Table 2 chunk allocates %d bytes, want %d", got, chunkBytes)
		}
	})

	t.Run("reused", func(t *testing.T) {
		// Fill every set of the first chunk with a dirty line, then
		// reset the cache.
		c := New(cfg)
		const line = 64
		for s := uint64(0); s < chunkSets; s++ {
			c.Access(s*line, true)
		}
		first := &c.chunks[0][0]
		c.Reset()
		if n := c.residentChunks(); n != 0 || c.Contains(0) || c.Stats() != (Stats{}) {
			t.Fatalf("reset cache holds %d chunks, line 0 present %v, stats %+v; want it empty",
				n, c.Contains(0), c.Stats())
		}

		other := uint64(cfg.SizeBytes) // set 0, another tag
		got := allocBytes(func() { c.Access(other, false) })
		if reused := &c.chunks[0][0] == first; got != 0 || !reused {
			t.Fatalf("install after Reset allocates %d bytes, reuses the chunk %v; want 0 and true", got, reused)
		}
		if err := c.Invariant(); err != nil {
			t.Fatalf("reused chunk: %v", err)
		}
		for s := uint64(0); s < chunkSets; s++ {
			if c.Contains(s * line) {
				t.Fatalf("reused chunk still holds the line at %#x from before the Reset", s*line)
			}
		}
		if !c.Contains(other) || c.Dirty(other) {
			t.Errorf("reused chunk: installed clean line at %#x present %v, dirty %v", other, c.Contains(other), c.Dirty(other))
		}
	})

	t.Run("other-length", func(t *testing.T) {
		old := New(cfg)
		old.Access(0, true)
		old.Reset()
		two := cfg
		two.Ways = 2
		c := New(two)
		if got, want := allocBytes(func() { c.Access(0, true) }), 2*chunkBytes; got != want {
			t.Errorf("install into a 2-way cache after resetting a 1-way one allocates %d bytes, want %d", got, want)
		}
	})
}
