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

// emptyPool sets GOMAXPROCS 1 until the returned restore runs. It collects
// first, so that no collection clears the pool's per-P state between the
// drain and the caller's measurement, then drains the pool; its first Get
// allocates that state.
func emptyPool() (restore func()) {
	prev := runtime.GOMAXPROCS(1)
	runtime.GC()
	drainChunkPool()
	return func() { runtime.GOMAXPROCS(prev) }
}

// TestCacheChunkInstallBytes pins what the first install into an empty
// chunk of the Table 2 tag store allocates: with the pool empty, that
// chunk and nothing else, 4096 sets × ways 4-byte words; after a
// Release, nothing, and the reused chunk reads empty; a released chunk
// of another length is not reused.
func TestCacheChunkInstallBytes(t *testing.T) {
	cfg := config.Table2_3DCache()
	chunkBytes := uint64(chunkSets * cfg.Ways * 4)

	t.Run("fresh", func(t *testing.T) {
		defer emptyPool()()
		c := New(cfg)
		if got := allocBytes(func() { c.Access(0, true) }); got != chunkBytes {
			t.Errorf("first install into a Table 2 chunk allocates %d bytes, want %d", got, chunkBytes)
		}
	})

	t.Run("reused", func(t *testing.T) {
		defer emptyPool()()
		// Fill every set of the first chunk with a dirty line, then give
		// the chunk back.
		old := New(cfg)
		const line = 64
		for s := uint64(0); s < chunkSets; s++ {
			old.Access(s*line, true)
		}
		first := &old.chunks[0][0]
		old.Release()
		if n := old.residentChunks(); n != 0 || old.Contains(0) {
			t.Fatalf("released cache holds %d chunks, line 0 present %v; want it empty", n, old.Contains(0))
		}

		c := New(cfg)
		other := uint64(cfg.SizeBytes) // set 0, another tag
		got := allocBytes(func() { c.Access(other, false) })
		if reused := &c.chunks[0][0] == first; !reused && raceEnabled {
			t.Skip("the pool dropped the released chunk, as it may under -race")
		} else if got != 0 || !reused {
			t.Fatalf("install after Release allocates %d bytes, reuses the released chunk %v; want 0 and true", got, reused)
		}
		if err := c.Invariant(); err != nil {
			t.Fatalf("reused chunk: %v", err)
		}
		for s := uint64(0); s < chunkSets; s++ {
			if c.Contains(s * line) {
				t.Fatalf("reused chunk still holds the released line at %#x", s*line)
			}
		}
		if !c.Contains(other) || c.Dirty(other) {
			t.Errorf("reused chunk: installed clean line at %#x present %v, dirty %v", other, c.Contains(other), c.Dirty(other))
		}
	})

	t.Run("other-length", func(t *testing.T) {
		defer emptyPool()()
		old := New(cfg)
		old.Access(0, true)
		old.Release()
		two := cfg
		two.Ways = 2
		c := New(two)
		if got, want := allocBytes(func() { c.Access(0, true) }), 2*chunkBytes; got != want {
			t.Errorf("install into a 2-way cache after releasing a 1-way chunk allocates %d bytes, want %d", got, want)
		}
	})
}
