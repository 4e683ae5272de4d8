// Package cache implements the caches the paper's methodology uses
// (Ruby's role): set-associative write-back caches with LRU replacement
// for L1/L2, and the 3D die-stacked DRAM cache of section 4.5/6 — a
// direct-mapped cache whose tag array is SRAM on the processor
// die and whose data array is the stacked DRAM module, so every cache
// access (hit or fill) becomes DRAM activity in the stacked device.
package cache

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"smartrefresh/internal/config"
)

// Stats aggregates cache activity.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Writebacks uint64
	Fills      uint64
}

// HitRate returns hits/accesses (0 when idle).
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// Result describes the outcome of one cache access.
type Result struct {
	Hit bool
	// Writeback, when WritebackValid, is the line address of a dirty
	// victim that must be written to the next level.
	Writeback      uint64
	WritebackValid bool
	// Fill, when FillValid, is the line address that must be fetched from
	// the next level (always the accessed line on a miss).
	Fill      uint64
	FillValid bool
}

// The tag store packs each line into one uint32: the tag shifted left by
// tagShift, the valid bit and the dirty bit. An invalid line is the zero
// word. A tag is the address bits above the offset and set bits, so it
// fits the tagBits above the flags only for an address below AddrLimit.
const (
	dirtyBit = 1 << 0
	validBit = 1 << 1
	tagShift = 2
	tagBits  = 32 - tagShift
)

// ErrAddrRange reports an address at or above a cache's AddrLimit, whose
// tag the tag store cannot hold.
var ErrAddrRange = errors.New("cache: address beyond the tag store's range")

// The tag store is split into chunks of chunkSets sets (one smaller chunk
// when the cache has fewer sets), each allocated on the first install
// into one of its sets.
const (
	chunkBits = 12
	chunkSets = 1 << chunkBits
	chunkMask = chunkSets - 1
)

// Cache is a blocking set-associative write-back cache with true-LRU
// replacement and write-allocate. It is not safe for concurrent use.
type Cache struct {
	cfg config.CacheConfig
	// chunks is the tag store, sets × ways packed words. Set s lives in
	// chunks[s>>chunkBits] at words [(s&chunkMask)*ways, +ways); its valid
	// lines are a prefix of that region, ordered most- to least-recently
	// used, and the rest are zero. A nil chunk is all-zero sets that have
	// never held a line.
	chunks     [][]uint32
	chunkWords int
	ways       int // cfg.Ways; one load, not two, keeps lookup inlinable
	setMask    uint64
	setBits    uint
	lineBits   uint
	addrLimit  uint64
	stats      Stats
}

// New builds a cache from a validated configuration; it panics on an
// invalid one (a configuration bug, not a runtime condition).
func New(cfg config.CacheConfig) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := uint64(cfg.SizeBytes/int64(cfg.LineBytes)) / uint64(cfg.Ways)
	setBits := uint(bits.TrailingZeros64(sets))
	lineBits := uint(bits.TrailingZeros64(uint64(cfg.LineBytes)))
	return &Cache{
		cfg:        cfg,
		chunks:     make([][]uint32, (sets+chunkMask)>>chunkBits),
		chunkWords: int(min(sets, chunkSets)) * cfg.Ways,
		ways:       cfg.Ways,
		setMask:    sets - 1,
		setBits:    setBits,
		lineBits:   lineBits,
		addrLimit:  1 << (tagBits + lineBits + setBits),
	}
}

// Config returns the cache configuration.
func (c *Cache) Config() config.CacheConfig { return c.cfg }

// Stats returns the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// LineAddr returns addr rounded down to its line.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr &^ (uint64(c.cfg.LineBytes) - 1) }

// AddrLimit returns the first address whose tag the tag store cannot
// hold: 1 << (30 + offset bits + set bits), 2^56 for the Table 2 cache.
// config.CacheConfig.Validate keeps it within 64 bits.
func (c *Cache) AddrLimit() uint64 { return c.addrLimit }

// lookup returns the set holding addr (nil when its chunk was never
// allocated) and the packed valid clean word its line would have. It
// panics with ErrAddrRange on an address at or above AddrLimit rather
// than let two addresses share a tag. The search is left to find, and
// the panic carries no address, so that lookup stays within the
// inlining budget of Access, Contains and Dirty.
func (c *Cache) lookup(addr uint64) (setIdx int, set []uint32, key uint32) {
	if addr >= c.addrLimit {
		panic(ErrAddrRange)
	}
	l := addr >> c.lineBits
	setIdx = int(l & c.setMask)
	if chunk := c.chunks[setIdx>>chunkBits]; chunk != nil {
		set = c.setIn(chunk, setIdx)
	}
	return setIdx, set, uint32(l>>c.setBits)<<tagShift | validBit
}

// find returns the position of key's line in set, -1 when absent.
func find(set []uint32, key uint32) int {
	for i, w := range set {
		if w&^dirtyBit == key {
			return i
		}
		if w == 0 {
			break
		}
	}
	return -1
}

// setIn returns setIdx's region of its chunk.
func (c *Cache) setIn(chunk []uint32, setIdx int) []uint32 {
	ways := c.ways
	base := (setIdx & chunkMask) * ways
	return chunk[base : base+ways : base+ways]
}

// chunkPool holds chunks (as *[]uint32) that Release gave back, for the
// next cache's allocChunk on any goroutine. The pool may drop them at a
// GC; the next install then allocates a fresh chunk, so no result
// depends on it.
var chunkPool sync.Pool

// allocChunk installs an all-zero chunk holding setIdx, a released one
// cleared when the pool has one of this cache's length, and returns
// setIdx's region of it.
func (c *Cache) allocChunk(setIdx int) []uint32 {
	var chunk []uint32
	if p, _ := chunkPool.Get().(*[]uint32); p != nil && len(*p) == c.chunkWords {
		chunk = *p
		clear(chunk)
	} else {
		chunk = make([]uint32, c.chunkWords)
	}
	c.chunks[setIdx>>chunkBits] = chunk
	return c.setIn(chunk, setIdx)
}

// Release gives every allocated chunk back for reuse by later caches and
// leaves this one empty; the statistics are kept. A cache used after
// Release allocates its chunks afresh.
func (c *Cache) Release() {
	for i, chunk := range c.chunks {
		if chunk != nil {
			released := chunk // the pool's 24-byte slice header
			chunkPool.Put(&released)
			c.chunks[i] = nil
		}
	}
}

// Access performs a read or write with write-allocate. On a miss the line
// is installed; a dirty victim is reported for write-back to the next
// level.
func (c *Cache) Access(addr uint64, write bool) Result {
	c.stats.Accesses++
	setIdx, set, key := c.lookup(addr)
	pos := find(set, key)
	var dirty uint32
	if write {
		dirty = dirtyBit
	}
	if pos >= 0 {
		// Hit: move to MRU position.
		hitLine := set[pos] | dirty
		copy(set[1:pos+1], set[:pos])
		set[0] = hitLine
		c.stats.Hits++
		return Result{Hit: true}
	}

	// Miss: shift the valid prefix down one way, dropping the LRU line
	// when the set is full. The first install into a chunk allocates it.
	c.stats.Misses++
	if set == nil {
		set = c.allocChunk(setIdx)
	}
	res := Result{Fill: c.LineAddr(addr), FillValid: true}
	c.stats.Fills++
	victim := set[len(set)-1]
	if victim&dirtyBit != 0 {
		res.Writeback = c.victimAddr(setIdx, victim)
		res.WritebackValid = true
		c.stats.Writebacks++
	}
	copy(set[1:], set)
	set[0] = key | dirty
	return res
}

// Contains reports whether the line holding addr is present (no LRU or
// statistics side effects).
func (c *Cache) Contains(addr uint64) bool {
	_, set, key := c.lookup(addr)
	return find(set, key) >= 0
}

// Dirty reports whether the line holding addr is present and dirty.
func (c *Cache) Dirty(addr uint64) bool {
	_, set, key := c.lookup(addr)
	pos := find(set, key)
	return pos >= 0 && set[pos]&dirtyBit != 0
}

// victimAddr rebuilds the line address of packed word w held in setIdx,
// widening the tag to 64 bits before shifting it into place.
func (c *Cache) victimAddr(setIdx int, w uint32) uint64 {
	return (uint64(w>>tagShift)<<c.setBits | uint64(setIdx)) << c.lineBits
}

// Invariant checks internal consistency (used by property tests): each
// set's valid lines form a prefix of its region, no invalid line carries
// a tag or dirty bit, and no tag appears twice in a set.
func (c *Cache) Invariant() error {
	ways := c.cfg.Ways
	for ci, chunk := range c.chunks {
		for base := 0; base < len(chunk); base += ways {
			if err := setInvariant(chunk[base:base+ways], ci<<chunkBits|base/ways); err != nil {
				return err
			}
		}
	}
	return nil
}

// setInvariant checks one set's region for Invariant.
func setInvariant(set []uint32, si int) error {
	n := 0
	for n < len(set) && set[n]&validBit != 0 {
		n++
	}
	for i, w := range set[n:] {
		switch {
		case w&validBit != 0:
			return fmt.Errorf("cache: set %d way %d valid after an invalid way", si, n+i)
		case w&dirtyBit != 0:
			return fmt.Errorf("cache: invalid line in set %d way %d marked dirty", si, n+i)
		case w != 0:
			return fmt.Errorf("cache: invalid line in set %d way %d holds stale tag %#x", si, n+i, w>>tagShift)
		}
	}
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			if set[i]>>tagShift == set[j]>>tagShift {
				return fmt.Errorf("cache: duplicate tag %#x in set %d", set[i]>>tagShift, si)
			}
		}
	}
	return nil
}
