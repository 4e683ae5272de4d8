package cache

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"
	"testing/quick"

	"smartrefresh/internal/config"
	"smartrefresh/internal/sim"
)

func tinyCache(ways int) *Cache {
	return New(config.CacheConfig{
		Name: "t", SizeBytes: int64(ways) * 4 * 64, LineBytes: 64, Ways: ways, WriteBack: true,
	})
}

func TestCacheHitMiss(t *testing.T) {
	c := tinyCache(2)
	if r := c.Access(0, false); r.Hit {
		t.Fatal("cold access hit")
	}
	if r := c.Access(0, false); !r.Hit {
		t.Fatal("second access missed")
	}
	if r := c.Access(63, false); !r.Hit {
		t.Fatal("same-line access missed")
	}
	if r := c.Access(64, false); r.Hit {
		t.Fatal("next line hit")
	}
	st := c.Stats()
	if st.Accesses != 4 || st.Hits != 2 || st.Misses != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCacheLRUReplacement(t *testing.T) {
	c := tinyCache(2) // 4 sets, 2 ways; set stride = 4*64 = 256
	// Fill set 0 with two lines, touch the first, then insert a third:
	// the second must be evicted.
	c.Access(0, false)    // line A
	c.Access(1024, false) // line B (same set: 1024 = 4*256)
	c.Access(0, false)    // A is MRU
	c.Access(2048, false) // line C evicts B
	if !c.Contains(0) {
		t.Error("A evicted despite being MRU")
	}
	if c.Contains(1024) {
		t.Error("B survived despite being LRU")
	}
	if !c.Contains(2048) {
		t.Error("C not installed")
	}
}

func TestCacheWritebackOnDirtyEviction(t *testing.T) {
	c := tinyCache(1) // direct mapped, 4 sets
	c.Access(0, true) // dirty line at 0
	r := c.Access(1024, false)
	if !r.WritebackValid || r.Writeback != 0 {
		t.Fatalf("expected writeback of line 0, got %+v", r)
	}
	if c.Stats().Writebacks != 1 {
		t.Error("writeback not counted")
	}
	// Clean eviction must not write back.
	r = c.Access(2048, false)
	if r.WritebackValid {
		t.Fatalf("clean eviction produced writeback: %+v", r)
	}
}

func TestCacheWriteAllocateAndDirtyPropagation(t *testing.T) {
	c := tinyCache(2)
	c.Access(0, false)
	if c.Dirty(0) {
		t.Error("clean line marked dirty")
	}
	c.Access(32, true) // write hit dirties the line
	if !c.Dirty(0) {
		t.Error("write hit did not dirty line")
	}
}

func TestCacheFillAddressIsLineAligned(t *testing.T) {
	c := tinyCache(2)
	r := c.Access(1000, false)
	if !r.FillValid || r.Fill != 960 {
		t.Fatalf("fill = %+v, want line 960", r)
	}
}

func TestCacheFlush(t *testing.T) {
	c := tinyCache(2)
	c.Access(0, true)
	c.Access(64, false)
	c.Access(128, true)
	dirty := c.Flush()
	if len(dirty) != 2 {
		t.Fatalf("flush returned %v", dirty)
	}
	if c.Contains(0) || c.Contains(64) {
		t.Error("lines survive flush")
	}
}

func TestVictimAddrRoundTrip(t *testing.T) {
	// Evicting and refilling the same address must report the original
	// line address.
	c := tinyCache(1)
	addr := uint64(3*256 + 64*0) // set 3
	c.Access(addr, true)
	r := c.Access(addr+1024, false)
	if !r.WritebackValid || r.Writeback != addr {
		t.Fatalf("victim addr = %+v, want %d", r, addr)
	}
}

// Property: after any access sequence the cache invariants hold, and a
// just-accessed line is always present.
func TestCacheInvariantProperty(t *testing.T) {
	f := func(addrs []uint16, writes []bool) bool {
		c := tinyCache(4)
		for i, a := range addrs {
			w := i < len(writes) && writes[i]
			c.Access(uint64(a), w)
			if c.Invariant() != nil {
				return false
			}
			if !c.Contains(uint64(a)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: hits + misses == accesses and fills == misses.
func TestCacheAccountingProperty(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := tinyCache(2)
		for _, a := range addrs {
			c.Access(uint64(a), false)
		}
		st := c.Stats()
		return st.Hits+st.Misses == st.Accesses && st.Fills == st.Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTable1L2Shape(t *testing.T) {
	l2 := New(config.Table1L2())
	// 1 MB / 64 B = 16384 lines / 8 ways = 2048 sets.
	if sets := l2.setMask + 1; sets != 2048 {
		t.Errorf("L2 sets = %d, want 2048", sets)
	}
}

func TestHitRate(t *testing.T) {
	c := tinyCache(2)
	if c.Stats().HitRate() != 0 {
		t.Error("idle hit rate not 0")
	}
	c.Access(0, false)
	c.Access(0, false)
	if hr := c.Stats().HitRate(); hr != 0.5 {
		t.Errorf("hit rate = %v", hr)
	}
}

func TestDRAMCacheHitTouchesDataArray(t *testing.T) {
	d := NewDRAMCache(config.CacheConfig{
		Name: "3d", SizeBytes: 4096, LineBytes: 64, Ways: 1, WriteBack: true,
	})
	r := d.Access(0, 100, false)
	if r.Hit {
		t.Fatal("cold access hit")
	}
	// Miss: fill write to data array + memory read.
	if len(r.DataAccesses) != 1 || !r.DataAccesses[0].Write {
		t.Fatalf("miss data accesses = %v", r.DataAccesses)
	}
	if len(r.MemoryTraffic) != 1 || r.MemoryTraffic[0].Write {
		t.Fatalf("miss memory traffic = %v", r.MemoryTraffic)
	}
	r = d.Access(1, 100, false)
	if !r.Hit {
		t.Fatal("second access missed")
	}
	if len(r.DataAccesses) != 1 || r.DataAccesses[0].Write {
		t.Fatalf("hit data accesses = %v", r.DataAccesses)
	}
	if len(r.MemoryTraffic) != 0 {
		t.Fatalf("hit produced memory traffic: %v", r.MemoryTraffic)
	}
}

func TestDRAMCacheDirtyEviction(t *testing.T) {
	d := NewDRAMCache(config.CacheConfig{
		Name: "3d", SizeBytes: 4096, LineBytes: 64, Ways: 1, WriteBack: true,
	})
	d.Access(0, 0, true)          // dirty line 0
	r := d.Access(1, 4096, false) // conflicts in direct-mapped 4 KB cache
	if r.Hit {
		t.Fatal("conflicting access hit")
	}
	// Victim read from data array + fill write; victim write + fill read
	// to memory.
	if len(r.DataAccesses) != 2 {
		t.Fatalf("data accesses = %v", r.DataAccesses)
	}
	if r.DataAccesses[0].Write || !r.DataAccesses[1].Write {
		t.Fatalf("data access kinds = %v", r.DataAccesses)
	}
	if len(r.MemoryTraffic) != 2 {
		t.Fatalf("memory traffic = %v", r.MemoryTraffic)
	}
	if !r.MemoryTraffic[0].Write || r.MemoryTraffic[1].Write {
		t.Fatalf("memory traffic kinds = %v", r.MemoryTraffic)
	}
}

func TestDRAMCacheDataAddrWithinModule(t *testing.T) {
	d := NewDRAMCache(config.Table2_3DCache())
	r := d.Access(0, 1<<30, false) // far beyond 64 MB
	for _, a := range r.DataAccesses {
		if a.Addr >= 64<<20 {
			t.Fatalf("data address %d outside 64 MB module", a.Addr)
		}
	}
}

// Property: direct-mapped DRAM cache conflict behaviour — two addresses
// that differ by a multiple of the cache size always conflict.
func TestDRAMCacheConflictProperty(t *testing.T) {
	d := NewDRAMCache(config.CacheConfig{
		Name: "3d", SizeBytes: 1 << 20, LineBytes: 64, Ways: 1, WriteBack: true,
	})
	f := func(base uint32, k uint8) bool {
		a := uint64(base)
		b := a + (uint64(k%4)+1)*(1<<20)
		d.Access(0, a, false)
		r := d.Access(1, b, false)
		if r.Hit {
			return false
		}
		r2 := d.Access(2, a, false)
		return !r2.Hit // b evicted a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// refLine and refCache are the per-set [][]line tag store the packed
// layout replaced, kept as the reference model for
// TestCacheMatchesReference. Its sets start nil and grow on the first
// install, so a large fuzzed geometry costs no allocation per set.
type refLine struct {
	tag   uint64
	valid bool
	dirty bool
}

type refCache struct {
	cfg      config.CacheConfig
	sets     [][]refLine // each set ordered most- to least-recently used
	setMask  uint64
	lineBits uint
	stats    Stats
}

func newRefCache(cfg config.CacheConfig) *refCache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	lines := cfg.SizeBytes / int64(cfg.LineBytes)
	sets := int(lines / int64(cfg.Ways))
	return &refCache{
		cfg:      cfg,
		sets:     make([][]refLine, sets),
		setMask:  uint64(sets - 1),
		lineBits: uint(bits.TrailingZeros64(uint64(cfg.LineBytes))),
	}
}

func (c *refCache) LineAddr(addr uint64) uint64 { return addr &^ (uint64(c.cfg.LineBytes) - 1) }

func (c *refCache) index(addr uint64) (set int, tag uint64) {
	l := addr >> c.lineBits
	return int(l & c.setMask), l >> bits.TrailingZeros64(c.setMask+1)
}

func (c *refCache) Access(addr uint64, write bool) Result {
	c.stats.Accesses++
	setIdx, tag := c.index(addr)
	set := c.sets[setIdx]

	for i := range set {
		if set[i].valid && set[i].tag == tag {
			// Hit: move to MRU position.
			hitLine := set[i]
			if write {
				hitLine.dirty = true
			}
			copy(set[1:i+1], set[:i])
			set[0] = hitLine
			c.stats.Hits++
			return Result{Hit: true}
		}
	}

	// Miss.
	c.stats.Misses++
	res := Result{Fill: c.LineAddr(addr), FillValid: true}
	c.stats.Fills++
	newLine := refLine{tag: tag, valid: true, dirty: write}

	if len(set) < c.cfg.Ways {
		set = append(set, refLine{})
		copy(set[1:], set)
		set[0] = newLine
		c.sets[setIdx] = set
		return res
	}
	victim := set[len(set)-1]
	if victim.valid && victim.dirty {
		res.Writeback = c.victimAddr(setIdx, victim.tag)
		res.WritebackValid = true
		c.stats.Writebacks++
	}
	copy(set[1:], set)
	set[0] = newLine
	return res
}

func (c *refCache) Contains(addr uint64) bool {
	setIdx, tag := c.index(addr)
	for _, l := range c.sets[setIdx] {
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

func (c *refCache) Dirty(addr uint64) bool {
	setIdx, tag := c.index(addr)
	for _, l := range c.sets[setIdx] {
		if l.valid && l.tag == tag {
			return l.dirty
		}
	}
	return false
}

func (c *refCache) victimAddr(setIdx int, tag uint64) uint64 {
	setBits := uint(bits.TrailingZeros64(c.setMask + 1))
	return ((tag << setBits) | uint64(setIdx)) << c.lineBits
}

func (c *refCache) Flush() []uint64 {
	var dirty []uint64
	for si := range c.sets {
		for _, l := range c.sets[si] {
			if l.valid && l.dirty {
				dirty = append(dirty, c.victimAddr(si, l.tag))
			}
		}
		c.sets[si] = c.sets[si][:0]
	}
	return dirty
}

// refPair drives the chunked tag store and the [][]line reference side by
// side and fails on the first difference.
type refPair struct {
	t    testing.TB
	got  *Cache
	want *refCache
}

func newRefPair(t testing.TB, cfg config.CacheConfig) refPair {
	return refPair{t: t, got: New(cfg), want: newRefCache(cfg)}
}

// access compares one Access result and the Stats after it, and checks
// the invariant of the one set an access changes.
func (p refPair) access(step int, addr uint64, write bool) {
	p.t.Helper()
	if g, w := p.got.Access(addr, write), p.want.Access(addr, write); g != w {
		p.t.Fatalf("step %d Access(%#x, %v) = %+v, reference %+v", step, addr, write, g, w)
	}
	if p.got.Stats() != p.want.stats {
		p.t.Fatalf("step %d Stats = %+v, reference %+v", step, p.got.Stats(), p.want.stats)
	}
	if si, set, _ := p.got.lookup(addr); set == nil {
		p.t.Fatalf("step %d Access(%#x) left set %d unallocated", step, addr, si)
	} else if err := setInvariant(set, si); err != nil {
		p.t.Fatalf("step %d: %v", step, err)
	}
}

// probe compares Contains and Dirty, which must not allocate a chunk.
func (p refPair) probe(step int, addr uint64) {
	p.t.Helper()
	resident := p.got.residentChunks()
	if p.got.Contains(addr) != p.want.Contains(addr) || p.got.Dirty(addr) != p.want.Dirty(addr) {
		p.t.Fatalf("step %d probe %#x: Contains/Dirty %v/%v, reference %v/%v", step, addr,
			p.got.Contains(addr), p.got.Dirty(addr), p.want.Contains(addr), p.want.Dirty(addr))
	}
	if n := p.got.residentChunks(); n != resident {
		p.t.Fatalf("step %d probe %#x: %d chunks resident after, %d before", step, addr, n, resident)
	}
}

// invariant checks the tag store invariant.
func (p refPair) invariant(step int) {
	p.t.Helper()
	if err := p.got.Invariant(); err != nil {
		p.t.Fatalf("step %d: %v", step, err)
	}
}

// flush compares the order of every dirty line Flush returns.
func (p refPair) flush(step int) {
	p.t.Helper()
	if g, w := p.got.Flush(), p.want.Flush(); !slices.Equal(g, w) {
		p.t.Fatalf("step %d Flush = %v, reference %v", step, g, w)
	}
	p.invariant(step)
}

// TestCacheMatchesReference cross-checks the chunked tag store against
// the [][]line reference on seeded read/write streams: every Access
// result, Contains and Dirty probes, Stats, the invariant of the accessed
// set after every step, the invariant of the whole store after every step
// on one chunk and every 250 steps on several, and the order of every
// Flush. The stream reuses recent lines so hits land at every LRU depth,
// and flushes mid-stream so refills start from empty sets.
//
// The 16-set geometries fit in one chunk. The multi-chunk ones confine
// the stream to a few sets of chunk 0 and reach the last chunk only in
// the second half, so the chunks between stay untouched; probes range
// over the whole cache, untouched chunks included.
func TestCacheMatchesReference(t *testing.T) {
	for _, ways := range []int{1, 2, 4, 8} {
		for seed := uint64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("ways%d/seed%d", ways, seed), func(t *testing.T) {
				matchReference(t, 16, ways, seed)
			})
		}
	}
	for _, sets := range []int{2 * chunkSets, 4 * chunkSets} {
		for _, ways := range []int{1, 2, 8} {
			for seed := uint64(1); seed <= 4; seed++ {
				t.Run(fmt.Sprintf("sets%d/ways%d/seed%d", sets, ways, seed), func(t *testing.T) {
					matchReference(t, sets, ways, seed)
				})
			}
		}
	}
}

func matchReference(t *testing.T, sets, ways int, seed uint64) {
	cfg := config.CacheConfig{
		Name: "ref", SizeBytes: int64(sets * ways * 64), LineBytes: 64, Ways: ways, WriteBack: true,
	}
	p := newRefPair(t, cfg)
	rng := sim.NewRNG(seed)
	footprint := uint64(cfg.SizeBytes) * 3
	setBits := uint(bits.TrailingZeros(uint(sets)))
	// hot holds the sets a multi-chunk stream may touch: eight in chunk
	// 0, then from step 2000 eight more in the last chunk.
	var hot []uint64
	hotSets := func(chunk int) {
		for range 8 {
			hot = append(hot, uint64(chunk*chunkSets+rng.Intn(chunkSets)))
		}
	}
	chunks := len(p.got.chunks)
	if chunks > 1 {
		hotSets(0)
	}
	recent := make([]uint64, 0, 4*ways)
	for step := 0; step < 4000; step++ {
		if chunks > 1 && step == 2000 {
			hotSets(chunks - 1)
		}
		var addr uint64
		switch {
		case len(recent) > 0 && rng.Bool(0.5):
			addr = recent[rng.Intn(len(recent))] + rng.Uint64n(64)
		case chunks > 1:
			tag := rng.Uint64n(uint64(3 * ways))
			addr = (tag<<setBits|hot[rng.Intn(len(hot))])<<6 + rng.Uint64n(64)
		default:
			addr = rng.Uint64n(footprint)
		}
		if len(recent) < cap(recent) {
			recent = append(recent, p.got.LineAddr(addr))
		} else {
			recent[rng.Intn(len(recent))] = p.got.LineAddr(addr)
		}
		p.access(step, addr, rng.Bool(0.3))
		// The whole-store walk is cheap on one chunk; on several it
		// would dominate the run, so it thins out to every 250 steps.
		if chunks == 1 || step%250 == 0 {
			p.invariant(step)
		}
		p.probe(step, rng.Uint64n(footprint))
		if n, most := p.got.residentChunks(), (len(hot)+7)/8; chunks > 1 && n > most {
			t.Fatalf("step %d: %d chunks resident, stream touches %d", step, n, most)
		}
		if step%1000 == 999 {
			p.flush(step)
		}
	}
}

// TestCacheChunksFollowFootprint checks that a stream confined to the
// first F bytes leaves at most ⌈F / chunk span⌉ chunks resident, and
// exactly that many once it has touched every chunk the range overlaps.
func TestCacheChunksFollowFootprint(t *testing.T) {
	// Eight chunks of 4096 direct-mapped 64-byte sets: 256 KiB each.
	const chunks, span = 8, 4096 * 64
	cfg := config.CacheConfig{
		Name: "fp", SizeBytes: chunks * span, LineBytes: 64, Ways: 1, WriteBack: true,
	}
	if n := len(New(cfg).chunks); n != chunks {
		t.Fatalf("%d-byte cache has %d chunks, want %d", cfg.SizeBytes, n, chunks)
	}
	size := uint64(cfg.SizeBytes)
	for _, f := range []uint64{64, span - 64, span, span + 64, 3*span + span/2, size, 2 * size} {
		c := New(cfg)
		if n := c.residentChunks(); n != 0 {
			t.Fatalf("new cache has %d chunks resident", n)
		}
		bound := int(min((f+span-1)/span, chunks))
		rng := sim.NewRNG(f)
		for step := 0; step < 2000; step++ {
			c.Access(rng.Uint64n(f), rng.Bool(0.3))
			c.Contains(rng.Uint64n(4 * size))
			c.Dirty(rng.Uint64n(4 * size))
			if n := c.residentChunks(); n > bound {
				t.Fatalf("F=%d step %d: %d chunks resident, want at most %d", f, step, n, bound)
			}
		}
		for a := uint64(0); a < f; a += span / 2 {
			c.Access(a, false)
		}
		c.Access(f-1, false)
		if n := c.residentChunks(); n != bound {
			t.Errorf("F=%d: %d chunks resident after touching the whole range, want %d", f, n, bound)
		}
	}
}

// FuzzCacheMatchesReference runs arbitrary geometries, from one set to
// four chunks at 1 to 8 ways, and arbitrary operation streams against
// the [][]line reference. Each four-byte group of ops is one operation:
// the first byte picks a read, a write, a Contains/Dirty probe or (rarely)
// a Flush; the next two pick the set and the last the tag.
func FuzzCacheMatchesReference(f *testing.F) {
	f.Add(uint8(4), uint8(0), []byte{0, 1, 0, 0, 1, 1, 0, 1, 2, 1, 0, 0, 15, 0, 0, 0})
	f.Add(uint8(13), uint8(1), []byte{1, 0, 0, 2, 0, 0xff, 0x1f, 1, 2, 0, 0x10, 2, 0, 0, 0, 4})
	f.Add(uint8(14), uint8(3), []byte{1, 7, 0x30, 9, 0, 7, 0x30, 1, 2, 0, 0x20, 0, 15, 0, 0, 0})
	f.Fuzz(func(t *testing.T, setsLog, waysLog uint8, ops []byte) {
		sets := 1 << (setsLog % 15)
		ways := 1 << (waysLog % 4)
		cfg := config.CacheConfig{
			Name: "fuzz", SizeBytes: int64(sets * ways * 64), LineBytes: 64, Ways: ways, WriteBack: true,
		}
		p := newRefPair(t, cfg)
		setBits := uint(bits.TrailingZeros(uint(sets)))
		n := min(len(ops)/4, 4096)
		for i := range n {
			op := ops[4*i]
			set := (uint64(ops[4*i+1]) | uint64(ops[4*i+2])<<8) & uint64(sets-1)
			tag := uint64(ops[4*i+3]) % uint64(3*ways+1)
			addr := (tag<<setBits|set)<<6 | uint64(op>>4)<<2
			switch {
			case op&0x0f == 0x0f:
				p.flush(i)
			case op&3 == 2:
				p.probe(i, addr)
			default:
				p.access(i, addr, op&1 == 1)
			}
		}
		p.invariant(n)
		p.flush(n)
	})
}

// TestCacheInvariantCatchesCorruption checks Invariant reports each broken
// tag-store property.
func TestCacheInvariantCatchesCorruption(t *testing.T) {
	line := func(tag uint64) uint64 { return tag<<tagShift | validBit }
	for name, set := range map[string][]uint64{
		"duplicate tag":    {line(3), line(3), 0, 0},
		"gap in prefix":    {line(3), 0, line(5), 0},
		"dirty invalid":    {line(3), dirtyBit, 0, 0},
		"stale tag":        {line(3), 7 << tagShift, 0, 0},
		"dirty after hole": {0, line(4) | dirtyBit, 0, 0},
	} {
		c := tinyCache(4)
		copy(c.allocChunk(1), set)
		if c.Invariant() == nil {
			t.Errorf("%s: %v passes Invariant", name, set)
		}
	}
	c := tinyCache(4)
	copy(c.allocChunk(1), []uint64{line(3) | dirtyBit, line(4), 0, 0})
	if err := c.Invariant(); err != nil {
		t.Errorf("well-formed set rejected: %v", err)
	}
}

// Access and AppendAccess share one core. On seeded random streams over
// a direct-mapped and a set-associative cache, Access's Hit and
// DataAccesses must equal what AppendAccess reports, and with
// MemoryTraffic must equal what the reference tag model's result
// implies: a hit is one data-array access; a miss reads a dirty victim
// out of the data array and writes it back to memory, then fetches the
// line and fills the data array.
func TestDRAMCacheAccessMatchesCore(t *testing.T) {
	for _, ways := range []int{1, 4} {
		cfg := config.CacheConfig{Name: "t", SizeBytes: 64 << 10, LineBytes: 64, Ways: ways, WriteBack: true}
		whole, lean, ref := NewDRAMCache(cfg), NewDRAMCache(cfg), newRefCache(cfg)
		size := uint64(cfg.SizeBytes)
		rng := sim.NewRNG(uint64(ways))
		var got []MemRequest
		var hits, writebacks int
		for step := 0; step < 20000; step++ {
			r := rng.Uint64()
			at, addr, write := sim.Time(step), r&(4*size-1), r>>62 == 0
			res := whole.Access(at, addr, write)
			var hit bool
			got, hit = lean.AppendAccess(got[:0], at, addr, write)

			tag := ref.Access(addr, write)
			var data, mem []MemRequest
			if tag.Hit {
				data = append(data, MemRequest{Time: at, Addr: addr % size, Write: write})
			} else {
				if tag.WritebackValid {
					data = append(data, MemRequest{Time: at, Addr: tag.Writeback % size})
					mem = append(mem, MemRequest{Time: at, Addr: tag.Writeback, Write: true})
					writebacks++
				}
				data = append(data, MemRequest{Time: at, Addr: tag.Fill % size, Write: true})
				mem = append(mem, MemRequest{Time: at, Addr: tag.Fill})
			}
			if tag.Hit {
				hits++
			}
			if res.Hit != hit || hit != tag.Hit ||
				!slices.Equal(res.DataAccesses, got) || !slices.Equal(got, data) ||
				!slices.Equal(res.MemoryTraffic, mem) {
				t.Fatalf("%d-way step %d: Access %+v, AppendAccess hit %v data %v; reference hit %v data %v memory %v",
					ways, step, res, hit, got, tag.Hit, data, mem)
			}
		}
		if hits == 0 || writebacks == 0 {
			t.Fatalf("%d-way: stream not mixed: %d hits, %d dirty evictions", ways, hits, writebacks)
		}
	}
}
