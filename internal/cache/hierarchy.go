package cache

import (
	"smartrefresh/internal/config"
	"smartrefresh/internal/sim"
)

// MemRequest is traffic a cache level emits toward the level below it.
type MemRequest struct {
	Time  sim.Time
	Addr  uint64
	Write bool
}

// Hierarchy chains SRAM cache levels (e.g. L1 then the Table 1 L2) and
// converts a CPU access stream into the miss-plus-writeback stream the
// DRAM sees — the role Ruby plays in the paper's toolchain.
type Hierarchy struct {
	levels []*Cache
	// pending and next are the two scratch buffers Access swaps between
	// levels: the requests entering a level and those it emits.
	pending, next []MemRequest
}

// NewHierarchy builds a hierarchy from outermost CPU-side to innermost
// memory-side configuration order (L1 first).
func NewHierarchy(cfgs ...config.CacheConfig) *Hierarchy {
	h := &Hierarchy{}
	for _, cfg := range cfgs {
		h.levels = append(h.levels, New(cfg))
	}
	return h
}

// Level returns the i-th cache (0 = closest to the CPU).
func (h *Hierarchy) Level(i int) *Cache { return h.levels[i] }

// Depth returns the number of levels.
func (h *Hierarchy) Depth() int { return len(h.levels) }

// Access runs one CPU access through every level and returns the memory
// requests that reach DRAM (fills as reads, write-backs as writes). The
// returned slice is reused across calls; copy it to retain.
func (h *Hierarchy) Access(t sim.Time, addr uint64, write bool) []MemRequest {
	pending := append(h.pending[:0], MemRequest{Time: t, Addr: addr, Write: write})
	next := h.next
	for _, lvl := range h.levels {
		next = next[:0]
		for _, req := range pending {
			res := lvl.Access(req.Addr, req.Write)
			if res.WritebackValid {
				next = append(next, MemRequest{Time: req.Time, Addr: res.Writeback, Write: true})
			}
			if !res.Hit && res.FillValid {
				next = append(next, MemRequest{Time: req.Time, Addr: res.Fill, Write: false})
			}
		}
		pending, next = next, pending
		if len(pending) == 0 {
			break
		}
	}
	h.pending, h.next = pending, next
	return pending
}

// FlushAll flushes every level from the CPU side inward and returns the
// resulting DRAM write stream.
func (h *Hierarchy) FlushAll(t sim.Time) []MemRequest {
	var out []MemRequest
	for i, lvl := range h.levels {
		for _, addr := range lvl.Flush() {
			// Dirty lines from upper levels write into the next level;
			// from the last level they go to memory.
			if i+1 < len(h.levels) {
				res := h.levels[i+1].Access(addr, true)
				if res.WritebackValid {
					out = append(out, MemRequest{Time: t, Addr: res.Writeback, Write: true})
				}
			} else {
				out = append(out, MemRequest{Time: t, Addr: addr, Write: true})
			}
		}
	}
	return out
}

// MultiCoreHierarchy models the paper's SPLASH-2 platform: private L1s
// over one shared L2 ("a 2-processor emulated CMP system sharing a 1MB
// conventional L2 cache", section 6). Coherence is modelled minimally: a
// write that hits another core's L1 line relies on the shared L2 being
// inclusive of nothing (write-back L1s are private per address space in
// the paper's multiprogrammed runs, so cross-core sharing is rare); the
// structure captures what matters to the DRAM study — the shared L2's
// filtering of the combined miss stream.
type MultiCoreHierarchy struct {
	l1s []*Cache
	l2  *Cache
	out []MemRequest
}

// NewMultiCoreHierarchy builds n private L1s over one shared L2.
func NewMultiCoreHierarchy(n int, l1 config.CacheConfig, l2 config.CacheConfig) *MultiCoreHierarchy {
	if n < 1 {
		panic("cache: need at least one core")
	}
	h := &MultiCoreHierarchy{l2: New(l2)}
	for i := 0; i < n; i++ {
		h.l1s = append(h.l1s, New(l1))
	}
	return h
}

// Cores returns the core count.
func (h *MultiCoreHierarchy) Cores() int { return len(h.l1s) }

// L1 returns core i's private L1.
func (h *MultiCoreHierarchy) L1(i int) *Cache { return h.l1s[i] }

// L2 returns the shared L2.
func (h *MultiCoreHierarchy) L2() *Cache { return h.l2 }

// Access runs core's access through its L1 and the shared L2, returning
// the DRAM traffic. The returned slice is reused across calls.
func (h *MultiCoreHierarchy) Access(core int, t sim.Time, addr uint64, write bool) []MemRequest {
	h.out = h.out[:0]
	res := h.l1s[core].Access(addr, write)
	pending := make([]MemRequest, 0, 2)
	if res.WritebackValid {
		pending = append(pending, MemRequest{Time: t, Addr: res.Writeback, Write: true})
	}
	if !res.Hit && res.FillValid {
		pending = append(pending, MemRequest{Time: t, Addr: res.Fill, Write: false})
	}
	for _, req := range pending {
		r2 := h.l2.Access(req.Addr, req.Write)
		if r2.WritebackValid {
			h.out = append(h.out, MemRequest{Time: t, Addr: r2.Writeback, Write: true})
		}
		if !r2.Hit && r2.FillValid {
			h.out = append(h.out, MemRequest{Time: t, Addr: r2.Fill, Write: false})
		}
	}
	return h.out
}

// DRAMCacheResult describes one access to the 3D DRAM cache.
type DRAMCacheResult struct {
	Hit bool
	// DataAccesses are the accesses performed on the stacked DRAM data
	// array (address within the cache, i.e. set/way coordinates mapped
	// onto the 64 MB module): the demand access itself, the victim
	// read-out on a dirty eviction, and the line fill.
	DataAccesses []MemRequest
	// MemoryTraffic is what goes to the conventional DRAM behind the
	// cache: the victim write-back and the fill fetch.
	MemoryTraffic []MemRequest
}

// DRAMCache is the 3D die-stacked DRAM cache: an SRAM tag array (on the
// processor die) in front of a DRAM data array (the stacked module). The
// caller forwards DataAccesses to the stacked module's memory controller
// — that is what makes hits refresh-relevant — and MemoryTraffic to the
// backing store.
type DRAMCache struct {
	tags      *Cache
	dataRes   []MemRequest
	memRes    []MemRequest
	sizeBytes int64
}

// NewDRAMCache builds the Table 2 3D cache front-end.
func NewDRAMCache(cfg config.CacheConfig) *DRAMCache {
	return &DRAMCache{tags: New(cfg), sizeBytes: cfg.SizeBytes}
}

// Tags exposes the SRAM tag array.
func (d *DRAMCache) Tags() *Cache { return d.tags }

// dataAddr maps a physical address to its slot in the cache data array:
// set index * line size + offset, which for a direct-mapped cache is
// simply the address modulo the cache size. (For associative data arrays
// the way index would be folded in; Table 2 is direct mapped.)
func (d *DRAMCache) dataAddr(addr uint64) uint64 { return addr % uint64(d.sizeBytes) }

// Access runs one L2-miss access against the 3D cache. The returned
// slices are reused across calls.
func (d *DRAMCache) Access(t sim.Time, addr uint64, write bool) DRAMCacheResult {
	d.dataRes = d.dataRes[:0]
	d.memRes = d.memRes[:0]
	line := d.tags.LineAddr(addr)
	res := d.tags.Access(addr, write)
	out := DRAMCacheResult{Hit: res.Hit}
	if res.Hit {
		// Hit: one data-array access in the stacked DRAM.
		d.dataRes = append(d.dataRes, MemRequest{Time: t, Addr: d.dataAddr(addr), Write: write})
	} else {
		if res.WritebackValid {
			// Read the victim out of the data array, write it to memory.
			d.dataRes = append(d.dataRes, MemRequest{Time: t, Addr: d.dataAddr(res.Writeback), Write: false})
			d.memRes = append(d.memRes, MemRequest{Time: t, Addr: res.Writeback, Write: true})
		}
		// Fetch the line from memory and fill the data array.
		d.memRes = append(d.memRes, MemRequest{Time: t, Addr: line, Write: false})
		d.dataRes = append(d.dataRes, MemRequest{Time: t, Addr: d.dataAddr(line), Write: true})
	}
	out.DataAccesses = d.dataRes
	out.MemoryTraffic = d.memRes
	return out
}
