package cache

import (
	"smartrefresh/internal/config"
	"smartrefresh/internal/sim"
)

// MemRequest is traffic the 3D cache emits toward a DRAM module.
type MemRequest struct {
	Time  sim.Time
	Addr  uint64
	Write bool
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
