package core

import (
	"fmt"
	"math/bits"

	"smartrefresh/internal/dram"
	"smartrefresh/internal/sim"
)

// RAIDR (Retention-Aware Intelligent DRAM Refresh, Liu et al. ISCA'12)
// is the production-shaped form of retention-aware refresh the ROADMAP
// names: rows are binned by profiled retention time, the weak minority
// is refreshed at the base interval (64 ms) while the bulk goes at 2x or
// 4x that (128/256 ms), and bin membership is stored in Bloom filters so
// the controller's storage stays constant no matter how many rows the
// device has — the property that makes the scheme viable at billion-row
// scale, where RetentionAwareSmart's byte-per-row counters would not be.
//
// Mechanism: a single refresh wheel walks every row once per base
// interval at the same drift-free cadence as distributed CBR, visiting
// banks round-robin. On wheel pass p the row's bin is resolved through
// the per-bin Bloom filters and the row is refreshed only when
// p % binMultiplier == 0 — a class-c row is touched every c intervals.
//
// Safety argument (the false-positive -> conservative-refresh
// guarantee): the filters are probed weakest-bin-first and the first
// positive wins; the strongest bin is implicit (no filter). Bloom
// filters have no false negatives, so a row inserted into its profiled
// bin always matches at or before that bin in probe order. A false
// positive in an earlier (weaker) probe therefore only moves the row to
// a *smaller* multiplier — it is refreshed more often than its profile
// requires, never less. Misclassification can waste refreshes but can
// never cross a retention deadline derived from the profiled map.
// (Whether the *profile itself* is right is a separate question — the
// workload package's VRT and profile-error models quantify exactly
// that, and the raidr ablation reports the resulting at-risk rows.)

// BloomFilter is a fixed-size Bloom filter over uint64 keys, using
// double hashing to derive its probe sequence. Storage is Bits/8 bytes
// regardless of how many keys are added; membership tests have no false
// negatives and a false-positive rate set by the bits-per-key ratio.
type BloomFilter struct {
	mask   uint64 // Bits-1; Bits is a power of two
	hashes int
	seed   uint64
	words  []uint64
	n      uint64 // keys added
}

// NewBloomFilter builds an empty filter of the given size. bits must be
// a power of two >= 64; hashes must be in 1..16.
func NewBloomFilter(bits, hashes int, seed uint64) *BloomFilter {
	if bits < 64 || bits&(bits-1) != 0 {
		panic(fmt.Sprintf("core: bloom bits %d not a power of two >= 64", bits))
	}
	if hashes < 1 || hashes > 16 {
		panic(fmt.Sprintf("core: bloom hashes %d outside 1..16", hashes))
	}
	return &BloomFilter{
		mask:   uint64(bits) - 1,
		hashes: hashes,
		seed:   seed,
		words:  make([]uint64, bits/64),
	}
}

// bloomMix is the splitmix64 finalizer; it spreads the dense row-index
// keys across the filter uniformly.
func bloomMix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// probes derives the double-hashing pair for a key. h2 is forced odd so
// the probe sequence visits distinct positions over the power-of-two
// table.
func (f *BloomFilter) probes(key uint64) (h1, h2 uint64) {
	h1 = bloomMix(key + f.seed)
	h2 = bloomMix(h1^0x9e3779b97f4a7c15) | 1
	return h1, h2
}

// Add inserts a key.
func (f *BloomFilter) Add(key uint64) {
	h1, h2 := f.probes(key)
	for i := 0; i < f.hashes; i++ {
		bit := (h1 + uint64(i)*h2) & f.mask
		f.words[bit>>6] |= 1 << (bit & 63)
	}
	f.n++
}

// Contains reports (probabilistic) membership: always true for added
// keys, true with the false-positive rate for others.
func (f *BloomFilter) Contains(key uint64) bool {
	h1, h2 := f.probes(key)
	for i := 0; i < f.hashes; i++ {
		bit := (h1 + uint64(i)*h2) & f.mask
		if f.words[bit>>6]&(1<<(bit&63)) == 0 {
			return false
		}
	}
	return true
}

// Count returns the number of keys added.
func (f *BloomFilter) Count() uint64 { return f.n }

// SizeBytes returns the filter's storage footprint.
func (f *BloomFilter) SizeBytes() int { return len(f.words) * 8 }

// RAIDRConfig parameterises the multirate wheel and its bin storage.
type RAIDRConfig struct {
	// BinMultipliers lists the refresh-rate bins in strictly increasing
	// order of retention multiplier. The first must be 1 (the base
	// interval — the rate every unprofiled or weakest row gets), and the
	// last bin is implicit: it has no Bloom filter, and rows matching no
	// filter land there. The default {1, 2, 4} is the paper's
	// 64/128/256 ms schedule at a 64 ms base interval.
	BinMultipliers []int
	// BloomBits is the per-bin filter size in bits (a power of two).
	// The default 1 Mi bits = 128 KB per explicit bin keeps the
	// false-positive rate negligible even when half the module's rows
	// land in one bin (the dense synthetic class mix used here, unlike
	// the paper's sparse weak set) — and stays constant whether the
	// module has 2^17 or 2^30 rows.
	BloomBits int
	// BloomHashes is the probe count per filter lookup.
	BloomHashes int
	// Seed salts the filter hash functions (each bin forks its own).
	Seed uint64
}

// DefaultRAIDRConfig returns the 64/128/256 ms three-bin configuration
// with 128 KB filters per explicit bin.
func DefaultRAIDRConfig() RAIDRConfig {
	return RAIDRConfig{
		BinMultipliers: []int{1, 2, 4},
		BloomBits:      1 << 20,
		BloomHashes:    6,
		Seed:           0x5241494452, // "RAIDR"
	}
}

// withDefaults fills zero fields from the default configuration.
func (c RAIDRConfig) withDefaults() RAIDRConfig {
	d := DefaultRAIDRConfig()
	if c.BinMultipliers == nil {
		c.BinMultipliers = d.BinMultipliers
	}
	if c.BloomBits == 0 {
		c.BloomBits = d.BloomBits
	}
	if c.BloomHashes == 0 {
		c.BloomHashes = d.BloomHashes
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	return c
}

// validate rejects configurations the safety argument does not cover.
func (c RAIDRConfig) validate() error {
	if len(c.BinMultipliers) == 0 {
		return fmt.Errorf("core: raidr needs at least one bin")
	}
	if c.BinMultipliers[0] != 1 {
		return fmt.Errorf("core: raidr weakest bin multiplier is %d, must be 1 so every row has a safe fallback rate", c.BinMultipliers[0])
	}
	prev := 0
	for _, m := range c.BinMultipliers {
		if m <= prev {
			return fmt.Errorf("core: raidr bin multipliers %v not strictly increasing", c.BinMultipliers)
		}
		if m > 16 {
			return fmt.Errorf("core: raidr bin multiplier %d outside 1..16", m)
		}
		prev = m
	}
	if c.BloomBits < 64 || c.BloomBits&(c.BloomBits-1) != 0 {
		return fmt.Errorf("core: raidr bloom bits %d not a power of two >= 64", c.BloomBits)
	}
	if c.BloomHashes < 1 || c.BloomHashes > 16 {
		return fmt.Errorf("core: raidr bloom hashes %d outside 1..16", c.BloomHashes)
	}
	return nil
}

// RAIDR is the multirate refresh wheel policy. It is demand-oblivious
// (like CBR, it ignores row restores from traffic) and emits RAS-only
// refreshes with explicit row addresses, since the module's internal
// CBR counter cannot skip rows.
type RAIDR struct {
	geom dram.Geometry
	cfg  RAIDRConfig

	// filters holds one Bloom filter per explicit (non-final) bin, in
	// BinMultipliers order; the last bin is implicit.
	filters []*BloomFilter
	// prof is the profiled retention map the filters were programmed
	// from. Refresh decisions never read it — they go through the
	// filters alone, preserving the constant-memory claim — it is
	// retained only so false-positive telemetry can compare the filter
	// verdict against the profile.
	prof *RetentionMap

	// clock walks the wheel: TotalRows slots per base interval, so
	// clock.frac is the slot within the pass and clock.whole the pass.
	clock    slotClock
	bankBits uint // log2 of TotalBanks, for slotFlat
	// dueBins has bit i set when bin i refreshes on the current pass
	// (the pass is a multiple of its multiplier); set at each pass's
	// first slot.
	dueBins uint32
	stats   PolicyStats
}

// NewRAIDR builds the policy and programs its bin filters from the
// profiled retention map: each row whose bin is not the strongest is
// inserted into its bin's filter. Zero cfg fields take defaults; an
// invalid configuration or geometry panics, matching the other policy
// constructors.
func NewRAIDR(g dram.Geometry, interval sim.Duration, cfg RAIDRConfig, prof *RetentionMap) *RAIDR {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	if prof == nil {
		panic("core: raidr needs a profiled retention map")
	}
	if err := prof.CheckRows(&g); err != nil {
		panic(err)
	}
	r := &RAIDR{
		geom:     g,
		cfg:      cfg,
		prof:     prof,
		clock:    newSlotClock(interval, int64(g.TotalRows())),
		bankBits: uint(bits.TrailingZeros(uint(g.TotalBanks()))),
	}
	r.filters = make([]*BloomFilter, len(cfg.BinMultipliers)-1)
	for i := range r.filters {
		r.filters[i] = NewBloomFilter(cfg.BloomBits, cfg.BloomHashes, bloomMix(cfg.Seed+uint64(i)*0x9e3779b97f4a7c15))
	}
	for flat := 0; flat < g.TotalRows(); flat++ {
		if bin := r.binIndexFor(prof.multiplierFlat(flat)); bin < len(r.filters) {
			r.filters[bin].Add(uint64(flat))
		}
	}
	r.Reset(0)
	return r
}

// binIndexFor maps a profiled retention multiplier to its bin index: the
// strongest configured bin whose multiplier does not exceed the profile
// (rounding *down* in retention — the conservative direction). A profile
// below the weakest bin lands in bin 0, which the config forces to the
// base rate.
func (r *RAIDR) binIndexFor(mult int) int {
	bin := 0
	for i, m := range r.cfg.BinMultipliers {
		if m > mult {
			break
		}
		bin = i
	}
	return bin
}

// lookupBin resolves a row's refresh bin index through the Bloom
// filters: probe weakest-first, first positive wins, no match means the
// implicit strongest bin. This is the only input to the refresh
// decision.
func (r *RAIDR) lookupBin(flat int) int {
	key := uint64(flat)
	for i, f := range r.filters {
		if f.Contains(key) {
			return i
		}
	}
	return len(r.filters)
}

// BinMultiplier returns the refresh-rate multiplier the wheel applies to
// the row with the given flat index — the Bloom-filter verdict,
// including any false-positive demotions to weaker bins. The ablation
// harness uses it to compare the operating rate against true retention.
func (r *RAIDR) BinMultiplier(flat int) int { return r.cfg.BinMultipliers[r.lookupBin(flat)] }

// RefreshShare returns the fraction of CBR's refresh work the wheel
// performs per base interval: sum over rows of 1/binMultiplier, divided
// by the row count. The differential harness uses it to scale the
// oracle bound.
func (r *RAIDR) RefreshShare() float64 {
	total := r.geom.TotalRows()
	share := 0.0
	for flat := 0; flat < total; flat++ {
		share += 1 / float64(r.BinMultiplier(flat))
	}
	return share / float64(total)
}

// FilterSizeBytes returns the total Bloom storage — the policy's whole
// per-row-independent state.
func (r *RAIDR) FilterSizeBytes() int {
	n := 0
	for _, f := range r.filters {
		n += f.SizeBytes()
	}
	return n
}

// Name implements Policy.
func (r *RAIDR) Name() string { return "raidr" }

// Reset implements Policy. The filters keep their programming — they
// are profile state, not run state.
func (r *RAIDR) Reset(start sim.Time) {
	r.clock.reset(start)
	r.dueBins = 0
	r.stats = PolicyStats{}
}

// OnRowRestore implements Policy; the wheel is demand-oblivious.
func (r *RAIDR) OnRowRestore(sim.Time, dram.RowID) {}

// slotFlat maps a wheel slot within a pass to a flat row index,
// interleaving banks round-robin (consecutive slots hit different
// banks, so due refreshes never chain behind one bank — the same shape
// as CBR's bank walk).
func (r *RAIDR) slotFlat(slot int64) int {
	bank := int(slot) & (1<<r.bankBits - 1)
	return bank*r.geom.Rows + int(slot)>>r.bankBits
}

// NextTick implements Policy.
func (r *RAIDR) NextTick() (sim.Time, bool) { return r.clock.at, true }

// Advance implements Policy: constant work per wheel slot — one filter
// chain lookup, then either a RAS-only refresh command or a skip.
func (r *RAIDR) Advance(t sim.Time, dst []Command) []Command {
	for r.clock.at <= t {
		slot := r.clock.frac
		if slot == 0 {
			// A new pass: a class-c row refreshes on every c-th pass only.
			r.dueBins = 0
			for i, m := range r.cfg.BinMultipliers {
				if r.clock.whole%int64(m) == 0 {
					r.dueBins |= 1 << i
				}
			}
		}
		r.clock.next()

		flat := r.slotFlat(slot)
		bin := r.lookupBin(flat)
		r.stats.BloomLookups++
		if r.prof != nil && bin < r.binIndexFor(r.prof.multiplierFlat(flat)) {
			r.stats.BloomFalsePositives++
		}
		if r.dueBins&(1<<bin) == 0 {
			// Not this row's pass.
			r.stats.SkippedIndexings++
			continue
		}
		bank, row := dram.SplitRow(&r.geom, flat)
		dst = append(dst, Command{Bank: bank, Row: row, Kind: dram.RefreshRASOnly})
		r.stats.RefreshesRequested++
	}
	return dst
}

// Stats implements Policy.
func (r *RAIDR) Stats() PolicyStats { return r.stats }
