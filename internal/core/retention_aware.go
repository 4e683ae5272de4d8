package core

import (
	"fmt"

	"smartrefresh/internal/dram"
	"smartrefresh/internal/sim"
)

// Retention-aware refresh, the extension direction the paper's related
// work singles out as orthogonal to Smart Refresh (section 8: RAPID
// [Venkatesan et al.] and the VRA scheme of Ohsawa et al. exploit the
// fact that most DRAM cells retain data far longer than the worst-case
// interval). The combination implemented here keeps Smart Refresh's
// access-driven counter resets and staggered indexing, but lets each
// row's counter count down from a class-dependent maximum: a row whose
// measured retention is c times the base interval resets to c*2^bits - 1
// and is therefore refreshed only every c intervals when idle.

// RetentionClass is one bin of rows sharing a retention multiplier.
type RetentionClass struct {
	// Multiplier is the row's retention time in base intervals (1 = the
	// worst-case rows every DRAM must assume without profiling).
	Multiplier int
	// Fraction is the share of rows in this class.
	Fraction float64
}

// DefaultRetentionClasses returns the distribution retention-profiling
// studies report: a small population of weak cells pins a minority of
// rows at the base interval while most rows retain 2-4x longer.
func DefaultRetentionClasses() []RetentionClass {
	return []RetentionClass{
		{Multiplier: 1, Fraction: 0.20},
		{Multiplier: 2, Fraction: 0.50},
		{Multiplier: 4, Fraction: 0.30},
	}
}

// RetentionMap assigns a retention multiplier to every row. In a real
// system it would be produced by a profiling pass (RAPID's software
// probing); here it is generated deterministically from a seed.
type RetentionMap struct {
	mult []uint8 // by flat row index
}

// NewRetentionMap assigns rows to classes pseudo-randomly in the given
// fractions. It panics on an empty or inconsistent class list.
func NewRetentionMap(g dram.Geometry, classes []RetentionClass, seed uint64) *RetentionMap {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	if len(classes) == 0 {
		panic("core: no retention classes")
	}
	var total float64
	for _, c := range classes {
		if c.Multiplier < 1 || c.Multiplier > 16 {
			panic(fmt.Sprintf("core: retention multiplier %d outside 1..16", c.Multiplier))
		}
		if c.Fraction < 0 {
			panic("core: negative class fraction")
		}
		total += c.Fraction
	}
	if total <= 0 {
		panic("core: class fractions sum to zero")
	}

	m := &RetentionMap{mult: make([]uint8, g.TotalRows())}
	rng := sim.NewRNG(seed)
	for i := range m.mult {
		m.mult[i] = classify(classes, rng.Float64()*total)
	}
	return m
}

// classify maps one uniform draw r in [0, total-fraction) to a class
// multiplier by walking the accumulated fractions. A draw that escapes
// the accumulation through floating-point shortfall (the partial sums
// can undershoot the pre-summed total in the last ulps) falls back to
// the last class.
func classify(classes []RetentionClass, r float64) uint8 {
	acc := 0.0
	for _, c := range classes {
		acc += c.Fraction
		if r < acc {
			return uint8(c.Multiplier)
		}
	}
	return uint8(classes[len(classes)-1].Multiplier)
}

// NewRetentionMapFromMultipliers wraps an explicit per-row multiplier
// assignment — the path the VRT/profile-error harness uses to build a
// *profiled* map that deliberately disagrees with the true one. The
// slice is copied; it must cover every row with multipliers in 1..16.
func NewRetentionMapFromMultipliers(g dram.Geometry, mult []uint8) *RetentionMap {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	if len(mult) != g.TotalRows() {
		panic(fmt.Sprintf("core: %d multipliers for %d rows", len(mult), g.TotalRows()))
	}
	m := &RetentionMap{mult: make([]uint8, len(mult))}
	for i, v := range mult {
		if v < 1 || v > 16 {
			panic(fmt.Sprintf("core: retention multiplier %d outside 1..16", v))
		}
		m.mult[i] = v
	}
	return m
}

// Multipliers returns a copy of the per-row multiplier assignment,
// indexed by flat row index.
func (m *RetentionMap) Multipliers() []uint8 {
	out := make([]uint8, len(m.mult))
	copy(out, m.mult)
	return out
}

// multiplierFlat avoids re-deriving the flat index on hot paths.
func (m *RetentionMap) multiplierFlat(flat int) int { return int(m.mult[flat]) }

// Histogram returns the row count per multiplier value.
func (m *RetentionMap) Histogram() map[int]int {
	out := map[int]int{}
	for _, v := range m.mult {
		out[int(v)]++
	}
	return out
}

// CheckRows reports an error, naming both row counts, unless the map
// holds one multiplier per row of g: a map built for another geometry
// would give rows the wrong multipliers, or none.
func (m *RetentionMap) CheckRows(g *dram.Geometry) error {
	if len(m.mult) != g.TotalRows() {
		return fmt.Errorf("core: retention map of %d rows on a module of %d rows", len(m.mult), g.TotalRows())
	}
	return nil
}

// RetentionAwareSmart combines Smart Refresh with per-row retention
// classes: identical indexing, staggering, pending-queue and self-disable
// machinery would apply, but counters of long-retention rows start
// higher, so idle rows of class c are refreshed every c intervals.
//
// The implementation reuses the Smart tick engine and only overrides the
// reset values, keeping the section 5 queue bound intact (a tick still
// touches exactly Segments counters).
type RetentionAwareSmart struct {
	*Smart
	rmap *RetentionMap
}

// NewRetentionAwareSmart builds the combined policy. SelfDisable is
// forced off: the CBR fallback refreshes every row at the base rate and
// would waste the retention profile (a real design would fall back to a
// multi-rate wheel instead).
func NewRetentionAwareSmart(g dram.Geometry, interval sim.Duration, cfg SmartConfig, rmap *RetentionMap) *RetentionAwareSmart {
	if rmap == nil {
		panic("core: nil retention map")
	}
	if err := rmap.CheckRows(&g); err != nil {
		panic(err)
	}
	maxMult := 1
	for _, v := range rmap.mult {
		if int(v) > maxMult {
			maxMult = int(v)
		}
	}
	if maxMult<<cfg.CounterBits > 256 {
		panic(fmt.Sprintf("core: multiplier %d with %d-bit base counters overflows the counter byte",
			maxMult, cfg.CounterBits))
	}
	cfg.SelfDisable = false
	s := NewSmart(g, interval, cfg)
	r := &RetentionAwareSmart{Smart: s, rmap: rmap}
	s.maxFor = func(flat int) uint8 {
		return uint8(rmap.multiplierFlat(flat)<<cfg.CounterBits - 1)
	}
	s.seedStagger()
	return r
}

// Name implements Policy.
func (r *RetentionAwareSmart) Name() string { return "smart-retention" }

// Map exposes the retention map.
func (r *RetentionAwareSmart) Map() *RetentionMap { return r.rmap }
