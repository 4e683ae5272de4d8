package core

import (
	"fmt"

	"smartrefresh/internal/dram"
	"smartrefresh/internal/sim"
)

// RetentionChecker validates the section 4.3 correctness property: every
// row's cells are restored (by a demand activate/precharge or by a refresh)
// at least once per retention deadline. The controller feeds it every
// restore event; tests and debug runs then assert no violation occurred.
type RetentionChecker struct {
	geom     dram.Geometry
	deadline sim.Duration
	rmap     *RetentionMap // optional: per-row deadline multipliers

	lastRestore []sim.Time
	worstGap    sim.Duration
	violations  uint64
	firstBad    int // flat row index (RowID.Flat) of the first violation
	firstBadGap sim.Duration
}

// NewRetentionChecker creates a checker that treats every row as restored
// at time zero and requires restores at least every deadline thereafter.
// With a retention map, a row's deadline is the base deadline scaled by
// its retention multiplier — the invariant the retention-aware policies
// must satisfy. It panics on an invalid geometry, a non-positive deadline
// or a map of another row count.
func NewRetentionChecker(g dram.Geometry, deadline sim.Duration, rmap *RetentionMap) *RetentionChecker {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	// A vault's checker and table own their cache lines (DESIGN §16).
	c := sim.OwnLine[RetentionChecker]()
	*c = RetentionChecker{geom: g, lastRestore: sim.OwnLines[sim.Time](g.TotalRows())}
	c.Reset(deadline, rmap)
	return c
}

// Reset readies the checker for a new run on its geometry, keeping its
// table: the checker NewRetentionChecker(g, deadline, rmap) returns. It
// panics as NewRetentionChecker does.
func (c *RetentionChecker) Reset(deadline sim.Duration, rmap *RetentionMap) {
	if deadline <= 0 {
		panic("core: non-positive retention deadline")
	}
	if rmap != nil {
		if err := rmap.CheckRows(&c.geom); err != nil {
			panic(err)
		}
	}
	c.deadline, c.rmap = deadline, rmap
	clear(c.lastRestore)
	c.worstGap, c.violations, c.firstBad, c.firstBadGap = 0, 0, 0, 0
}

// deadlineFor returns the retention deadline of a row.
func (c *RetentionChecker) deadlineFor(flat int) sim.Duration {
	if c.rmap == nil {
		return c.deadline
	}
	return sim.Duration(c.rmap.multiplierFlat(flat)) * c.deadline
}

// OnRestore records that the cells of row in flat bank bank were
// restored at time t.
func (c *RetentionChecker) OnRestore(t sim.Time, bank, row int) {
	flat := bank*c.geom.Rows + row
	gap := t - c.lastRestore[flat]
	if gap > c.worstGap {
		c.worstGap = gap
	}
	if gap > c.deadlineFor(flat) {
		if c.violations == 0 {
			c.firstBad = flat
			c.firstBadGap = gap
		}
		c.violations++
	}
	c.lastRestore[flat] = t
}

// CheckEnd verifies that, as of time end, no row has an outstanding gap
// beyond the deadline, and folds those terminal gaps into the worst-gap
// statistic. Call once at the end of a simulation.
func (c *RetentionChecker) CheckEnd(end sim.Time) {
	for flat, last := range c.lastRestore {
		gap := end - last
		if gap > c.worstGap {
			c.worstGap = gap
		}
		if gap > c.deadlineFor(flat) {
			if c.violations == 0 {
				c.firstBad = flat
				c.firstBadGap = gap
			}
			c.violations++
		}
	}
}

// Violations returns the number of deadline violations observed.
func (c *RetentionChecker) Violations() uint64 { return c.violations }

// WorstGap returns the largest restore-to-restore gap observed.
func (c *RetentionChecker) WorstGap() sim.Duration { return c.worstGap }

// Err returns nil if no violation occurred, or an error describing the
// first one.
func (c *RetentionChecker) Err() error {
	if c.violations == 0 {
		return nil
	}
	return fmt.Errorf("core: %d retention violations; first: row %v gap %v (deadline %v)",
		c.violations, dram.RowFromFlat(&c.geom, c.firstBad), c.firstBadGap, c.deadline)
}

// Optimality returns the section 4.4 optimality metric of Smart Refresh as
// a fraction in (0, 1): Optimality = 1 - 2^-bits. A 2-bit counter is 75%
// optimal, a 3-bit counter 87.5%.
func Optimality(counterBits int) float64 {
	if counterBits < 1 {
		panic("core: Optimality of non-positive counter width")
	}
	return 1 - 1/float64(int64(1)<<counterBits)
}

// CounterAreaKB returns the section 4.7 storage overhead of the counter
// array in kilobytes: banks * ranks * rows * bits / (8 * 1024). Channels
// multiply the overhead the same way ranks do.
func CounterAreaKB(g dram.Geometry, counterBits int) float64 {
	return float64(g.TotalRows()) * float64(counterBits) / (8 * 1024)
}
