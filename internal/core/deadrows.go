package core

import (
	"smartrefresh/internal/dram"
	"smartrefresh/internal/sim"
)

// Dead-row elision, after Ohsawa et al. (section 8 of the paper): memory
// the OS or allocator knows holds no live data (freed pages, unused
// regions) does not need refreshing at all. The paper notes this is
// complementary to Smart Refresh; like Smart Refresh itself it requires
// addressable (RAS-only) refresh, because the controller must be able to
// skip specific rows — module-internal CBR refresh cannot.

// DeadRowSet tracks which rows are currently dead. Not safe for
// concurrent use.
type DeadRowSet struct {
	geom dram.Geometry
	dead []bool
	n    int
}

// NewDeadRowSet creates an empty set for the geometry.
func NewDeadRowSet(g dram.Geometry) *DeadRowSet {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	return &DeadRowSet{geom: g, dead: make([]bool, g.TotalRows())}
}

// MarkDead declares a row dead (its contents may be lost).
func (s *DeadRowSet) MarkDead(row dram.RowID) {
	flat := row.Flat(&s.geom)
	if !s.dead[flat] {
		s.dead[flat] = true
		s.n++
	}
}

// MarkLive declares a row live again (it must be written before reads,
// since its previous content was allowed to decay).
func (s *DeadRowSet) MarkLive(row dram.RowID) {
	flat := row.Flat(&s.geom)
	if s.dead[flat] {
		s.dead[flat] = false
		s.n--
	}
}

// Dead reports whether a row is dead.
func (s *DeadRowSet) Dead(row dram.RowID) bool { return s.dead[row.Flat(&s.geom)] }

// Count returns the number of dead rows.
func (s *DeadRowSet) Count() int { return s.n }

// DeadRowFilter wraps a policy and drops refresh commands that target
// dead rows. A write to a dead row (seen as a row restore) revives it
// automatically, mirroring how an allocator would touch a page before
// reuse. Only explicit-row (RAS-only) commands can be elided; CBR
// commands pass through untouched, which is exactly the addressability
// argument for RAS-only refresh.
type DeadRowFilter struct {
	inner Policy
	set   *DeadRowSet

	elided uint64
}

// NewDeadRowFilter wraps a policy with a dead-row set.
func NewDeadRowFilter(inner Policy, set *DeadRowSet) *DeadRowFilter {
	if inner == nil || set == nil {
		panic("core: nil policy or dead-row set")
	}
	return &DeadRowFilter{inner: inner, set: set}
}

// Name implements Policy.
func (d *DeadRowFilter) Name() string { return d.inner.Name() + "+deadrows" }

// Reset implements Policy (the dead set is preserved: liveness is a
// property of software state, not of the refresh engine).
func (d *DeadRowFilter) Reset(start sim.Time) {
	d.inner.Reset(start)
	d.elided = 0
}

// OnRowRestore implements Policy: touching a row revives it.
func (d *DeadRowFilter) OnRowRestore(t sim.Time, row dram.RowID) {
	d.set.MarkLive(row)
	d.inner.OnRowRestore(t, row)
}

// NextTick implements Policy.
func (d *DeadRowFilter) NextTick() (sim.Time, bool) { return d.inner.NextTick() }

// Advance implements Policy, dropping RAS-only refreshes of dead rows.
func (d *DeadRowFilter) Advance(t sim.Time, dst []Command) []Command {
	start := len(dst)
	dst = d.inner.Advance(t, dst)
	kept := dst[:start]
	for _, c := range dst[start:] {
		if c.Row >= 0 && d.set.Dead(c.RowID()) {
			d.elided++
			continue
		}
		kept = append(kept, c)
	}
	return kept
}

// Stats implements Policy.
func (d *DeadRowFilter) Stats() PolicyStats { return d.inner.Stats() }

// Elided returns the number of refresh commands dropped for dead rows.
func (d *DeadRowFilter) Elided() uint64 { return d.elided }

var _ Policy = (*DeadRowFilter)(nil)
