package core

import "smartrefresh/internal/dram"

// CounterValue exposes a row's counter.
func (s *Smart) CounterValue(row dram.RowID) uint8 {
	return s.counters[s.slot(row.Flat(&s.geom))]
}

// SeedState exposes the packed counter array and its per-position zero
// counts.
func (s *Smart) SeedState() ([]uint8, []uint16) { return s.counters, s.zeroCnt }
