package core

import "smartrefresh/internal/dram"

// CounterValue exposes a row's counter.
func (s *Smart) CounterValue(row dram.RowID) uint8 {
	return s.counters[s.slot(row.Flat(&s.geom))]
}
