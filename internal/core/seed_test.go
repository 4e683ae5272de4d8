package core_test

import (
	"testing"

	"smartrefresh/internal/config"
	"smartrefresh/internal/core"
	"smartrefresh/internal/dram"
	"smartrefresh/internal/sim"
)

// refSeed is the per-row seeding formula Smart's one-pass seeding
// replaced, kept as its reference: logical row order, the stagger
// (p*2^bits/rowsPerSeg + seg) mod span by division per row, the packed
// slot by division, and then a recount of each position's zero counters.
func refSeed(total, segs, counterBits int, uniform bool, resetValue func(flat int) uint8) ([]uint8, []uint16) {
	rowsPerSeg := total / segs
	modulus := 1 << counterBits
	counters := make([]uint8, total)
	for i := range counters {
		slot := (i%rowsPerSeg)*segs + i/rowsPerSeg
		if uniform {
			counters[slot] = resetValue(i)
			continue
		}
		seg := i / rowsPerSeg
		p := i % rowsPerSeg
		span := int(resetValue(i)) + 1
		counters[slot] = uint8((p*modulus/rowsPerSeg + seg) % span)
	}
	zeros := make([]uint16, rowsPerSeg)
	for pos := range zeros {
		for _, c := range counters[pos*segs : (pos+1)*segs] {
			if c == 0 {
				zeros[pos]++
			}
		}
	}
	return counters, zeros
}

func TestSmartSeedMatchesPerRowFormula(t *testing.T) {
	tiny := dram.Geometry{
		Channels: 1, Ranks: 1, Banks: 2, Rows: 8, Columns: 16,
		DataWidthBits: 72, BurstLength: 4, DevicesPerRank: 2,
	}
	type tc struct {
		name string
		g    dram.Geometry
		cfg  core.SmartConfig
		rmap bool // retention-aware: per-row maxima from a retention map
	}
	cfg := func(bits, segs int, uniform bool) core.SmartConfig {
		c := core.DefaultSmartConfig()
		c.CounterBits, c.Segments, c.QueueDepth, c.UniformSeed = bits, segs, segs, uniform
		return c
	}
	cases := []tc{
		{"table1-2gb", config.Table1_2GB().Geometry, cfg(3, 8, false), false},
		{"table2-3d-32ms", config.Table2_3D32().Geometry, cfg(3, 8, false), false},
		{"hmc-8vault/vault", config.HMC8Vault().Geometry.PerVault(), cfg(3, 8, false), false},
		{"table1-2gb/uniform", config.Table1_2GB().Geometry, cfg(3, 8, true), false},
		{"table1-2gb/retention", config.Table1_2GB().Geometry, cfg(3, 8, false), true},
		{"table1-2gb/retention-uniform", config.Table1_2GB().Geometry, cfg(3, 8, true), true},
		{"table1-2gb/1bit-1seg", config.Table1_2GB().Geometry, cfg(1, 1, false), false},
		{"table1-2gb/8bit-64seg", config.Table1_2GB().Geometry, cfg(8, 64, false), false},
		{"table1-2gb/2bit-16seg", config.Table1_2GB().Geometry, cfg(2, 16, false), false},
		// 2 rows per segment and 2^bits = 32: the stagger steps by a
		// whole quotient per position, not only by the carry.
		{"tiny/5bit", tiny, cfg(5, 8, false), false},
		{"tiny/retention", tiny, cfg(2, 4, false), true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			maxFor := func(int) uint8 { return uint8(1<<c.cfg.CounterBits - 1) }
			var s *core.Smart
			if c.rmap {
				rm := core.NewRetentionMap(c.g, core.DefaultRetentionClasses(), 11)
				mult := rm.Multipliers()
				maxFor = func(flat int) uint8 { return uint8(int(mult[flat])<<c.cfg.CounterBits - 1) }
				s = core.NewRetentionAwareSmart(c.g, 64*sim.Millisecond, c.cfg, rm).Smart
			} else {
				s = core.NewSmart(c.g, 64*sim.Millisecond, c.cfg)
			}
			wantC, wantZ := refSeed(c.g.TotalRows(), c.cfg.Segments, c.cfg.CounterBits, c.cfg.UniformSeed, maxFor)
			check := func(when string) {
				gotC, gotZ := s.SeedState()
				if i := firstDiff(gotC, wantC); i >= 0 {
					t.Fatalf("%s: counter slot %d = %d, reference %d", when, i, gotC[i], wantC[i])
				}
				if i := firstDiff(gotZ, wantZ); i >= 0 {
					t.Fatalf("%s: zero count at position %d = %d, recount %d", when, i, gotZ[i], wantZ[i])
				}
			}
			check("constructed")
			// Reset (the controller's start-of-run call) reseeds the same
			// pattern after the counters have moved.
			s.Advance(64*sim.Millisecond/3, nil)
			s.OnRowRestore(0, dram.RowFromFlat(&c.g, c.g.TotalRows()-1))
			s.Reset(0)
			check("reset")
		})
	}
}

// firstDiff returns the first index where got and want differ, or -1.
func firstDiff[T comparable](got, want []T) int {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return i
		}
	}
	if len(got) != len(want) {
		return min(len(got), len(want))
	}
	return -1
}
