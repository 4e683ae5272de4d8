package core_test

import (
	"testing"

	"smartrefresh/internal/config"
	"smartrefresh/internal/core"
	"smartrefresh/internal/dram"
	"smartrefresh/internal/sim"
)

// refSeed is Smart's original per-row seeding, kept as the reference
// for its seeding: logical row order, the stagger
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
		// reenable drives a section 4.6 disable and re-enable, which
		// zeroes every counter, before the Reset.
		reenable bool
	}
	cfg := func(bits, segs int, uniform bool) core.SmartConfig {
		c := core.DefaultSmartConfig()
		c.CounterBits, c.Segments, c.QueueDepth, c.UniformSeed = bits, segs, segs, uniform
		return c
	}
	cases := []tc{
		{"table1-2gb", config.Table1_2GB().Geometry, cfg(3, 8, false), false, false},
		{"table2-3d-32ms", config.Table2_3D32().Geometry, cfg(3, 8, false), false, false},
		{"hmc-8vault/vault", config.HMC8Vault().Geometry.PerVault(), cfg(3, 8, false), false, false},
		{"table1-2gb/uniform", config.Table1_2GB().Geometry, cfg(3, 8, true), false, false},
		{"table1-2gb/retention", config.Table1_2GB().Geometry, cfg(3, 8, false), true, false},
		{"table1-2gb/retention-uniform", config.Table1_2GB().Geometry, cfg(3, 8, true), true, false},
		{"table1-2gb/1bit-1seg", config.Table1_2GB().Geometry, cfg(1, 1, false), false, false},
		{"table1-2gb/8bit-64seg", config.Table1_2GB().Geometry, cfg(8, 64, false), false, false},
		{"table1-2gb/2bit-16seg", config.Table1_2GB().Geometry, cfg(2, 16, false), false, false},
		// 2 rows per segment and 2^bits = 32: every position is its own
		// stagger run, and the stagger jumps by 16 between positions.
		{"tiny/5bit", tiny, cfg(5, 8, false), false, false},
		// 2 rows per segment and 2^bits = 2: every position is its own
		// stagger run.
		{"tiny/1bit-8seg", tiny, cfg(1, 8, false), false, false},
		// One segment per row: the array is a single position.
		{"tiny/one-position", tiny, cfg(3, 16, false), false, false},
		{"tiny/retention", tiny, cfg(2, 4, false), true, false},
		{"table1-2gb/reenable", config.Table1_2GB().Geometry, cfg(3, 8, false), false, true},
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
			checkSeed(t, s, wantC, wantZ, "constructed")
			if c.reenable {
				reenable(t, s, c.g, c.cfg.Segments)
			}
			// Reset (the controller's start-of-run call) reseeds the same
			// pattern after the counters have moved.
			s.Advance(64*sim.Millisecond/3, nil)
			s.OnRowRestore(0, dram.RowFromFlat(&c.g, c.g.TotalRows()-1))
			s.Reset(0)
			checkSeed(t, s, wantC, wantZ, "reset")
		})
	}
}

// reenable drives s through a section 4.6 disable (one idle 64 ms
// interval) and re-enable (a dense interval), then checks the
// re-enable's restart state: every counter zero and every position's
// zero count Segments, except position 0, which the first tick at the
// switch boundary has already swept.
func reenable(t *testing.T, s *core.Smart, g dram.Geometry, segs int) {
	t.Helper()
	const interval = 64 * sim.Millisecond
	s.Advance(interval, nil)
	if !s.Disabled() {
		t.Fatal("not disabled after an idle interval")
	}
	for i := range g.TotalRows() {
		s.OnRowRestore(interval, dram.RowFromFlat(&g, i))
	}
	s.Advance(2*interval, nil)
	if s.Disabled() || s.Stats().EnableSwitches != 1 {
		t.Fatalf("disabled = %v, enable switches = %d after a dense interval; want a re-enable",
			s.Disabled(), s.Stats().EnableSwitches)
	}
	counters, zeros := s.SeedState()
	for i, c := range counters[segs:] {
		if c != 0 {
			t.Fatalf("re-enabled: counter slot %d = %d, want 0", segs+i, c)
		}
	}
	for p, z := range zeros[1:] {
		if int(z) != segs {
			t.Fatalf("re-enabled: zero count at position %d = %d, want %d", p+1, z, segs)
		}
	}
}

// checkSeed fails t unless s holds exactly the reference counters and
// zero counts.
func checkSeed(t *testing.T, s *core.Smart, wantC []uint8, wantZ []uint16, when string) {
	t.Helper()
	gotC, gotZ := s.SeedState()
	if i := firstDiff(gotC, wantC); i >= 0 {
		t.Fatalf("%s: counter slot %d = %d, reference %d", when, i, gotC[i], wantC[i])
	}
	if i := firstDiff(gotZ, wantZ); i >= 0 {
		t.Fatalf("%s: zero count at position %d = %d, recount %d", when, i, gotZ[i], wantZ[i])
	}
}

// FuzzSmartSeed compares the seeded counters and zero counts with the
// per-row reference on arbitrary power-of-two geometries, segment counts
// and counter widths, after NewSmart and after a Reset.
func FuzzSmartSeed(f *testing.F) {
	f.Add(uint8(1), uint8(3), uint8(3), uint8(3), false)
	f.Add(uint8(1), uint8(3), uint8(3), uint8(1), false)
	f.Add(uint8(1), uint8(3), uint8(4), uint8(3), false)
	f.Add(uint8(3), uint8(12), uint8(6), uint8(8), false)
	f.Add(uint8(0), uint8(0), uint8(0), uint8(1), true)
	f.Fuzz(func(t *testing.T, bankLog, rowLog, segLog, bitsIn uint8, uniform bool) {
		g := dram.Geometry{
			Channels: 1, Ranks: 1, Banks: 1 << (bankLog % 4), Rows: 1 << (rowLog % 13),
			Columns: 16, DataWidthBits: 72, BurstLength: 4, DevicesPerRank: 2,
		}
		totalLog := bankLog%4 + rowLog%13
		cfg := core.DefaultSmartConfig()
		cfg.CounterBits = 1 + int(bitsIn%8)
		cfg.Segments = 1 << (segLog % (totalLog + 1))
		cfg.QueueDepth = cfg.Segments
		cfg.UniformSeed = uniform
		s := core.NewSmart(g, 64*sim.Millisecond, cfg)
		maxFor := func(int) uint8 { return uint8(1<<cfg.CounterBits - 1) }
		wantC, wantZ := refSeed(g.TotalRows(), cfg.Segments, cfg.CounterBits, uniform, maxFor)
		checkSeed(t, s, wantC, wantZ, "constructed")
		s.Advance(64*sim.Millisecond/3, nil)
		s.OnRowRestore(0, dram.RowFromFlat(&g, g.TotalRows()-1))
		s.Reset(0)
		checkSeed(t, s, wantC, wantZ, "reset")
	})
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
