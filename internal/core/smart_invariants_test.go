package core

import (
	"testing"
	"testing/quick"

	"smartrefresh/internal/dram"
	"smartrefresh/internal/sim"
)

// TestSmartIndexingCoversAllCountersOncePerPeriod: the staggered-segment
// indexing of section 4.2 must touch every counter exactly once per
// counter access period — that is the premise of the correctness proof.
func TestSmartIndexingCoversAllCountersOncePerPeriod(t *testing.T) {
	g := smallGeom()
	s := NewSmart(g, testInterval, smartNoDisable())
	cap := s.CounterAccessPeriod()

	// Reads per counter over exactly one period (start at a period
	// boundary to avoid partial sweeps).
	var cmds []Command
	cmds = s.Advance(cap-1, cmds[:0])
	before := s.Stats().CounterReads
	cmds = s.Advance(2*cap-1, cmds[:0])
	reads := s.Stats().CounterReads - before
	if reads != uint64(g.TotalRows()) {
		t.Errorf("one period read %d counters, want %d (each exactly once)",
			reads, g.TotalRows())
	}
	_ = cmds
}

// TestSmartCounterValuesBounded: counters never exceed their reset value.
func TestSmartCounterValuesBounded(t *testing.T) {
	g := smallGeom()
	f := func(seed uint64) bool {
		s := NewSmart(g, testInterval, smartNoDisable())
		rng := sim.NewRNG(seed)
		var cmds []Command
		var now sim.Time
		for i := 0; i < 300; i++ {
			now += sim.Time(rng.Intn(int(2 * sim.Millisecond)))
			cmds = s.Advance(now, cmds[:0])
			row := dram.RowFromFlat(&g, rng.Intn(g.TotalRows()))
			s.OnRowRestore(now, row)
			for flat := 0; flat < g.TotalRows(); flat++ {
				if v := s.CounterValue(dram.RowFromFlat(&g, flat)); v > 7 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Error(err)
	}
}

// TestSmartStatsConsistency: reads = skipped decrements + refresh resets,
// and writes = reads + access resets (every indexing writes either a
// decrement or a reset; every access writes a reset).
func TestSmartStatsConsistency(t *testing.T) {
	g := smallGeom()
	s := NewSmart(g, testInterval, smartNoDisable())
	rng := sim.NewRNG(11)
	var cmds []Command
	var now sim.Time
	for i := 0; i < 500; i++ {
		now += sim.Time(rng.Intn(int(sim.Millisecond)))
		cmds = s.Advance(now, cmds[:0])
		s.OnRowRestore(now, dram.RowFromFlat(&g, rng.Intn(g.TotalRows())))
	}
	st := s.Stats()
	if st.CounterReads != st.SkippedIndexings+st.RefreshesRequested {
		t.Errorf("reads %d != skipped %d + refreshes %d",
			st.CounterReads, st.SkippedIndexings, st.RefreshesRequested)
	}
	if st.CounterWrites != st.CounterReads+st.AccessResets {
		t.Errorf("writes %d != reads %d + access resets %d",
			st.CounterWrites, st.CounterReads, st.AccessResets)
	}
}

// TestSmartRefreshVolumeNeverExceedsBaseline: whatever the traffic, Smart
// Refresh must not issue more refreshes than the periodic baseline over
// whole-interval horizons (it only ever delays refreshes, never adds).
// The seeded first interval is excluded (stagger start-up refreshes some
// rows early, the overhead figure 2(b) notes).
func TestSmartRefreshVolumeNeverExceedsBaseline(t *testing.T) {
	g := smallGeom()
	f := func(seed uint64, hot bool) bool {
		s := NewSmart(g, testInterval, smartNoDisable())
		rng := sim.NewRNG(seed)
		gap := 5 * sim.Millisecond
		if hot {
			gap = 200 * sim.Microsecond
		}
		var cmds []Command
		cmds = s.Advance(testInterval, cmds[:0])
		base := s.Stats().RefreshesRequested
		var now sim.Time = testInterval
		end := 5 * testInterval
		for now < end {
			now += sim.Time(rng.Int63n(int64(gap))) + 1
			cmds = s.Advance(now, cmds[:0])
			s.OnRowRestore(now, dram.RowFromFlat(&g, rng.Intn(g.TotalRows())))
		}
		cmds = s.Advance(end, cmds[:0])
		issued := s.Stats().RefreshesRequested - base
		baseline := uint64(4 * g.TotalRows()) // 4 intervals
		return issued <= baseline+uint64(g.TotalRows()/8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestSmartSegmentOffsetsDistinct: the per-segment stagger offset places
// the initial zero counters of different segments at different ticks.
func TestSmartSegmentOffsetsDistinct(t *testing.T) {
	g := smallGeom()
	s := NewSmart(g, testInterval, smartNoDisable())
	// Collect the first-tick refreshes: with the per-segment offset at
	// most one segment's counter is zero at tick 0.
	var cmds []Command
	cmds = s.Advance(0, cmds[:0])
	if len(cmds) > 1 {
		t.Errorf("tick 0 produced %d refreshes; segment stagger missing", len(cmds))
	}
}
