package core

import (
	"math/bits"
	"testing"

	"smartrefresh/internal/dram"
	"smartrefresh/internal/sim"
)

// slotTimeRef is the closed form the slot clock steps: slot k of n per
// interval, k = whole*n + frac, at start + whole*interval +
// ⌊frac*interval/n⌋. The fractional product is taken in 128 bits so the
// reference stays exact where frac*interval overflows int64.
func slotTimeRef(start sim.Time, interval sim.Duration, n, k int64) sim.Time {
	whole, frac := k/n, k%n
	hi, lo := bits.Mul64(uint64(frac), uint64(interval))
	off, _ := bits.Div64(hi, lo, uint64(n))
	return start + sim.Time(whole)*interval + sim.Time(off)
}

// checkSlotClock steps c from its current slot (slot 0 of an interval at
// start) through k more slots, comparing every slot with the closed form.
func checkSlotClock(t *testing.T, c *slotClock, start sim.Time, k int64) {
	t.Helper()
	for i := int64(0); i <= k; i++ {
		want := slotTimeRef(start, c.interval, c.n, i)
		if c.at != want || c.whole != i/c.n || c.frac != i%c.n {
			t.Fatalf("interval %d, n %d, start %d, slot %d: clock at %d (whole %d, frac %d), closed form %d",
				int64(c.interval), c.n, int64(start), i, int64(c.at), c.whole, c.frac, int64(want))
		}
		c.next()
	}
}

func TestSlotClockMatchesClosedForm(t *testing.T) {
	cases := []struct {
		interval sim.Duration
		n        int64
	}{
		{64 * sim.Millisecond, 131072},  // CBR, table1-2gb
		{8 * sim.Millisecond, 16384},    // Smart tick, table1-2gb
		{32*sim.Millisecond + 7, 65536}, // interval % n != 0
		{1_000_000_007, 1_000_003},      // both prime
		{5, 7},                          // interval < n: zero steps
		{0, 3},                          // degenerate interval
		{10, 4},                         // carry every other slot
		{64 * sim.Millisecond, 1},       // one slot per interval
		{1 << 60, 13},                   // frac*interval overflows int64
	}
	for _, c := range cases {
		clk := newSlotClock(c.interval, c.n)
		start := sim.Time(12345)
		clk.reset(start)
		checkSlotClock(t, &clk, start, 3*c.n+c.n/2)
		// reset mid-interval restarts the schedule from the new origin,
		// as Smart's section 4.6 re-enable does.
		restart := clk.at + 17
		clk.reset(restart)
		checkSlotClock(t, &clk, restart, 3*c.n)
	}
}

// TestSmartReEnableRestartsTickClock drives Smart through a section 4.6
// disable and re-enable and checks that every tick after the re-enable
// falls on the closed-form schedule restarted at the enabling boundary.
func TestSmartReEnableRestartsTickClock(t *testing.T) {
	g := smallGeom()
	interval := testInterval + 12345
	s := NewSmart(g, interval, DefaultSmartConfig())
	capPeriod, perSeg := s.CounterAccessPeriod(), int64(g.TotalRows()/s.Config().Segments)
	if int64(capPeriod)%perSeg == 0 {
		t.Fatalf("precondition: counter access period %d divides into %d ticks", int64(capPeriod), perSeg)
	}
	hot := func(now sim.Time) {
		for i := 0; i < g.TotalRows(); i++ {
			s.OnRowRestore(now, dram.RowFromFlat(&g, i))
		}
	}
	s.Advance(3*interval, nil)
	if !s.Disabled() {
		t.Fatal("precondition: idle policy did not disable")
	}
	// Hot traffic in window [3, 4) intervals re-enables at its end.
	enable := 4 * interval
	hot(3 * interval)
	s.Advance(enable, nil)
	if s.Disabled() || s.Stats().EnableSwitches != 1 {
		t.Fatal("precondition: hot window did not re-enable")
	}
	// The restart tick at the boundary has run; walk three more counter
	// access periods, keeping every window hot.
	for k := int64(1); k <= 3*perSeg; k++ {
		next, _ := s.NextTick()
		if want := slotTimeRef(enable, capPeriod, perSeg, k); next != want {
			t.Fatalf("tick %d after re-enable at %d, closed form %d", k, int64(next), int64(want))
		}
		hot(next)
		s.Advance(next, nil)
		if s.Disabled() {
			t.Fatalf("disabled again at tick %d", k)
		}
	}
}

// FuzzSlotClock compares the stepped slot clock with the closed form
// for arbitrary origins, intervals, slot counts and run lengths.
func FuzzSlotClock(f *testing.F) {
	f.Add(int64(0), uint64(64_000_000_000), uint64(131072), uint64(400_000))
	f.Add(int64(-5), uint64(10), uint64(4), uint64(13))
	f.Add(int64(1)<<40, uint64(7), uint64(3), uint64(10))
	f.Fuzz(func(t *testing.T, start int64, interval, n, k uint64) {
		iv := sim.Duration(interval % (1 << 44))
		slots := int64(1 + n%(1<<16))
		steps := int64(k % (4*uint64(slots) + 1))
		clk := newSlotClock(iv, slots)
		origin := sim.Time(start % (1 << 60))
		clk.reset(origin)
		checkSlotClock(t, &clk, origin, steps)
	})
}
