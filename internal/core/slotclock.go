package core

import (
	"fmt"

	"smartrefresh/internal/sim"
)

// slotClock walks the refresh schedule every interval-spread policy
// shares: n slots per interval, slot k = whole*n + frac falling at
//
//	start + whole*interval + ⌊frac*interval/n⌋
//
// so the schedule never drifts however long it runs. The quotient and
// remainder of interval/n are taken once; each step adds the quotient and
// carries the remainder exactly, so the per-slot path does no division.
type slotClock struct {
	interval sim.Duration
	n        int64
	step     sim.Duration // interval / n
	rem      int64        // interval % n

	whole int64    // completed intervals
	frac  int64    // slot within the current interval, in [0, n)
	base  sim.Time // start + whole*interval
	carry int64    // frac*interval mod n
	at    sim.Time // base + ⌊frac*interval/n⌋: the current slot's time
}

// newSlotClock returns a clock of n slots per interval, positioned at
// slot 0 of an interval starting at time 0.
func newSlotClock(interval sim.Duration, n int64) slotClock {
	if n <= 0 || interval < 0 {
		panic(fmt.Sprintf("core: slot clock of %d slots over %v", n, interval))
	}
	return slotClock{interval: interval, n: n, step: interval / sim.Duration(n), rem: int64(interval) % n}
}

// reset positions the clock at slot 0 of an interval starting at start.
func (c *slotClock) reset(start sim.Time) {
	c.whole, c.frac, c.base, c.carry, c.at = 0, 0, start, 0, start
}

// next moves the clock to the following slot.
func (c *slotClock) next() {
	c.frac++
	if c.frac == c.n {
		c.whole++
		c.frac, c.carry = 0, 0
		c.base += c.interval
		c.at = c.base
		return
	}
	c.at += c.step
	if c.carry += c.rem; c.carry >= c.n {
		c.carry -= c.n
		c.at++
	}
}
