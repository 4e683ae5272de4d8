// Package sim provides the simulation substrate shared by every other
// package in the repository: a picosecond time base, a deterministic
// pseudo-random number generator, the earliest-deadline index the event
// sources share, and the shard runner that executes vault-sharded
// simulation in parallel.
//
// All simulations in this repository are deterministic: given the same
// configuration and seed they produce bit-identical results. Nothing in
// this package reads wall-clock time or global random state.
package sim

import (
	"fmt"
	"math/bits"
)

// Time is a simulation timestamp in picoseconds. The zero value is the
// start of simulation. int64 picoseconds cover about 106 days, far more
// than any simulation here needs (refresh intervals are 32-64 ms).
type Time int64

// Duration is a span of simulated time in picoseconds.
type Duration = Time

// Common duration units.
const (
	Picosecond  Duration = 1
	Nanosecond  Duration = 1000 * Picosecond
	Microsecond Duration = 1000 * Nanosecond
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// Milliseconds reports t as a floating point number of milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Nanoseconds reports t as a floating point number of nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Seconds reports t as a floating point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String renders the time using the most natural unit.
func (t Time) String() string {
	switch {
	case t < 0:
		return fmt.Sprintf("-%s", (-t).String())
	case t < Nanosecond:
		return fmt.Sprintf("%dps", int64(t))
	case t < Microsecond:
		return fmt.Sprintf("%.3gns", t.Nanoseconds())
	case t < Millisecond:
		return fmt.Sprintf("%.4gus", float64(t)/float64(Microsecond))
	case t < Second:
		return fmt.Sprintf("%.4gms", t.Milliseconds())
	default:
		return fmt.Sprintf("%.4gs", t.Seconds())
	}
}

// FromNanoseconds converts a floating point nanosecond count to Time.
func FromNanoseconds(ns float64) Time { return Time(ns * float64(Nanosecond)) }

// FromMilliseconds converts a floating point millisecond count to Time.
func FromMilliseconds(ms float64) Time { return Time(ms * float64(Millisecond)) }

// FromSeconds converts a floating point second count to Time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// Min returns the smaller of two times.
func Min(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}

// Max returns the larger of two times.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// Clock converts between a fixed-period clock domain and Time. It is used
// for the DRAM command clock: commands are issued on clock edges, so
// timestamps must be quantised to the clock period.
type Clock struct {
	period Duration
	// inv is floor((2^64-1)/period), the reciprocal Next multiplies by
	// instead of dividing.
	inv uint64
}

// NewClock returns a Clock with the given period. It panics if the period
// is not positive; a zero-period clock cannot advance.
func NewClock(period Duration) Clock {
	if period <= 0 {
		panic(fmt.Sprintf("sim: non-positive clock period %d", period))
	}
	return Clock{period: period, inv: ^uint64(0) / uint64(period)}
}

// Period returns the clock period.
func (c Clock) Period() Duration { return c.period }

// Next returns the first clock edge at or after t.
func (c Clock) Next(t Time) Time {
	if t <= 0 {
		return 0
	}
	rem := c.rem(t)
	if rem == 0 {
		return t
	}
	return t + c.period - rem
}

// rem returns t % period for t > 0 without a division. t·inv/2^64 falls
// short of t/period by at most t/2^64 < 1/2, so the quotient its high
// word gives is exact or one short, and one correction step makes the
// remainder exact. The high word of a 128-bit product stands in for a
// division as in RNG.Uint64n.
func (c Clock) rem(t Time) Time {
	q, _ := bits.Mul64(uint64(t), c.inv)
	r := uint64(t) - q*uint64(c.period)
	if r >= uint64(c.period) {
		r -= uint64(c.period)
	}
	return Time(r)
}

// After returns the time d after t, quantised up to the next clock edge.
func (c Clock) After(t Time, d Duration) Time { return c.Next(t + d) }
