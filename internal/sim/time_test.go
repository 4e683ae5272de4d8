package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTimeUnits(t *testing.T) {
	if Second != 1e12 {
		t.Fatalf("Second = %d, want 1e12 ps", int64(Second))
	}
	if Millisecond != 1e9 {
		t.Fatalf("Millisecond = %d, want 1e9 ps", int64(Millisecond))
	}
	if Microsecond != 1e6 {
		t.Fatalf("Microsecond = %d, want 1e6 ps", int64(Microsecond))
	}
	if Nanosecond != 1e3 {
		t.Fatalf("Nanosecond = %d, want 1e3 ps", int64(Nanosecond))
	}
}

func TestTimeConversions(t *testing.T) {
	cases := []struct {
		in   Time
		ms   float64
		ns   float64
		secs float64
	}{
		{0, 0, 0, 0},
		{64 * Millisecond, 64, 64e6, 0.064},
		{Second, 1000, 1e9, 1},
		{70 * Nanosecond, 70e-6, 70, 70e-9},
	}
	for _, c := range cases {
		if got := c.in.Milliseconds(); got != c.ms {
			t.Errorf("%d.Milliseconds() = %v, want %v", int64(c.in), got, c.ms)
		}
		if got := c.in.Nanoseconds(); got != c.ns {
			t.Errorf("%d.Nanoseconds() = %v, want %v", int64(c.in), got, c.ns)
		}
		if got := c.in.Seconds(); got != c.secs {
			t.Errorf("%d.Seconds() = %v, want %v", int64(c.in), got, c.secs)
		}
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500, "500ps"},
		{1500, "1.5ns"},
		{64 * Millisecond, "64ms"},
		{2 * Second, "2s"},
		{-64 * Millisecond, "-64ms"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestFromUnits(t *testing.T) {
	if got := FromNanoseconds(70); got != 70*Nanosecond {
		t.Errorf("FromNanoseconds(70) = %d", int64(got))
	}
	if got := FromMilliseconds(64); got != 64*Millisecond {
		t.Errorf("FromMilliseconds(64) = %d", int64(got))
	}
	if got := FromSeconds(2); got != 2*Second {
		t.Errorf("FromSeconds(2) = %d", int64(got))
	}
}

func TestMinMax(t *testing.T) {
	if Min(1, 2) != 1 || Min(2, 1) != 1 {
		t.Error("Min broken")
	}
	if Max(1, 2) != 2 || Max(2, 1) != 2 {
		t.Error("Max broken")
	}
}

func TestClockNext(t *testing.T) {
	c := NewClock(3000) // DDR2-667 command clock, 3 ns.
	cases := []struct{ in, want Time }{
		{0, 0},
		{-5, 0},
		{1, 3000},
		{2999, 3000},
		{3000, 3000},
		{3001, 6000},
	}
	for _, cse := range cases {
		if got := c.Next(cse.in); got != cse.want {
			t.Errorf("Next(%d) = %d, want %d", int64(cse.in), int64(got), int64(cse.want))
		}
	}
}

func TestClockAfter(t *testing.T) {
	c := NewClock(3000)
	if got := c.After(3000, 100); got != 6000 {
		t.Errorf("After(3000, 100) = %d, want 6000", int64(got))
	}
	if got := c.After(3000, 3000); got != 6000 {
		t.Errorf("After(3000, 3000) = %d, want 6000", int64(got))
	}
}

func TestClockPanicsOnBadPeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewClock(0) did not panic")
		}
	}()
	NewClock(0)
}

// Property: Next is idempotent and never moves time backwards, and the
// result is always a multiple of the period.
func TestClockNextProperties(t *testing.T) {
	c := NewClock(3000)
	f := func(raw int64) bool {
		in := Time(raw % int64(Second))
		out := c.Next(in)
		if out < 0 || out%3000 != 0 {
			return false
		}
		if in >= 0 && out < in {
			return false
		}
		return c.Next(out) == out
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the reciprocal remainder behind Next equals %, over random
// periods and times and the edges of its bound: period 1, the largest
// time, and times at a multiple of the period and one below it.
func TestClockRemMatchesMod(t *testing.T) {
	const maxT = Time(math.MaxInt64)
	rng := NewRNG(5)
	periods := []Duration{1, 2, 3, 1000, 3000, 3750, 1<<32 + 1, maxT / 2, maxT}
	for i := 0; i < 64; i++ {
		periods = append(periods, Duration(1+rng.Int63n(int64(Second))), Duration(1+rng.Int63n(int64(maxT))))
	}
	for _, p := range periods {
		c := NewClock(p)
		ts := []Time{1, p - 1, p, p + 1, maxT, maxT - 1, maxT - maxT%p, maxT - maxT%p - 1}
		for k := Time(2); k <= 8 && k <= maxT/p; k++ {
			ts = append(ts, k*p, k*p-1)
		}
		for i := 0; i < 256; i++ {
			ts = append(ts, Time(1+rng.Int63n(int64(maxT))))
		}
		for _, in := range ts {
			if in <= 0 {
				continue
			}
			if got, want := c.rem(in), in%p; got != want {
				t.Fatalf("period %d: rem(%d) = %d, want %d", int64(p), int64(in), int64(got), int64(want))
			}
			want := in
			if r := in % p; r != 0 {
				want = in + p - r
			}
			if got := c.Next(in); got != want {
				t.Fatalf("period %d: Next(%d) = %d, want %d", int64(p), int64(in), int64(got), int64(want))
			}
		}
	}
}
