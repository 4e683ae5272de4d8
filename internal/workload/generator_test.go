package workload

import (
	"math"
	"testing"
	"testing/quick"

	"smartrefresh/internal/sim"
	"smartrefresh/internal/trace"
)

func basicSpec() StreamSpec {
	return StreamSpec{
		FootprintBytes: 64 * 16384, // 64 rows of 16 KB
		StrideBytes:    16384,
		SweepPeriod:    40 * sim.Millisecond,
		RowRepeats:     1.0,
		WriteFraction:  0.3,
		JitterFraction: 0.1,
	}
}

func TestSpecValidate(t *testing.T) {
	if err := basicSpec().Validate(); err != nil {
		t.Fatalf("basic spec invalid: %v", err)
	}
	bad := basicSpec()
	bad.StrideBytes = 0
	if bad.Validate() == nil {
		t.Error("zero stride accepted")
	}
	bad = basicSpec()
	bad.SweepPeriod = 0
	if bad.Validate() == nil {
		t.Error("zero sweep period accepted")
	}
	bad = basicSpec()
	bad.JitterFraction = 1
	if bad.Validate() == nil {
		t.Error("jitter 1 accepted")
	}
	bad = basicSpec()
	bad.WriteFraction = 1.5
	if bad.Validate() == nil {
		t.Error("write fraction > 1 accepted")
	}
}

// TestSpecValidateRejectsNonFinite covers the fractions a NaN or infinity
// slips past one-sided comparisons on: a NaN write fraction would give an
// all-read stream, a NaN jitter a NaN gap, an infinite repeat mean a NaN
// repeat probability.
func TestSpecValidateRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for name, mutate := range map[string]func(*StreamSpec){
		"RowRepeats NaN":      func(s *StreamSpec) { s.RowRepeats = nan },
		"RowRepeats +Inf":     func(s *StreamSpec) { s.RowRepeats = inf },
		"WriteFraction NaN":   func(s *StreamSpec) { s.WriteFraction = nan },
		"WriteFraction +Inf":  func(s *StreamSpec) { s.WriteFraction = inf },
		"JitterFraction NaN":  func(s *StreamSpec) { s.JitterFraction = nan },
		"JitterFraction -Inf": func(s *StreamSpec) { s.JitterFraction = -inf },
	} {
		s := basicSpec()
		mutate(&s)
		if s.Validate() == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestSpecDerived(t *testing.T) {
	s := basicSpec()
	if s.Rows() != 64 {
		t.Errorf("Rows = %d", s.Rows())
	}
	// 64 rows / 40 ms * (1+1) = 3200 acc/s.
	if got := s.AccessesPerSecond(); got < 3100 || got > 3300 {
		t.Errorf("AccessesPerSecond = %v", got)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := NewGenerator(basicSpec(), 7)
	b := NewGenerator(basicSpec(), 7)
	for i := 0; i < 1000; i++ {
		ra, _ := a.Next()
		rb, _ := b.Next()
		if ra != rb {
			t.Fatalf("diverged at %d: %+v vs %+v", i, ra, rb)
		}
	}
}

func TestGeneratorTimeMonotone(t *testing.T) {
	g := NewGenerator(basicSpec(), 3)
	var last sim.Time
	for i := 0; i < 5000; i++ {
		r, ok := g.Next()
		if !ok {
			t.Fatal("generator ended")
		}
		if r.Time < last {
			t.Fatalf("time went backwards at %d: %v < %v", i, r.Time, last)
		}
		last = r.Time
	}
}

func TestGeneratorStaysInFootprint(t *testing.T) {
	spec := basicSpec()
	g := NewGenerator(spec, 11)
	for i := 0; i < 5000; i++ {
		r, _ := g.Next()
		if r.Addr >= uint64(spec.FootprintBytes) {
			t.Fatalf("address %#x outside footprint %#x", r.Addr, spec.FootprintBytes)
		}
	}
}

// TestGeneratorCoversAllRows: every footprint row is touched within one
// sweep period (the liveness property the calibration depends on).
func TestGeneratorCoversAllRows(t *testing.T) {
	for _, shuffle := range []bool{false, true} {
		spec := basicSpec()
		spec.Shuffle = shuffle
		g := NewGenerator(spec, 13)
		seen := map[uint64]sim.Time{}
		deadline := sim.Duration(float64(spec.SweepPeriod) * 1.3)
		for {
			r, _ := g.Next()
			if r.Time > sim.Time(deadline) {
				break
			}
			seen[r.Addr/uint64(spec.StrideBytes)] = r.Time
		}
		if len(seen) != int(spec.Rows()) {
			t.Errorf("shuffle=%v: covered %d of %d rows in 1.3 sweeps",
				shuffle, len(seen), spec.Rows())
		}
	}
}

// TestGeneratorReTouchGap: no row's re-touch gap exceeds the sweep period
// by more than jitter — the guarantee that keeps swept rows alive under
// Smart Refresh.
func TestGeneratorReTouchGap(t *testing.T) {
	spec := basicSpec()
	g := NewGenerator(spec, 17)
	last := map[uint64]sim.Time{}
	var worst sim.Duration
	for {
		r, _ := g.Next()
		if r.Time > sim.Time(5*spec.SweepPeriod) {
			break
		}
		row := r.Addr / uint64(spec.StrideBytes)
		if prev, ok := last[row]; ok {
			if gap := r.Time - prev; gap > worst {
				worst = gap
			}
		}
		last[row] = r.Time
	}
	limit := sim.Duration(float64(spec.SweepPeriod) * (1 + 2*spec.JitterFraction))
	if worst > limit {
		t.Errorf("worst re-touch gap %v exceeds %v", worst, limit)
	}
}

func TestGeneratorRepeatsAreSameRow(t *testing.T) {
	spec := basicSpec()
	spec.RowRepeats = 3
	g := NewGenerator(spec, 19)
	var prev trace.Record
	sameRow := 0
	total := 0
	for i := 0; i < 4000; i++ {
		r, _ := g.Next()
		if i > 0 && r.Time-prev.Time < sim.Microsecond {
			total++
			if r.Addr/uint64(spec.StrideBytes) == prev.Addr/uint64(spec.StrideBytes) {
				sameRow++
			}
		}
		prev = r
	}
	if total == 0 {
		t.Fatal("no repeat accesses generated")
	}
	if sameRow != total {
		t.Errorf("%d of %d close-spaced accesses were different rows", total-sameRow, total)
	}
}

func TestGeneratorWriteFraction(t *testing.T) {
	spec := basicSpec()
	spec.WriteFraction = 0.5
	g := NewGenerator(spec, 23)
	writes := 0
	const n = 10000
	for i := 0; i < n; i++ {
		r, _ := g.Next()
		if r.Write {
			writes++
		}
	}
	frac := float64(writes) / n
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("write fraction %v, want ~0.5", frac)
	}
}

func TestGeneratorEmptyFootprintIsIdle(t *testing.T) {
	spec := basicSpec()
	spec.FootprintBytes = 0
	g := NewGenerator(spec, 1)
	if _, ok := g.Next(); ok {
		t.Error("empty footprint produced a record")
	}
}

func TestMergeOrdersByTime(t *testing.T) {
	a := trace.NewSliceSource([]trace.Record{{Time: 0}, {Time: 100}, {Time: 200}})
	b := trace.NewSliceSource([]trace.Record{{Time: 50}, {Time: 150}})
	m := NewMerge(a, b)
	var times []sim.Time
	for {
		r, ok := m.Next()
		if !ok {
			break
		}
		times = append(times, r.Time)
	}
	want := []sim.Time{0, 50, 100, 150, 200}
	if len(times) != len(want) {
		t.Fatalf("times = %v", times)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
}

func TestOffsetShiftsAddresses(t *testing.T) {
	o := NewOffset(trace.NewSliceSource([]trace.Record{{Addr: 100}}), 1<<30)
	r, ok := o.Next()
	if !ok || r.Addr != 100+1<<30 {
		t.Fatalf("offset record = %+v", r)
	}
}

// Property: generator streams are time-ordered for arbitrary spec knobs.
func TestGeneratorMonotoneProperty(t *testing.T) {
	f := func(seed uint64, rows uint8, repeats uint8) bool {
		spec := StreamSpec{
			FootprintBytes: (int64(rows%32) + 1) * 1024,
			StrideBytes:    1024,
			SweepPeriod:    10 * sim.Millisecond,
			RowRepeats:     float64(repeats%4) * 0.7,
			WriteFraction:  0.3,
			JitterFraction: 0.1,
			Shuffle:        seed%2 == 0,
		}
		g := NewGenerator(spec, seed)
		var last sim.Time
		for i := 0; i < 500; i++ {
			r, ok := g.Next()
			if !ok || r.Time < last {
				return false
			}
			last = r.Time
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
