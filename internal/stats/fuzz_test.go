package stats

import (
	"encoding/json"
	"math"
	"testing"
	"time"
)

// FuzzHistogramQuantile drives the histogram through arbitrary
// observation streams (including negative values, which land in the
// underflow bucket) and quantiles, and checks the properties every
// caller relies on: quantiles are finite (JSON-encodable), are valid
// upper bounds clamped to the maximum observation, are monotone in q,
// and the underflow/overflow/bucket counts partition the total.
func FuzzHistogramQuantile(f *testing.F) {
	f.Add(uint8(4), 2.0, 1.0, 100.0, 0.99)
	f.Add(uint8(1), 0.5, -3.0, 1e12, 1.0)
	f.Add(uint8(16), 1.0, 0.0, 0.0, 0.0)
	f.Add(uint8(8), 1.0, -5.0, -1.0, 0.5)
	f.Add(uint8(2), 0.25, -1e9, 3.0, 0.9)
	f.Fuzz(func(t *testing.T, buckets uint8, width, a, b, q float64) {
		if buckets == 0 || width <= 0 || math.IsNaN(width) || math.IsInf(width, 0) {
			t.Skip()
		}
		if math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0) {
			t.Skip()
		}
		if math.IsNaN(q) || q < 0 || q > 1 {
			t.Skip()
		}
		h := NewHistogram(int(buckets), width)
		h.Observe(a)
		h.Observe(b)
		h.Observe(a/2 + b/2)

		var wantUnder uint64
		for _, v := range []float64{a, b, a/2 + b/2} {
			if v < 0 {
				wantUnder++
			}
		}
		if h.Underflow() != wantUnder {
			t.Fatalf("Underflow = %d, want %d", h.Underflow(), wantUnder)
		}
		var binned uint64
		for i := 0; i < int(buckets); i++ {
			binned += h.Bucket(i)
		}
		if sum := binned + h.Underflow() + h.Overflow(); sum != h.Total() {
			t.Fatalf("buckets+underflow+overflow = %d, want Total %d", sum, h.Total())
		}

		v := h.Quantile(q)
		if math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("Quantile(%v) = %v, want finite", q, v)
		}
		if v > h.Max() {
			t.Fatalf("Quantile(%v) = %v exceeds max observation %v", q, v, h.Max())
		}
		if top := h.Quantile(1); v > top {
			t.Fatalf("Quantile(%v) = %v > Quantile(1) = %v, want monotone", q, v, top)
		}
		if _, err := json.Marshal(v); err != nil {
			t.Fatalf("quantile %v not JSON-encodable: %v", v, err)
		}
	})
}

// fuzzStats has one field of every kind the window/fold rule supports:
// signed and unsigned integers of each width, a duration, both float
// widths, high-water marks of each value class and a mode flag.
type fuzzStats struct {
	I   int
	I8  int8
	I16 int16
	I32 int32
	I64 int64
	D   time.Duration
	U   uint
	U8  uint8
	U16 uint16
	U32 uint32
	U64 uint64
	F32 float32
	F64 float64

	MaxI int     `stat:"max"`
	MaxU uint32  `stat:"max"`
	MaxF float64 `stat:"max"`

	Flag bool
}

var fuzzRule = RuleFor[fuzzStats]()

func newFuzzStats(i int64, u uint64, f float64, flag bool) fuzzStats {
	return fuzzStats{
		I: int(i), I8: int8(i >> 3), I16: int16(i >> 7), I32: int32(i >> 11), I64: i, D: time.Duration(i >> 1),
		U: uint(u), U8: uint8(u >> 3), U16: uint16(u >> 7), U32: uint32(u >> 11), U64: u,
		F32: float32(f), F64: f,
		MaxI: int(i >> 5), MaxU: uint32(u >> 5), MaxF: f / 3,
		Flag: flag,
	}
}

// sameFloat reports got == want bit for bit, or both NaN.
func sameFloat(got, want float64) bool {
	return math.Float64bits(got) == math.Float64bits(want) || math.IsNaN(got) && math.IsNaN(want)
}

// FuzzStatsWindowFold checks the window/fold rule field kind by field
// kind: an integer window folds back to the later snapshot exactly
// (wrapping included), float windows and folds are the plain IEEE
// difference and sum, high-water marks keep the later value in a window
// and the larger in a fold, and mode flags keep the later value in a
// window and OR in a fold.
func FuzzStatsWindowFold(f *testing.F) {
	f.Add(int64(10), int64(4), uint64(7), uint64(2), 3.5, 1.25, true, false)
	f.Add(int64(-1), int64(math.MaxInt64), uint64(0), uint64(math.MaxUint64), 1e300, -1e300, false, true)
	f.Add(int64(math.MinInt64), int64(1), uint64(1), uint64(3), math.Inf(1), math.Inf(-1), false, false)
	f.Add(int64(0), int64(0), uint64(5), uint64(5), 0.1, 0.2, true, true)
	f.Fuzz(func(t *testing.T, ia, ib int64, ua, ub uint64, fa, fb float64, ba, bb bool) {
		a, b := newFuzzStats(ia, ua, fa, ba), newFuzzStats(ib, ub, fb, bb)
		w, sum := fuzzRule.Window(a, b), fuzzRule.Fold(a, b)

		back := fuzzRule.Fold(w, b)
		back.F32, back.F64, back.MaxI, back.MaxU, back.MaxF, back.Flag = a.F32, a.F64, a.MaxI, a.MaxU, a.MaxF, a.Flag
		if back != a {
			t.Fatalf("Fold(Window(a, b), b) = %+v, want integer fields of a = %+v", back, a)
		}

		if !sameFloat(float64(w.F32), float64(a.F32-b.F32)) || !sameFloat(w.F64, a.F64-b.F64) {
			t.Errorf("Window floats = %v, %v, want %v, %v", w.F32, w.F64, a.F32-b.F32, a.F64-b.F64)
		}
		if !sameFloat(float64(sum.F32), float64(a.F32+b.F32)) || !sameFloat(sum.F64, a.F64+b.F64) {
			t.Errorf("Fold floats = %v, %v, want %v, %v", sum.F32, sum.F64, a.F32+b.F32, a.F64+b.F64)
		}

		if w.MaxI != a.MaxI || w.MaxU != a.MaxU || !sameFloat(w.MaxF, a.MaxF) || w.Flag != a.Flag {
			t.Errorf("Window high-water/flag = %v %v %v %v, want a's %v %v %v %v",
				w.MaxI, w.MaxU, w.MaxF, w.Flag, a.MaxI, a.MaxU, a.MaxF, a.Flag)
		}
		if sum.MaxI != max(a.MaxI, b.MaxI) || sum.MaxU != max(a.MaxU, b.MaxU) || !sameFloat(sum.MaxF, max(a.MaxF, b.MaxF)) {
			t.Errorf("Fold high-water = %v %v %v, want the larger of %+v and %+v", sum.MaxI, sum.MaxU, sum.MaxF, a, b)
		}
		if sum.Flag != (a.Flag || b.Flag) {
			t.Errorf("Fold flag = %v, want %v || %v", sum.Flag, a.Flag, b.Flag)
		}
	})
}
