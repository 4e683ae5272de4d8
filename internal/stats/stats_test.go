package stats

import (
	"encoding/json"
	"math"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Fatalf("counter = %d, want 10", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Fatalf("counter after reset = %d", c.Value())
	}
}

func TestSampleMoments(t *testing.T) {
	var s Sample
	for _, v := range []float64{1, 2, 3, 4} {
		s.Observe(v)
	}
	if s.N() != 4 {
		t.Errorf("N = %d", s.N())
	}
	if s.Sum() != 10 {
		t.Errorf("Sum = %v", s.Sum())
	}
	if s.Mean() != 2.5 {
		t.Errorf("Mean = %v", s.Mean())
	}
	if s.Min() != 1 || s.Max() != 4 {
		t.Errorf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	want := math.Sqrt(1.25)
	if math.Abs(s.StdDev()-want) > 1e-12 {
		t.Errorf("StdDev = %v, want %v", s.StdDev(), want)
	}
}

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.StdDev() != 0 {
		t.Error("empty sample should report zero moments")
	}
}

func TestSampleStdDevLargeOffset(t *testing.T) {
	// Regression: the sum-of-squares variance formula cancels
	// catastrophically when the mean dwarfs the spread — exactly the shape
	// of nanosecond-scale latency values late in a long run. Welford's
	// algorithm keeps full precision.
	const offset = 1e15 // ~11.5 days in nanoseconds
	var s Sample
	for _, v := range []float64{offset + 1, offset + 2, offset + 3, offset + 4} {
		s.Observe(v)
	}
	want := math.Sqrt(1.25)
	if got := s.StdDev(); math.Abs(got-want) > 1e-9 {
		t.Errorf("StdDev with offset %g = %v, want %v", offset, got, want)
	}
	if got := s.Mean(); math.Abs(got-(offset+2.5)) > 1e-3 {
		t.Errorf("Mean with offset = %v", got)
	}
}

func TestGeoMean(t *testing.T) {
	got := GeoMean([]float64{1, 100})
	if math.Abs(got-10) > 1e-9 {
		t.Errorf("GeoMean(1,100) = %v, want 10", got)
	}
	// Non-positive entries are ignored, as in the paper's GMEAN rows.
	got = GeoMean([]float64{0, 1, 100, -3})
	if math.Abs(got-10) > 1e-9 {
		t.Errorf("GeoMean ignoring <=0 = %v, want 10", got)
	}
	if GeoMean(nil) != 0 {
		t.Error("GeoMean(nil) != 0")
	}
	if GeoMean([]float64{0, -1}) != 0 {
		t.Error("GeoMean of all non-positive != 0")
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if Mean([]float64{2, 4}) != 3 {
		t.Error("Mean(2,4) != 3")
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(10, 1.0)
	for _, v := range []float64{0.5, 1.5, 1.7, 9.9, 10.0, 55, -1} {
		h.Observe(v)
	}
	if h.Total() != 7 {
		t.Errorf("Total = %d", h.Total())
	}
	if h.Bucket(0) != 1 { // only 0.5; -1 counts as underflow, not bucket 0
		t.Errorf("Bucket(0) = %d", h.Bucket(0))
	}
	if h.Bucket(1) != 2 {
		t.Errorf("Bucket(1) = %d", h.Bucket(1))
	}
	if h.Overflow() != 2 {
		t.Errorf("Overflow = %d", h.Overflow())
	}
	if h.Underflow() != 1 {
		t.Errorf("Underflow = %d", h.Underflow())
	}
}

func TestHistogramUnderflow(t *testing.T) {
	// Regression: negative observations used to be misfiled into bucket 0,
	// inflating the low end of the distribution; they now count in a
	// dedicated underflow bucket mirroring Overflow.
	h := NewHistogram(4, 1)
	for _, v := range []float64{-5, -0.001, 2.5} {
		h.Observe(v)
	}
	if h.Underflow() != 2 {
		t.Fatalf("Underflow = %d, want 2", h.Underflow())
	}
	if h.Bucket(0) != 0 {
		t.Fatalf("Bucket(0) = %d, want 0", h.Bucket(0))
	}
	if h.Total() != 3 {
		t.Fatalf("Total = %d, want 3", h.Total())
	}
	// Underflow sorts below bucket 0: its quantile upper edge is 0.
	if q := h.Quantile(0.5); q != 0 {
		t.Errorf("Quantile(0.5) = %v, want 0 (underflow upper edge)", q)
	}
	if q := h.Quantile(1); q != 2.5 {
		t.Errorf("Quantile(1) = %v, want 2.5", q)
	}

	// All-negative streams clamp to the (negative) maximum observation.
	neg := NewHistogram(4, 1)
	neg.Observe(-3)
	neg.Observe(-7)
	if q := neg.Quantile(0.99); q != -3 {
		t.Errorf("all-negative Quantile(0.99) = %v, want -3", q)
	}
	if neg.Underflow() != 2 {
		t.Errorf("all-negative Underflow = %d, want 2", neg.Underflow())
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(100, 1.0)
	for i := 0; i < 100; i++ {
		h.Observe(float64(i))
	}
	if q := h.Quantile(0.5); q != 50 {
		t.Errorf("Quantile(0.5) = %v, want 50", q)
	}
	// The top quantile is clamped to the largest observation (99), not the
	// bucket edge (100).
	if q := h.Quantile(1.0); q != 99 {
		t.Errorf("Quantile(1.0) = %v, want 99", q)
	}
	h.Observe(1e9)
	if q := h.Quantile(1.0); q != 1e9 {
		t.Errorf("Quantile(1.0) with overflow = %v, want the max observation 1e9", q)
	}
}

func TestHistogramQuantileOverflowFinite(t *testing.T) {
	// Regression: quantiles landing in the overflow bucket used to return
	// +Inf, which encoding/json rejects, so any report surfacing a P99
	// failed to encode.
	h := NewHistogram(4, 1)
	for i := 0; i < 100; i++ {
		h.Observe(1e6)
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		v := h.Quantile(q)
		if math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("Quantile(%v) = %v, want finite", q, v)
		}
		if v != 1e6 {
			t.Errorf("Quantile(%v) = %v, want the max observation 1e6", q, v)
		}
	}
	if _, err := json.Marshal(map[string]float64{"p99": h.Quantile(0.99)}); err != nil {
		t.Errorf("overflow quantile not JSON-encodable: %v", err)
	}
	if h.Max() != 1e6 {
		t.Errorf("Max = %v, want 1e6", h.Max())
	}
}

func TestHistogramQuantileEmpty(t *testing.T) {
	h := NewHistogram(4, 1)
	if h.Quantile(0.5) != 0 {
		t.Error("quantile of empty histogram should be 0")
	}
}

func TestHistogramPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewHistogram(0,1) did not panic")
		}
	}()
	NewHistogram(0, 1)
}

func TestSeriesOrderAndValues(t *testing.T) {
	s := NewSeries("fig6")
	s.Set("clustalw", 1)
	s.Set("fasta", 2)
	s.Set("clustalw", 3) // overwrite keeps position
	labels := s.Labels()
	if len(labels) != 2 || labels[0] != "clustalw" || labels[1] != "fasta" {
		t.Fatalf("labels = %v", labels)
	}
	vals := s.Values()
	if vals[0] != 3 || vals[1] != 2 {
		t.Fatalf("values = %v", vals)
	}
	if v, ok := s.Get("fasta"); !ok || v != 2 {
		t.Errorf("Get(fasta) = %v,%v", v, ok)
	}
	if _, ok := s.Get("missing"); ok {
		t.Error("Get(missing) reported ok")
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d", s.Len())
	}
	sorted := s.SortedLabels()
	if sorted[0] != "clustalw" || sorted[1] != "fasta" {
		t.Errorf("sorted labels = %v", sorted)
	}
}

func TestSeriesAggregates(t *testing.T) {
	s := NewSeries("x")
	s.Set("a", 1)
	s.Set("b", 100)
	if math.Abs(s.GeoMean()-10) > 1e-9 {
		t.Errorf("series GeoMean = %v", s.GeoMean())
	}
	if s.Mean() != 50.5 {
		t.Errorf("series Mean = %v", s.Mean())
	}
}

// Property: sample mean always lies between min and max.
func TestSampleMeanBounded(t *testing.T) {
	f := func(vs []float64) bool {
		var s Sample
		for _, v := range vs {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				continue // avoid float64 overflow in the running sums
			}
			s.Observe(v)
		}
		if s.N() == 0 {
			return true
		}
		m := s.Mean()
		return m >= s.Min()-1e-9*math.Abs(s.Min())-1e-9 &&
			m <= s.Max()+1e-9*math.Abs(s.Max())+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: geometric mean of positive values lies between min and max.
func TestGeoMeanBounded(t *testing.T) {
	f := func(raw []float64) bool {
		var vs []float64
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range raw {
			v = math.Abs(v)
			if v == 0 || math.IsNaN(v) || math.IsInf(v, 0) || v > 1e100 || v < 1e-100 {
				continue
			}
			vs = append(vs, v)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if len(vs) == 0 {
			return true
		}
		g := GeoMean(vs)
		return g >= lo*(1-1e-9) && g <= hi*(1+1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSampleMerge(t *testing.T) {
	// Merging shards must agree with observing the concatenated stream.
	var whole, a, b Sample
	for i := 0; i < 100; i++ {
		v := float64(i%13)*3.5 - 7
		whole.Observe(v)
		if i < 40 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
	}
	a.Merge(&b)
	if a.N() != whole.N() || a.Min() != whole.Min() || a.Max() != whole.Max() {
		t.Fatalf("merged n/min/max = %d/%v/%v, want %d/%v/%v",
			a.N(), a.Min(), a.Max(), whole.N(), whole.Min(), whole.Max())
	}
	if math.Abs(a.Mean()-whole.Mean()) > 1e-9 || math.Abs(a.StdDev()-whole.StdDev()) > 1e-9 {
		t.Fatalf("merged mean/stddev = %v/%v, want %v/%v", a.Mean(), a.StdDev(), whole.Mean(), whole.StdDev())
	}

	var empty Sample
	a.Merge(&empty) // no-op
	if a.N() != whole.N() {
		t.Fatal("merging empty sample changed N")
	}
	empty.Merge(&a) // adopt
	if empty.N() != a.N() || empty.Mean() != a.Mean() {
		t.Fatal("merge into empty sample did not adopt state")
	}
}

func TestHistogramMerge(t *testing.T) {
	whole := NewHistogram(8, 1)
	a := NewHistogram(8, 1)
	b := NewHistogram(8, 1)
	for i := 0; i < 60; i++ {
		v := float64(i%12) - 2 // exercises underflow and overflow
		whole.Observe(v)
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
	}
	a.Merge(b)
	if a.Total() != whole.Total() || a.Underflow() != whole.Underflow() || a.Overflow() != whole.Overflow() {
		t.Fatalf("merged totals %d/%d/%d, want %d/%d/%d",
			a.Total(), a.Underflow(), a.Overflow(), whole.Total(), whole.Underflow(), whole.Overflow())
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if a.Quantile(q) != whole.Quantile(q) {
			t.Fatalf("q%v: merged %v, whole %v", q, a.Quantile(q), whole.Quantile(q))
		}
	}
}

func TestHistogramMergeShapeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch accepted")
		}
	}()
	b := NewHistogram(4, 1)
	b.Observe(1)
	NewHistogram(8, 1).Merge(b)
}

// RuleFor panics on any field it has no rule for, so a new stat cannot
// be silently left out of a window or a fold.
func TestRuleForRejectsUnsupportedFields(t *testing.T) {
	type str struct{ Name string }
	type nested struct{ Inner struct{ N uint64 } }
	type unexported struct{ n uint64 }
	type badTag struct {
		N uint64 `stat:"min"`
	}
	for name, build := range map[string]func(){
		"string":     func() { RuleFor[str]() },
		"struct":     func() { RuleFor[nested]() },
		"unexported": func() { RuleFor[unexported]() },
		"bad tag":    func() { RuleFor[badTag]() },
		"non-struct": func() { RuleFor[int]() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			build()
		}()
	}
}
