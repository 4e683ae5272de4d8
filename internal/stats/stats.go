// Package stats provides the counters, histograms and aggregate helpers
// used by the simulator and the experiment harness. The paper reports
// per-benchmark series plus geometric means (GMEAN labels in Figures 6-18),
// so geometric-mean support is first class here.
package stats

import (
	"fmt"
	"math"
	"sort"

	"smartrefresh/internal/sim"
)

// Counter is a simple monotonically increasing event count.
type Counter struct {
	n uint64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta uint64) { c.n += delta }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n++ }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Reset sets the counter back to zero.
func (c *Counter) Reset() { c.n = 0 }

// Sample accumulates a stream of float64 observations and reports their
// mean. The mean is Welford's running mean: a running sum divided at the
// end loses precision when the sum dwarfs the spread (nanosecond-scale
// latency timestamps are exactly that regime).
type Sample struct {
	n    uint64
	mean float64
}

// Observe adds one observation.
func (s *Sample) Observe(v float64) {
	s.n++
	s.mean += (v - s.mean) / float64(s.n)
}

// N returns the number of observations.
func (s *Sample) N() uint64 { return s.n }

// Mean returns the arithmetic mean, or 0 with no observations.
func (s *Sample) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.mean
}

// Merge folds another sample into s using the pairwise (Chan et al.)
// combination of the means, so per-vault latency samples can be
// aggregated without replaying observations. Merging in a fixed vault
// order keeps the result bit-identical at any shard count.
func (s *Sample) Merge(o *Sample) {
	if o == nil || o.n == 0 {
		return
	}
	if s.n == 0 {
		*s = *o
		return
	}
	n := s.n + o.n
	s.mean += (o.mean - s.mean) * float64(o.n) / float64(n)
	s.n = n
}

// GeoMean returns the geometric mean of vs, ignoring non-positive entries
// the same way the paper's GMEAN rows do (a zero saving would otherwise
// zero the whole mean). It returns 0 if no positive entries exist.
func GeoMean(vs []float64) float64 {
	var logSum float64
	var n int
	for _, v := range vs {
		if v <= 0 {
			continue
		}
		logSum += math.Log(v)
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// Mean returns the arithmetic mean of vs, or 0 for an empty slice.
func Mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// Histogram is a fixed-bucket histogram over [0, buckets*width). Values at
// or beyond the top land in an overflow bucket; negative values land in an
// underflow bucket (they used to be misfiled into bucket 0, skewing the
// low end of every latency distribution that ever saw a negative input).
type Histogram struct {
	width     float64
	counts    []uint64
	underflow uint64
	overflow  uint64
	total     uint64
	max       float64 // largest observation, for overflow quantiles
}

// NewHistogram creates a histogram with the given bucket count and width.
func NewHistogram(buckets int, width float64) *Histogram {
	if buckets <= 0 || width <= 0 {
		panic(fmt.Sprintf("stats: invalid histogram shape buckets=%d width=%v", buckets, width))
	}
	// A vault's histogram owns its cache lines (DESIGN §16).
	h := sim.OwnLine[Histogram]()
	*h = Histogram{width: width, counts: sim.OwnLines[uint64](buckets)}
	return h
}

// Reset empties the histogram, keeping its shape and bucket array: the
// histogram NewHistogram returns.
func (h *Histogram) Reset() {
	clear(h.counts)
	h.underflow, h.overflow, h.total, h.max = 0, 0, 0, 0
}

// Observe adds an observation. Negative values count in the underflow
// bucket (a negative bucket index would misfile them into bucket 0 — or
// panic for NaN-tainted streams); they still count toward Total and the
// quantiles, with 0 as their bucket upper edge.
func (h *Histogram) Observe(v float64) {
	if h.total == 0 || v > h.max {
		h.max = v
	}
	h.total++
	if v < 0 {
		h.underflow++
		return
	}
	i := int(v / h.width)
	if i >= len(h.counts) || i < 0 {
		// i < 0 guards int overflow for huge v/width ratios.
		h.overflow++
		return
	}
	h.counts[i]++
}

// Merge adds another histogram's counts into h. Both histograms must
// share bucket count and width; Merge panics otherwise — vault
// controllers are constructed from one config, so differing shapes are a
// programming error, not data.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.total == 0 {
		return
	}
	if len(h.counts) != len(o.counts) || h.width != o.width {
		panic(fmt.Sprintf("stats: merging histograms of different shape: %dx%v vs %dx%v",
			len(h.counts), h.width, len(o.counts), o.width))
	}
	if h.total == 0 || o.max > h.max {
		h.max = o.max
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.underflow += o.underflow
	h.overflow += o.overflow
	h.total += o.total
}

// Total returns the number of observations.
func (h *Histogram) Total() uint64 { return h.total }

// Bucket returns the count in bucket i.
func (h *Histogram) Bucket(i int) uint64 { return h.counts[i] }

// Overflow returns the count of observations beyond the last bucket.
func (h *Histogram) Overflow() uint64 { return h.overflow }

// Underflow returns the count of negative observations.
func (h *Histogram) Underflow() uint64 { return h.underflow }

// Max returns the largest observation, or 0 with no observations.
func (h *Histogram) Max() float64 {
	if h.total == 0 {
		return 0
	}
	return h.max
}

// Quantile returns an upper bound for the q-quantile (0 <= q <= 1) using
// bucket upper edges, clamped to the largest observation. The clamp keeps
// quantiles that land in the overflow bucket finite (encoding/json rejects
// +Inf, so an unclamped value would make any report carrying a P99
// unserialisable) while remaining a valid upper bound.
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(h.total)))
	if target == 0 {
		target = 1
	}
	// Underflow observations sort below every bucket; their upper edge is
	// 0 (clamped to the maximum like every other bucket edge).
	cum := h.underflow
	if cum >= target {
		return math.Min(0, h.max)
	}
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			return math.Min(float64(i+1)*h.width, h.max)
		}
	}
	return h.max
}

// Series is a named list of (label, value) points — one per benchmark —
// matching how the paper's figures are organised. It preserves insertion
// order so output matches the figure's x-axis ordering.
type Series struct {
	Name   string
	labels []string
	values map[string]float64
}

// NewSeries creates an empty series.
func NewSeries(name string) *Series {
	return &Series{Name: name, values: make(map[string]float64)}
}

// Set records a value for a label, adding the label on first use.
func (s *Series) Set(label string, v float64) {
	if _, ok := s.values[label]; !ok {
		s.labels = append(s.labels, label)
	}
	s.values[label] = v
}

// Get returns the value for a label.
func (s *Series) Get(label string) (float64, bool) {
	v, ok := s.values[label]
	return v, ok
}

// Labels returns the labels in insertion order.
func (s *Series) Labels() []string {
	out := make([]string, len(s.labels))
	copy(out, s.labels)
	return out
}

// Values returns the values in label insertion order.
func (s *Series) Values() []float64 {
	out := make([]float64, 0, len(s.labels))
	for _, l := range s.labels {
		out = append(out, s.values[l])
	}
	return out
}

// GeoMean returns the geometric mean of the series values.
func (s *Series) GeoMean() float64 { return GeoMean(s.Values()) }

// Mean returns the arithmetic mean of the series values.
func (s *Series) Mean() float64 { return Mean(s.Values()) }

// Len returns the number of points.
func (s *Series) Len() int { return len(s.labels) }

// SortedLabels returns the labels sorted lexicographically (useful for
// stable test output independent of insertion order).
func (s *Series) SortedLabels() []string {
	out := s.Labels()
	sort.Strings(out)
	return out
}
