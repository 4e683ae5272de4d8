// Package workload generates the synthetic benchmark access streams that
// stand in for the paper's Simics/Ruby-driven SPLASH-2, SPECint2000 and
// Biobench runs (see DESIGN.md, substitution 1). Each benchmark has a
// profile whose parameters are calibrated so the row-touch density per
// refresh interval — the single property Smart Refresh responds to —
// matches the per-benchmark behaviour published in Figures 6-17.
package workload

import (
	"errors"
	"fmt"
	"math"

	"smartrefresh/internal/sim"
	"smartrefresh/internal/trace"
)

// StreamSpec parameterises one synthetic access stream.
type StreamSpec struct {
	// FootprintBytes is the hot region swept cyclically: the set of
	// addresses re-touched every SweepPeriod. Divided by StrideBytes it
	// determines how many DRAM rows stay "alive" (never periodically
	// refreshed under Smart Refresh).
	FootprintBytes int64

	// StrideBytes is the sweep stride, normally the device row size so
	// each sweep step touches a fresh row (16 KB for the Table 1 modules,
	// 1 KB for the Table 2 stacked module).
	StrideBytes int64

	// SweepPeriod is the time to re-touch the whole footprint. It must be
	// below (1-2^-bits) of the refresh interval for the touched rows to
	// skip every periodic refresh.
	SweepPeriod sim.Duration

	// RowRepeats is the mean number of extra same-row accesses (row-buffer
	// hits at other columns) per sweep touch, drawn geometrically.
	RowRepeats float64

	// WriteFraction is the probability an access is a write.
	WriteFraction float64

	// JitterFraction randomises each inter-arrival gap by up to this
	// fraction in either direction.
	JitterFraction float64

	// Shuffle visits the footprint's rows in a fixed pseudo-random order
	// instead of sequentially (same coverage, scattered addresses).
	Shuffle bool
}

// Validate reports an error for unusable parameters.
func (s StreamSpec) Validate() error {
	if s.FootprintBytes < 0 || s.StrideBytes <= 0 {
		return fmt.Errorf("workload: bad footprint/stride %d/%d", s.FootprintBytes, s.StrideBytes)
	}
	if s.FootprintBytes > 0 && s.SweepPeriod <= 0 {
		return fmt.Errorf("workload: non-positive sweep period")
	}
	// The comparisons are written to fail on NaN, and RowRepeats must be
	// finite: an infinite mean makes the repeat probability NaN.
	if !(s.RowRepeats >= 0 && s.RowRepeats <= math.MaxFloat64) || !(s.WriteFraction >= 0 && s.WriteFraction <= 1) {
		return fmt.Errorf("workload: bad repeats/writes %v/%v", s.RowRepeats, s.WriteFraction)
	}
	if !(s.JitterFraction >= 0 && s.JitterFraction < 1) {
		return fmt.Errorf("workload: jitter %v outside [0,1)", s.JitterFraction)
	}
	if s.Shuffle && s.Rows() > math.MaxUint32 {
		return errShuffleRows
	}
	return nil
}

// errShuffleRows rejects a shuffled spec whose visit order would not fit
// the generator's 32-bit permutation. It is a fixed error so that
// Validate allocates nothing on either side of the bound.
var errShuffleRows = errors.New("workload: shuffled footprint has more than 2^32-1 rows")

// Rows returns the number of distinct stride-sized rows in the footprint.
func (s StreamSpec) Rows() int64 {
	if s.StrideBytes <= 0 {
		return 0
	}
	return s.FootprintBytes / s.StrideBytes
}

// AccessesPerSecond estimates the demand rate the stream produces.
func (s StreamSpec) AccessesPerSecond() float64 {
	rows := s.Rows()
	if rows == 0 || s.SweepPeriod <= 0 {
		return 0
	}
	return float64(rows) / s.SweepPeriod.Seconds() * (1 + s.RowRepeats)
}

// Generator produces an endless, deterministic access stream from a spec.
// It implements trace.Source (Next never returns ok=false).
type Generator struct {
	spec StreamSpec
	rng  sim.RNG

	// rows is the number of footprint rows and pos the next to touch in
	// visit order. A sequential sweep visits row pos; a shuffled one
	// visits perm[pos], a fixed permutation (nil when sequential) that
	// generators of one row count and seed share and never write.
	rows int
	pos  int
	perm []uint32
	gap  sim.Duration // nominal gap between sweep touches
	// write and repeat are the write probability and the geometric
	// continue-probability of a same-row repeat, prepared for RNG.Hit;
	// jitter is the largest gap offset either way (0: no jitter draw).
	write  sim.Chance
	repeat sim.Chance
	jitter float64
	now    sim.Time
	queued []trace.Record // same-row repeat accesses pending emission
	head   int            // next queued record to emit; the queue resets once drained
}

// NewGenerator builds a generator; it panics on an invalid spec. A
// shuffled generator takes its row order from a process-wide table keyed
// by row count and seed (see shuffled), so only the first generator of a
// key runs the shuffle.
func NewGenerator(spec StreamSpec, seed uint64) *Generator {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	g := &Generator{
		spec:   spec,
		rng:    *sim.NewRNG(seed),
		write:  sim.NewChance(spec.WriteFraction),
		repeat: sim.NewChance(spec.RowRepeats / (1 + spec.RowRepeats)),
	}
	rows := int(spec.Rows())
	g.rows = rows
	if rows > 0 {
		if spec.Shuffle {
			g.perm, g.rng = shuffled(rows, seed)
		}
		g.gap = spec.SweepPeriod / sim.Duration(rows)
		if g.gap <= 0 {
			g.gap = 1
		}
		g.jitter = float64(g.gap) * spec.JitterFraction
	}
	return g
}

// Spec returns the generating spec.
func (g *Generator) Spec() StreamSpec { return g.spec }

// Next implements trace.Source. A stream with an empty footprint produces
// no records (idle workload).
func (g *Generator) Next() (trace.Record, bool) {
	if g.head < len(g.queued) {
		rec := g.queued[g.head]
		g.head++
		return rec, true
	}
	g.queued, g.head = g.queued[:0], 0
	if g.rows == 0 {
		return trace.Record{}, false
	}

	row := g.pos
	if g.perm != nil {
		row = int(g.perm[row])
	}
	g.pos++
	if g.pos == g.rows {
		g.pos = 0
	}

	base := uint64(row) * uint64(g.spec.StrideBytes)
	rec := trace.Record{
		Time:  g.now,
		Addr:  base,
		Write: g.rng.Hit(g.write),
	}

	// Queue geometric same-row repeats at short offsets after the touch.
	at := g.now
	for g.rng.Hit(g.repeat) {
		at += 60 * sim.Nanosecond
		col := g.rng.Int63n(g.spec.StrideBytes) &^ 63
		g.queued = append(g.queued, trace.Record{
			Time:  at,
			Addr:  base + uint64(col),
			Write: g.rng.Hit(g.write),
		})
	}

	// Advance time to the next sweep touch with jitter, never earlier
	// than the queued same-row repeats (the stream must stay
	// time-ordered).
	gap := g.gap
	if g.jitter > 0 {
		gap += sim.Duration((g.rng.Float64()*2 - 1) * g.jitter)
		if gap < 1 {
			gap = 1
		}
	}
	g.now += gap
	if n := len(g.queued); n > 0 && g.queued[n-1].Time >= g.now {
		g.now = g.queued[n-1].Time + 1
	}
	return rec, true
}

// Merge interleaves multiple sources in time order (used for the
// 2-process SPECint mixes, offsetting the second process's addresses).
type Merge struct {
	srcs []trace.Source
	head []trace.Record
	ok   []bool
}

// NewMerge wraps sources. Each must be individually time-ordered.
func NewMerge(srcs ...trace.Source) *Merge {
	m := &Merge{srcs: srcs, head: make([]trace.Record, len(srcs)), ok: make([]bool, len(srcs))}
	for i, s := range srcs {
		m.head[i], m.ok[i] = s.Next()
	}
	return m
}

// Next implements trace.Source.
func (m *Merge) Next() (trace.Record, bool) {
	best := -1
	for i := range m.srcs {
		if !m.ok[i] {
			continue
		}
		if best == -1 || m.head[i].Time < m.head[best].Time {
			best = i
		}
	}
	if best == -1 {
		return trace.Record{}, false
	}
	rec := m.head[best]
	m.head[best], m.ok[best] = m.srcs[best].Next()
	return rec, true
}

// Offset shifts every address of a source by a fixed amount (distinct
// address spaces for multiprogrammed mixes).
type Offset struct {
	src   trace.Source
	delta uint64
}

// NewOffset wraps src, adding delta to every address.
func NewOffset(src trace.Source, delta uint64) *Offset { return &Offset{src: src, delta: delta} }

// Next implements trace.Source.
func (o *Offset) Next() (trace.Record, bool) {
	rec, ok := o.src.Next()
	rec.Addr += o.delta
	return rec, ok
}
