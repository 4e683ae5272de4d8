package core

import (
	"fmt"
	"math"
	"math/bits"

	"smartrefresh/internal/dram"
	"smartrefresh/internal/sim"
	"smartrefresh/internal/telemetry"
)

// SmartConfig parameterises the Smart Refresh policy. The zero value is
// not valid; use DefaultSmartConfig.
type SmartConfig struct {
	// CounterBits is the width of each per-row time-out counter. The paper
	// explains the mechanism with 2 bits and simulates with 3 (section
	// 4.2); optimality is 1 - 2^-bits (section 4.4).
	CounterBits int

	// Segments is the number of logical segments the counters are hashed
	// into (section 4.2); one counter per segment is indexed at each tick.
	// The paper uses 8 segments, matching the pending queue size.
	Segments int

	// QueueDepth is the pending refresh request queue capacity (section 5;
	// 8 entries). A tick can emit at most Segments requests, so the queue
	// never overflows when QueueDepth >= Segments.
	QueueDepth int

	// SelfDisable enables the section 4.6 circuitry: fall back to CBR
	// refresh when demand accesses over a whole refresh interval drop
	// below DisableBelow * rows, and re-enable above EnableAbove * rows.
	SelfDisable  bool
	DisableBelow float64
	EnableAbove  float64

	// UniformSeed initialises every counter to the same value instead of
	// the figure 2(b)/3 stagger — the burst-prone configuration of
	// figure 2(a), kept as an ablation knob. Production use should leave
	// this false.
	UniformSeed bool
}

// DefaultSmartConfig returns the configuration used for all the paper's
// simulations: 3-bit counters, 8 segments, an 8-entry pending queue, and
// the 1%/2% self-disable thresholds.
func DefaultSmartConfig() SmartConfig {
	return SmartConfig{
		CounterBits:  3,
		Segments:     8,
		QueueDepth:   8,
		SelfDisable:  true,
		DisableBelow: 0.01,
		EnableAbove:  0.02,
	}
}

// Validate reports an error for inconsistent configuration.
func (c SmartConfig) Validate() error {
	if c.CounterBits < 1 || c.CounterBits > 8 {
		return fmt.Errorf("core: CounterBits = %d, want 1..8", c.CounterBits)
	}
	if c.Segments < 1 || c.Segments > math.MaxUint16 {
		// zeroCnt counts a position's zero counters, up to Segments, in
		// 16 bits.
		return fmt.Errorf("core: Segments = %d, want 1..%d", c.Segments, math.MaxUint16)
	}
	if c.QueueDepth < c.Segments {
		return fmt.Errorf("core: QueueDepth %d < Segments %d would allow queue overflow",
			c.QueueDepth, c.Segments)
	}
	if c.SelfDisable {
		// Negated comparisons so NaN thresholds fail too.
		if !(c.DisableBelow > 0) || !(c.EnableAbove > c.DisableBelow) {
			return fmt.Errorf("core: disable thresholds %v/%v must satisfy 0 < disable < enable",
				c.DisableBelow, c.EnableAbove)
		}
	}
	return nil
}

// Smart is the Smart Refresh policy (sections 4 and 5): a time-out counter
// per (channel, rank, bank, row), hashed into logical segments whose
// countdown is staggered, plus a bounded pending refresh request queue.
// Rows restored by demand traffic have their counters reset and are not
// refreshed until the counter next reaches zero.
type Smart struct {
	geom     dram.Geometry
	interval sim.Duration
	cfg      SmartConfig

	// counters is stored position-major: slot pos*Segments+seg holds the
	// counter of logical row seg*rowsPerSeg+pos. A tick indexes one
	// position of every segment, so the packed layout turns the tick's
	// Segments accesses into one contiguous (usually single-cache-line)
	// block instead of Segments loads spread rowsPerSeg bytes apart.
	counters []uint8
	max      uint8
	modulus  int // 2^CounterBits

	// zeroCnt[pos] counts the zero counters among the Segments slots
	// indexed at in-segment position pos — the segment-level summary that
	// lets a tick with no due rows skip the per-counter zero checks and
	// all emission work.
	zeroCnt []uint16

	// maxFor, when non-nil, overrides the per-row counter reset value
	// (retention-aware extension); nil means the uniform maximum.
	maxFor func(flat int) uint8

	// rowsPerSeg is a power of two: the row count is one (Geometry.Validate)
	// and Segments divides it. posBits is its log2.
	rowsPerSeg int
	posBits    uint

	// clock schedules the ticks: rowsPerSeg ticks per counter access
	// period (interval / 2^bits), and tick k indexes position
	// clock.frac = k mod rowsPerSeg of every segment, so a full pass over
	// a segment takes one counter access period.
	clock slotClock

	pending []Command // bounded by cfg.QueueDepth

	// Section 4.6 self-disable state.
	disabled       bool
	windowStart    sim.Time
	windowAccesses uint64
	disabledSince  sim.Time
	cbr            *CBR // delegate used while disabled

	// trace, when non-nil, receives one instant event per section 4.6
	// mode switch (nil-scope no-op when telemetry is disabled).
	trace *telemetry.Scope

	stats PolicyStats
}

// NewSmart constructs a Smart Refresh policy for the given module
// geometry and refresh interval. It panics on invalid configuration.
func NewSmart(g dram.Geometry, interval sim.Duration, cfg SmartConfig) *Smart {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	total := g.TotalRows()
	if total%cfg.Segments != 0 {
		panic(fmt.Sprintf("core: %d rows not divisible into %d segments", total, cfg.Segments))
	}
	rowsPerSeg := total / cfg.Segments
	// A vault's policy and tables own their cache lines (DESIGN §16).
	s := sim.OwnLine[Smart]()
	*s = Smart{
		geom:       g,
		interval:   interval,
		cfg:        cfg,
		counters:   sim.OwnLines[uint8](total),
		zeroCnt:    sim.OwnLines[uint16](rowsPerSeg),
		modulus:    1 << cfg.CounterBits,
		max:        uint8(1<<cfg.CounterBits - 1),
		rowsPerSeg: rowsPerSeg,
		posBits:    uint(bits.TrailingZeros(uint(rowsPerSeg))),
		clock:      newSlotClock(interval/sim.Duration(int64(1)<<cfg.CounterBits), int64(rowsPerSeg)),
		pending:    sim.OwnLines[Command](cfg.QueueDepth)[:0],
		cbr:        NewCBR(g, interval),
	}
	s.Reset(0)
	return s
}

// Name implements Policy.
func (s *Smart) Name() string { return "smart" }

// SetTraceScope attaches a telemetry scope; the policy marks its section
// 4.6 disable/enable transitions as instant events on it. A nil scope
// (telemetry disabled) keeps the hook free.
func (s *Smart) SetTraceScope(sc *telemetry.Scope) { s.trace = sc }

// Config returns the policy configuration.
func (s *Smart) Config() SmartConfig { return s.cfg }

// Reset implements Policy: counters are re-initialised with the staggered
// pattern of figure 2(b)/figure 3, so that roughly Segments/2^bits of the
// counters indexed at any tick are zero and refreshes stay evenly
// distributed.
func (s *Smart) Reset(start sim.Time) {
	s.clock.reset(start)
	s.pending = s.pending[:0]
	s.disabled = false
	s.disabledSince = 0
	s.windowStart = start
	s.windowAccesses = 0
	s.stats = PolicyStats{}
	s.cbr.Reset(start)
	s.seedStagger()
}

// slot maps a logical flat row index to its packed counter slot
// (position-major storage; see the counters field).
func (s *Smart) slot(flat int) int {
	return (flat&(s.rowsPerSeg-1))*s.cfg.Segments + flat>>s.posBits
}

// seedStagger initialises the counters so refresh requests are spread
// uniformly: the in-segment position p staggers counters across the
// counter access period (⌊p*2^bits/rowsPerSeg⌋), and an extra per-segment
// offset staggers the segments against each other (figure 3), so the
// counters indexed together at one tick do not reach zero together.
//
// Both rowsPerSeg and 2^bits are powers of two, so the position stagger
// holds for runs of max(1, rowsPerSeg/2^bits) consecutive positions, and
// every position of a run stores the same block of Segments counters and
// the same zero count. Each run's first block and count are written once
// and repeated over the run; UniformSeed is a single run. Only the
// retention-aware extension, whose per-row maxima differ, seeds counter
// by counter.
func (s *Smart) seedStagger() {
	counters, rowsPerSeg, segs := s.counters, s.rowsPerSeg, s.cfg.Segments
	counterBits, mask := uint(s.cfg.CounterBits), s.modulus-1
	switch {
	case s.maxFor != nil:
		for p := range s.zeroCnt {
			stagger := p << counterBits >> s.posBits
			block := counters[p*segs : (p+1)*segs]
			zeros := 0
			for seg := range block {
				v := s.maxFor(seg*rowsPerSeg + p)
				if !s.cfg.UniformSeed {
					v = uint8((stagger + seg) % (int(v) + 1))
				}
				block[seg] = v
				if v == 0 {
					zeros++
				}
			}
			s.zeroCnt[p] = uint16(zeros)
		}
	case s.cfg.UniformSeed:
		// The maximum is at least 1, so no counter starts at zero.
		counters[0] = s.max
		repeatPrefix(counters, 1)
		clear(s.zeroCnt)
	default:
		run := max(1, rowsPerSeg>>counterBits)
		for p := 0; p < rowsPerSeg; p += run {
			stagger := p << counterBits >> s.posBits
			block := counters[p*segs : (p+1)*segs]
			for seg := range block {
				block[seg] = uint8((stagger + seg) & mask)
			}
			repeatPrefix(counters[p*segs:(p+run)*segs], segs)
			// Counter seg is zero when stagger+seg is a multiple of
			// modulus: count the multiples in [stagger, stagger+segs).
			s.zeroCnt[p] = uint16((stagger+segs+mask)>>counterBits - (stagger+mask)>>counterBits)
			repeatPrefix(s.zeroCnt[p:p+run], 1)
		}
	}
}

// repeatPrefix fills dst with copies of its first n elements, doubling
// the copied span at each step.
func repeatPrefix[T any](dst []T, n int) {
	for n < len(dst) {
		n += copy(dst[n:], dst[:n])
	}
}

// resetValue returns the counter reload value for a row: the uniform
// maximum, or the per-row value of the retention-aware extension.
func (s *Smart) resetValue(flat int) uint8 {
	if s.maxFor != nil {
		return s.maxFor(flat)
	}
	return s.max
}

// OnRowRestore implements Policy: the row's counter is reset to its
// maximum (one SRAM write), both when the row is opened and when its page
// is closed (section 4.1). Counters are "evenly hashed" into segments by
// contiguous blocks of the flat row index (row flat belongs to segment
// flat/rowsPerSeg at position flat%rowsPerSeg); any fixed partition
// works, the requirement is only that each counter is indexed exactly
// once per counter access period.
func (s *Smart) OnRowRestore(t sim.Time, row dram.RowID) {
	s.windowAccesses++
	if s.disabled {
		// Counters are switched off; only the access-density window runs.
		return
	}
	flat := row.Flat(&s.geom)
	slot := s.slot(flat)
	if s.counters[slot] == 0 {
		s.zeroCnt[flat&(s.rowsPerSeg-1)]--
	}
	s.counters[slot] = s.resetValue(flat)
	s.stats.AccessResets++
	s.stats.CounterWrites++
}

// NextTick implements Policy.
func (s *Smart) NextTick() (sim.Time, bool) {
	if s.disabled {
		next, ok := s.cbr.NextTick()
		// The access-density window boundary is also an event.
		wb := s.windowStart + s.interval
		if !ok || wb < next {
			return wb, true
		}
		return next, true
	}
	return s.clock.at, true
}

// Advance implements Policy.
func (s *Smart) Advance(t sim.Time, dst []Command) []Command {
	for {
		if s.disabled {
			// CBR fallback: run the delegate up to the next access-density
			// window boundary, evaluate the window, repeat until t. The
			// delta is counted from the commands actually appended, not
			// from the delegate's stats counter, so a delegate Reset (the
			// disable switch re-phases it) can never underflow it.
			boundary := s.windowStart + s.interval
			limit := sim.Min(t, boundary)
			before := len(dst)
			dst = s.cbr.Advance(limit, dst)
			s.stats.RefreshesRequested += uint64(len(dst) - before)
			if t < boundary {
				return dst
			}
			s.maybeSwitchMode(boundary)
			continue
		}
		next := s.clock.at
		if next > t {
			return dst
		}
		dst = s.runTick(next, dst)
		s.maybeSwitchMode(next)
	}
}

// runTick indexes one counter in every segment at time now (section 4.2):
// zero counters trigger a refresh request and reset; non-zero counters
// decrement. At most Segments requests are generated, which is the queue
// bound of section 5.
func (s *Smart) runTick(now sim.Time, dst []Command) []Command {
	pos := int(s.clock.frac)
	segs := s.cfg.Segments
	slots := s.counters[pos*segs : (pos+1)*segs]
	generated := 0
	if s.zeroCnt[pos] == 0 {
		// No counter at this position is due: decrement the whole packed
		// block, only tracking decrements that newly reach zero. Every
		// access is still one counter read and one counter write — the
		// stats below account for them in bulk.
		newZero := uint16(0)
		for i, c := range slots {
			c--
			slots[i] = c
			if c == 0 {
				newZero++
			}
		}
		s.zeroCnt[pos] = newZero
	} else {
		for seg, c := range slots {
			if c == 0 {
				flat := seg*s.rowsPerSeg + pos
				slots[seg] = s.resetValue(flat)
				s.zeroCnt[pos]--
				bank, row := dram.SplitRow(&s.geom, flat)
				if len(s.pending) >= s.cfg.QueueDepth {
					// Unreachable when QueueDepth >= Segments because the
					// queue drains every Advance; guarded as an invariant.
					panic("core: pending refresh request queue overflow")
				}
				s.pending = append(s.pending, Command{
					Bank: bank, Row: row, Kind: dram.RefreshRASOnly,
				})
				generated++
			} else {
				c--
				slots[seg] = c
				if c == 0 {
					s.zeroCnt[pos]++
				}
			}
		}
	}
	// Each of the Segments indexings is one counter read plus one counter
	// write (a decrement or a reset); non-zero counters skip the refresh.
	s.stats.CounterReads += uint64(segs)
	s.stats.CounterWrites += uint64(segs)
	s.stats.SkippedIndexings += uint64(segs - generated)
	if generated > 0 {
		if generated > s.stats.MaxPendingPerTick {
			s.stats.MaxPendingPerTick = generated
		}
		s.stats.RefreshesRequested += uint64(generated)
		dst = append(dst, s.pending...)
		s.pending = s.pending[:0]
	}
	s.clock.next()
	return dst
}

// maybeSwitchMode evaluates the section 4.6 access-density window at its
// boundary and switches between Smart and CBR modes.
func (s *Smart) maybeSwitchMode(now sim.Time) {
	if !s.cfg.SelfDisable {
		return
	}
	for now >= s.windowStart+s.interval {
		rows := float64(s.geom.TotalRows())
		density := float64(s.windowAccesses) / rows
		boundary := s.windowStart + s.interval
		if !s.disabled && density < s.cfg.DisableBelow {
			s.disabled = true
			s.disabledSince = boundary
			s.stats.DisableSwitches++
			s.trace.Instant("smart-disable", 0, boundary)
			// Hand the refresh schedule to CBR from the boundary on.
			s.cbr.Reset(boundary)
		} else if s.disabled && density > s.cfg.EnableAbove {
			s.disabled = false
			s.trace.Instant("smart-enable", 0, boundary)
			s.stats.EnableSwitches++
			s.stats.TimeDisabled += boundary - s.disabledSince
			// Re-enter Smart mode. The controller does not know the phase
			// of the module-internal CBR counters, so the conservative
			// restart seeds every counter to zero: every row is swept
			// (refreshed) within one counter access period of the switch,
			// bounding the restore gap across the transition at
			// interval + counter access period. The sweep emits at most
			// Segments requests per tick, so the pending queue bound
			// still holds.
			s.clock.reset(boundary)
			clear(s.counters)
			s.zeroCnt[0] = uint16(s.cfg.Segments)
			repeatPrefix(s.zeroCnt, 1)
		}
		s.windowStart = boundary
		s.windowAccesses = 0
	}
}

// Stats implements Policy.
func (s *Smart) Stats() PolicyStats {
	st := s.stats
	if s.disabled && s.windowStart > s.disabledSince {
		// Count the completed windows of the still-open disabled span.
		st.TimeDisabled += s.windowStart - s.disabledSince
	}
	return st
}

// Disabled reports whether the policy is currently in CBR fallback mode.
func (s *Smart) Disabled() bool { return s.disabled }

// CounterAccessPeriod returns interval / 2^bits (section 4.2).
func (s *Smart) CounterAccessPeriod() sim.Duration { return s.clock.interval }

// TickPeriod returns the spacing between counter indexing ticks.
func (s *Smart) TickPeriod() sim.Duration {
	return s.clock.interval / sim.Duration(s.rowsPerSeg)
}
