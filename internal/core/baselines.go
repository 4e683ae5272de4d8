package core

import (
	"fmt"
	"math"

	"smartrefresh/internal/dram"
	"smartrefresh/internal/sim"
)

// CBR is the paper's baseline: distributed CAS-before-RAS refresh. One row
// is refreshed every interval/TotalRows, walking banks round-robin with the
// module's internal counters supplying row addresses ("one-channel,
// one-rank, one-bank" refresh command policy, section 6). It is oblivious
// to demand traffic, so every row is refreshed every interval regardless of
// recent accesses — exactly the waste Smart Refresh removes.
type CBR struct {
	clock    slotClock // TotalRows slots per interval
	bank     int       // next flat bank index (round-robin)
	bankMask int       // TotalBanks-1; the bank count is a power of two
	stats    PolicyStats
}

// NewCBR constructs the distributed CBR policy.
func NewCBR(g dram.Geometry, interval sim.Duration) *CBR {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	c := sim.OwnLine[CBR]()
	*c = CBR{clock: newSlotClock(interval, int64(g.TotalRows())), bankMask: g.TotalBanks() - 1}
	c.Reset(0)
	return c
}

// Name implements Policy.
func (c *CBR) Name() string { return "cbr" }

// Reset implements Policy.
func (c *CBR) Reset(start sim.Time) {
	c.clock.reset(start)
	c.bank = 0
	c.stats = PolicyStats{}
}

// OnRowRestore implements Policy; CBR ignores demand traffic.
func (c *CBR) OnRowRestore(sim.Time, dram.RowID) {}

// NextTick implements Policy.
func (c *CBR) NextTick() (sim.Time, bool) { return c.clock.at, true }

// Advance implements Policy.
func (c *CBR) Advance(t sim.Time, dst []Command) []Command {
	for c.clock.at <= t {
		b := c.bank
		c.bank = (b + 1) & c.bankMask
		c.clock.next()
		dst = append(dst, Command{Bank: b, Row: -1, Kind: dram.RefreshCBR})
		c.stats.RefreshesRequested++
	}
	return dst
}

// Stats implements Policy.
func (c *CBR) Stats() PolicyStats { return c.stats }

// Burst refreshes every row back-to-back at the start of each interval
// (section 3). It is included for completeness and for the peak-power
// discussion; the paper's baseline is distributed CBR.
type Burst struct {
	geom     dram.Geometry
	interval sim.Duration
	start    sim.Time
	cycle    int64 // next interval index
	pos      int   // next flat row within the current burst (0 when idle)
	stats    PolicyStats
}

// burstChunk bounds how many commands a single Burst.Advance call emits.
// A full burst is O(TotalRows); emitting it in chunks keeps the caller's
// command buffer (and each drain iteration) small. Advance returns early at
// a chunk boundary and NextTick keeps reporting the in-progress cycle's
// time, so callers that loop until NextTick() > t complete the burst.
const burstChunk = 1024

// NewBurst constructs the burst refresh policy.
func NewBurst(g dram.Geometry, interval sim.Duration) *Burst {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	b := sim.OwnLine[Burst]()
	*b = Burst{geom: g, interval: interval}
	b.Reset(0)
	return b
}

// Name implements Policy.
func (b *Burst) Name() string { return "burst" }

// Reset implements Policy.
func (b *Burst) Reset(start sim.Time) {
	b.start = start
	b.cycle = 0
	b.pos = 0
	b.stats = PolicyStats{}
}

// OnRowRestore implements Policy; burst refresh ignores demand traffic.
func (b *Burst) OnRowRestore(sim.Time, dram.RowID) {}

// cycleTime returns the start time of burst cycle k, or ok=false when the
// multiply/add would overflow int64 (possible on very long simulated
// horizons): past that point the policy reports no further ticks rather
// than wrapping to a bogus early time.
func (b *Burst) cycleTime(k int64) (sim.Time, bool) {
	if k == 0 || b.interval == 0 {
		return b.start, true
	}
	if k > math.MaxInt64/int64(b.interval) {
		return 0, false
	}
	at := b.start + sim.Time(k)*b.interval
	if at < b.start {
		return 0, false
	}
	return at, true
}

// NextTick implements Policy. While a burst is mid-emission (a previous
// Advance hit its chunk limit) this still reports the in-progress cycle's
// time so the caller re-invokes Advance.
func (b *Burst) NextTick() (sim.Time, bool) { return b.cycleTime(b.cycle) }

// Advance implements Policy. At most burstChunk commands are emitted per
// call; the burst resumes where it left off on the next call.
func (b *Burst) Advance(t sim.Time, dst []Command) []Command {
	total := b.geom.TotalRows()
	for {
		at, ok := b.cycleTime(b.cycle)
		if !ok || at > t {
			return dst
		}
		emitted := 0
		for b.pos < total && emitted < burstChunk {
			bank, _ := dram.SplitRow(&b.geom, b.pos)
			dst = append(dst, Command{Bank: bank, Row: -1, Kind: dram.RefreshCBR})
			b.pos++
			emitted++
		}
		b.stats.RefreshesRequested += uint64(emitted)
		if b.pos < total {
			return dst // chunk boundary; caller loops until NextTick() > t
		}
		b.pos = 0
		b.cycle++
	}
}

// Stats implements Policy.
func (b *Burst) Stats() PolicyStats { return b.stats }

// NoRefresh never refreshes. It bounds the best possible refresh energy
// (zero) and is useful for isolating non-refresh energy in experiments; it
// is of course not retention-correct.
type NoRefresh struct{}

// Name implements Policy.
func (NoRefresh) Name() string { return "none" }

// Reset implements Policy.
func (NoRefresh) Reset(sim.Time) {}

// OnRowRestore implements Policy.
func (NoRefresh) OnRowRestore(sim.Time, dram.RowID) {}

// NextTick implements Policy.
func (NoRefresh) NextTick() (sim.Time, bool) { return 0, false }

// Advance implements Policy.
func (NoRefresh) Advance(_ sim.Time, dst []Command) []Command { return dst }

// Stats implements Policy.
func (NoRefresh) Stats() PolicyStats { return PolicyStats{} }

// Oracle refreshes each row exactly at its retention deadline (one full
// interval after its last restore), the 100%-optimal scheme of section
// 4.4. It needs per-row timestamps — far more state than Smart Refresh —
// and exists as the upper bound for the optimality ablation.
type Oracle struct {
	geom     dram.Geometry
	interval sim.Duration
	// guard is subtracted from the deadline so the refresh completes
	// before the retention limit rather than starting at it.
	guard sim.Duration

	lastRestore []sim.Time
	h           oracleHeap
	stats       PolicyStats
}

type oracleEntry struct {
	due  sim.Time
	flat int
	// stamp is the restore time this entry was scheduled from; stale
	// entries (row restored since) are discarded lazily.
	stamp sim.Time
}

// oracleHeap is a hand-rolled binary min-heap ordered by due. The sift
// algorithms mirror container/heap's up/down exactly (same comparisons,
// same swap order) so duplicate-due entries surface in the same order as
// the container/heap implementation this replaced, but push takes the
// entry by value — no interface boxing, so the steady-state restore path
// is allocation-free once capacity has grown.
type oracleHeap []oracleEntry

func (h oracleHeap) peek() oracleEntry { return h[0] }

func (h *oracleHeap) push(e oracleEntry) {
	// Stale entries can grow the heap past any preallocation; it grows
	// onto lines of its own.
	*h = append(sim.GrowOwn(*h, 1), e)
	h.up(len(*h) - 1)
}

func (h *oracleHeap) pop() oracleEntry {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	old.down(0, n)
	e := old[n]
	*h = old[:n]
	return e
}

func (h oracleHeap) up(j int) {
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !(h[j].due < h[i].due) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h oracleHeap) down(i, n int) {
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h[j2].due < h[j1].due {
			j = j2 // right child
		}
		if !(h[j].due < h[i].due) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// NewOracle constructs the oracle policy. guard must be at least the row
// refresh time so a refresh finishes before the deadline.
func NewOracle(g dram.Geometry, interval sim.Duration, guard sim.Duration) *Oracle {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	if guard < 0 || guard >= interval {
		panic(fmt.Sprintf("core: oracle guard %v outside [0, interval)", guard))
	}
	total := g.TotalRows()
	o := sim.OwnLine[Oracle]()
	*o = Oracle{geom: g, interval: interval, guard: guard,
		lastRestore: sim.OwnLines[sim.Time](total),
		h:           sim.OwnLines[oracleEntry](total)[:0]}
	o.Reset(0)
	return o
}

// Name implements Policy.
func (o *Oracle) Name() string { return "oracle" }

// Reset implements Policy: all rows are treated as restored at start.
// Initial deadlines are staggered across the first interval — refreshing
// earlier than the deadline is always safe, and dispatching every row at
// the same instant would serialise behind the banks and miss deadlines
// (the same burst hazard Smart Refresh's stagger avoids, figure 2).
func (o *Oracle) Reset(start sim.Time) {
	total := o.geom.TotalRows()
	o.h = o.h[:0]
	o.stats = PolicyStats{}
	// Row i is first due at slot i+1 of a TotalRows-slot clock over the
	// first interval, less the guard.
	clock := newSlotClock(o.interval, int64(total))
	clock.reset(start)
	for i := 0; i < total; i++ {
		o.lastRestore[i] = start
		clock.next()
		due := clock.at - o.guard
		if due < start {
			due = start
		}
		o.h.push(oracleEntry{due: due, flat: i, stamp: start})
	}
}

// OnRowRestore implements Policy.
func (o *Oracle) OnRowRestore(t sim.Time, row dram.RowID) {
	flat := row.Flat(&o.geom)
	o.lastRestore[flat] = t
	o.h.push(oracleEntry{due: t + o.interval - o.guard, flat: flat, stamp: t})
}

// NextTick implements Policy.
func (o *Oracle) NextTick() (sim.Time, bool) {
	for len(o.h) > 0 {
		e := o.h.peek()
		if o.lastRestore[e.flat] != e.stamp {
			o.h.pop() // stale
			continue
		}
		return e.due, true
	}
	return 0, false
}

// Advance implements Policy.
func (o *Oracle) Advance(t sim.Time, dst []Command) []Command {
	for len(o.h) > 0 {
		e := o.h.peek()
		if o.lastRestore[e.flat] != e.stamp {
			o.h.pop()
			continue
		}
		if e.due > t {
			return dst
		}
		o.h.pop()
		bank, row := dram.SplitRow(&o.geom, e.flat)
		dst = append(dst, Command{Bank: bank, Row: row, Kind: dram.RefreshRASOnly})
		o.stats.RefreshesRequested++
		// The refresh itself restores the row; the controller reports it
		// back via OnRowRestore, but schedule defensively here as well in
		// case the caller does not: the later of the two wins via stamp.
		o.lastRestore[e.flat] = e.due
		o.h.push(oracleEntry{due: e.due + o.interval - o.guard, flat: e.flat, stamp: e.due})
	}
	return dst
}

// Stats implements Policy.
func (o *Oracle) Stats() PolicyStats { return o.stats }

// Compile-time interface checks.
var (
	_ Policy    = (*Smart)(nil)
	_ Policy    = (*CBR)(nil)
	_ Policy    = (*Burst)(nil)
	_ Policy    = NoRefresh{}
	_ Policy    = (*Oracle)(nil)
	_ Policy    = (*RAIDR)(nil)
	_ BankAware = (*PerBank)(nil)
)
