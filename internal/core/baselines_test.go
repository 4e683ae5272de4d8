package core

import (
	"math"
	"testing"
	"testing/quick"

	"smartrefresh/internal/dram"
	"smartrefresh/internal/sim"
)

func TestCBRRate(t *testing.T) {
	g := smallGeom()
	c := NewCBR(g, testInterval)
	var cmds []Command
	cmds = c.Advance(testInterval, cmds)
	// Slots at k*interval/total for k = 0..total: slot `total` lands
	// exactly on the interval boundary, so expect total+1 inclusive.
	want := g.TotalRows() + 1
	if len(cmds) != want {
		t.Fatalf("CBR commands over one inclusive interval = %d, want %d", len(cmds), want)
	}
	for _, cmd := range cmds {
		if cmd.Kind != dram.RefreshCBR || cmd.Row != -1 {
			t.Fatalf("CBR emitted non-CBR command %+v", cmd)
		}
	}
}

func TestCBRBankRoundRobin(t *testing.T) {
	g := smallGeom() // 2 banks
	c := NewCBR(g, testInterval)
	var cmds []Command
	cmds = c.Advance(testInterval/8, cmds)
	if len(cmds) < 4 {
		t.Fatalf("too few commands: %d", len(cmds))
	}
	for i, cmd := range cmds {
		wantBank := i % g.TotalBanks()
		if cmd.Bank != wantBank {
			t.Fatalf("command %d bank %+v, want flat %d", i, cmd.Bank, wantBank)
		}
	}
}

func TestCBREvenSpacing(t *testing.T) {
	g := smallGeom()
	c := NewCBR(g, testInterval)
	// NextTick times must advance by interval/total (within integer
	// division truncation of 1 ps).
	var prev sim.Time
	var cmds []Command
	step := testInterval / sim.Time(g.TotalRows())
	for i := 0; i < 10; i++ {
		next, ok := c.NextTick()
		if !ok {
			t.Fatal("CBR NextTick not ok")
		}
		if i > 0 {
			d := next - prev
			if d < step-1 || d > step+1 {
				t.Fatalf("slot spacing %v, want ~%v", d, step)
			}
		}
		prev = next
		cmds = c.Advance(next, cmds[:0])
	}
}

func TestCBRIgnoresTraffic(t *testing.T) {
	g := smallGeom()
	c := NewCBR(g, testInterval)
	var a, b []Command
	a = c.Advance(testInterval, a)
	c2 := NewCBR(g, testInterval)
	for i := 0; i < 100; i++ {
		c2.OnRowRestore(sim.Time(i), dram.RowFromFlat(&g, i%g.TotalRows()))
	}
	b = c2.Advance(testInterval, b)
	if len(a) != len(b) {
		t.Errorf("traffic changed CBR schedule: %d vs %d", len(a), len(b))
	}
}

// drainAll loops Advance until the policy reports no work at or before t,
// per the chunked-emission contract in the Policy.Advance doc.
func drainAll(p Policy, t sim.Time, dst []Command) []Command {
	for {
		next, ok := p.NextTick()
		if !ok || next > t {
			return dst
		}
		before := len(dst)
		dst = p.Advance(t, dst)
		if len(dst) == before {
			if next2, ok2 := p.NextTick(); ok2 && next2 <= t {
				panic("drainAll: Advance made no progress")
			}
		}
	}
}

func TestBurstEmitsAllAtBoundary(t *testing.T) {
	g := smallGeom()
	b := NewBurst(g, testInterval)
	var cmds []Command
	cmds = drainAll(b, 0, cmds)
	if len(cmds) != g.TotalRows() {
		t.Fatalf("burst at t=0 emitted %d, want %d", len(cmds), g.TotalRows())
	}
	cmds = drainAll(b, testInterval-1, cmds[:0])
	if len(cmds) != 0 {
		t.Fatalf("burst mid-interval emitted %d", len(cmds))
	}
	cmds = drainAll(b, testInterval, cmds[:0])
	if len(cmds) != g.TotalRows() {
		t.Fatalf("burst at boundary emitted %d, want %d", len(cmds), g.TotalRows())
	}
}

// TestBurstChunkedEmission checks the chunk contract on a geometry larger
// than burstChunk: single Advance calls are bounded, NextTick keeps
// reporting the in-progress cycle until the burst drains, and the fully
// drained command sequence is the same bank-major order as an unchunked
// emission.
func TestBurstChunkedEmission(t *testing.T) {
	g := smallGeom()
	g.Rows = 1024 // 2 banks * 1024 = 2048 rows > burstChunk
	b := NewBurst(g, testInterval)
	total := g.TotalRows()
	if total <= burstChunk {
		t.Fatalf("test geometry too small: %d rows", total)
	}

	var cmds []Command
	cmds = b.Advance(0, cmds)
	if len(cmds) != burstChunk {
		t.Fatalf("first Advance emitted %d, want chunk of %d", len(cmds), burstChunk)
	}
	if next, ok := b.NextTick(); !ok || next != 0 {
		t.Fatalf("mid-burst NextTick = %v,%v, want 0,true", next, ok)
	}
	cmds = drainAll(b, 0, cmds)
	if len(cmds) != total {
		t.Fatalf("drained %d commands, want %d", len(cmds), total)
	}
	if b.Stats().RefreshesRequested != uint64(total) {
		t.Fatalf("RefreshesRequested = %d, want %d", b.Stats().RefreshesRequested, total)
	}
	// Bank-major order: rows of bank 0, then bank 1, ...
	for i, c := range cmds {
		want := i / g.Rows
		if c.Bank != want || c.Row != -1 || c.Kind != dram.RefreshCBR {
			t.Fatalf("cmd %d = %+v, want bank %d row -1 CBR", i, c, want)
		}
	}
	if next, ok := b.NextTick(); !ok || next != testInterval {
		t.Fatalf("post-burst NextTick = %v,%v, want %v,true", next, ok, testInterval)
	}
}

// TestBurstOverflowBoundary checks that cycle-time arithmetic near the
// int64 horizon saturates to "no further ticks" instead of wrapping
// negative and re-firing in the past.
func TestBurstOverflowBoundary(t *testing.T) {
	g := smallGeom()
	b := NewBurst(g, testInterval)
	const maxT = sim.Time(math.MaxInt64)
	b.Reset(maxT - sim.Time(testInterval)/2) // cycle 1 would overflow

	next, ok := b.NextTick()
	if !ok || next != maxT-sim.Time(testInterval)/2 {
		t.Fatalf("NextTick = %v,%v, want start,true", next, ok)
	}
	cmds := drainAll(b, maxT, nil)
	if len(cmds) != g.TotalRows() {
		t.Fatalf("emitted %d at horizon, want exactly one burst of %d", len(cmds), g.TotalRows())
	}
	if next, ok := b.NextTick(); ok {
		t.Fatalf("NextTick after horizon = %v,%v, want ok=false", next, ok)
	}
	// A huge cycle count must trip the multiply guard, not wrap.
	b2 := NewBurst(g, testInterval)
	b2.cycle = math.MaxInt64 / 2
	if _, ok := b2.NextTick(); ok {
		t.Fatal("NextTick with overflowing cycle product reported a tick")
	}
}

func TestNoRefreshEmitsNothing(t *testing.T) {
	p := NoRefresh{}
	if _, ok := p.NextTick(); ok {
		t.Error("NoRefresh has a tick")
	}
	if got := p.Advance(1<<40, nil); len(got) != 0 {
		t.Error("NoRefresh emitted commands")
	}
	if p.Stats().RefreshesRequested != 0 {
		t.Error("NoRefresh counted refreshes")
	}
}

func TestOracleIdleRate(t *testing.T) {
	g := smallGeom()
	guard := 100 * sim.Microsecond
	o := NewOracle(g, testInterval, guard)
	var cmds []Command
	cmds = o.Advance(testInterval, cmds)
	// Every row exactly once in the first interval.
	if len(cmds) != g.TotalRows() {
		t.Fatalf("oracle first-interval refreshes = %d, want %d", len(cmds), g.TotalRows())
	}
	seen := map[dram.RowID]int{}
	for _, c := range cmds {
		seen[dram.RowInBank(&g, c.Bank, c.Row)]++
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("row %v refreshed %d times", id, n)
		}
	}
}

func TestOracleDelaysAfterAccess(t *testing.T) {
	g := smallGeom()
	guard := 100 * sim.Microsecond
	o := NewOracle(g, testInterval, guard)
	row := dram.RowID{Channel: 0, Rank: 0, Bank: 0, Row: 3}
	at := 10 * sim.Millisecond
	o.OnRowRestore(at, row)
	var cmds []Command
	cmds = o.Advance(testInterval-guard-1, cmds)
	for _, c := range cmds {
		if dram.RowInBank(&g, c.Bank, c.Row) == row {
			t.Fatal("accessed row refreshed before its extended deadline")
		}
	}
	cmds = o.Advance(at+testInterval-guard, cmds[:0])
	found := false
	for _, c := range cmds {
		if dram.RowInBank(&g, c.Bank, c.Row) == row {
			found = true
		}
	}
	if !found {
		t.Fatal("accessed row not refreshed at extended deadline")
	}
}

// TestOracleRetentionProperty: the oracle never violates retention for
// arbitrary access patterns (restores applied instantaneously).
func TestOracleRetentionProperty(t *testing.T) {
	g := smallGeom()
	f := func(seed uint64) bool {
		o := NewOracle(g, testInterval, 50*sim.Microsecond)
		chk := runSmartLoop(t, g, o, seed, 5*testInterval, testInterval, 10*sim.Millisecond)
		return chk.Violations() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestOracleFewerRefreshesThanSmart: with traffic, the oracle is at least
// as frugal as Smart Refresh (it is the 100%-optimality bound).
func TestOracleFewerRefreshesThanSmart(t *testing.T) {
	g := smallGeom()
	run := func(p Policy) uint64 {
		rng := sim.NewRNG(5)
		var cmds []Command
		var now sim.Time
		for now < 6*testInterval {
			cmds = p.Advance(now, cmds[:0])
			for _, c := range cmds {
				_ = c
			}
			p.OnRowRestore(now, dram.RowFromFlat(&g, rng.Intn(g.TotalRows())))
			now += 2 * sim.Millisecond
		}
		return p.Stats().RefreshesRequested
	}
	smart := run(NewSmart(g, testInterval, smartNoDisable()))
	oracle := run(NewOracle(g, testInterval, 50*sim.Microsecond))
	if oracle > smart {
		t.Errorf("oracle issued %d refreshes, smart %d; oracle must be <=", oracle, smart)
	}
}

func TestOracleGuardValidation(t *testing.T) {
	g := smallGeom()
	defer func() {
		if recover() == nil {
			t.Error("oracle with guard >= interval did not panic")
		}
	}()
	NewOracle(g, testInterval, testInterval)
}

func TestPolicyNames(t *testing.T) {
	g := smallGeom()
	cases := []struct {
		p    Policy
		want string
	}{
		{NewSmart(g, testInterval, smartNoDisable()), "smart"},
		{NewCBR(g, testInterval), "cbr"},
		{NewBurst(g, testInterval), "burst"},
		{NoRefresh{}, "none"},
		{NewOracle(g, testInterval, 0), "oracle"},
	}
	for _, c := range cases {
		if c.p.Name() != c.want {
			t.Errorf("Name() = %q, want %q", c.p.Name(), c.want)
		}
	}
}

// TestSmartVsCBRReduction: a workload that touches a fixed fraction of
// rows every interval reduces Smart Refresh operations by about that
// fraction relative to CBR — the mechanism behind Figures 6, 9, 12, 15.
func TestSmartVsCBRReduction(t *testing.T) {
	g := dram.Geometry{
		Channels: 1, Ranks: 1, Banks: 2, Rows: 128, Columns: 16,
		DataWidthBits: 72, BurstLength: 4, DevicesPerRank: 2,
	}
	frac := 0.5
	run := func(p Policy) uint64 {
		hot := int(frac * float64(g.TotalRows()))
		var cmds []Command
		var now sim.Time
		// Touch the hot rows every 3/4 counter access period so their
		// counters never expire.
		step := testInterval / 16
		for now < 9*testInterval {
			cmds = p.Advance(now, cmds[:0])
			for i := 0; i < hot; i++ {
				p.OnRowRestore(now, dram.RowFromFlat(&g, i))
			}
			now += step
		}
		return p.Stats().RefreshesRequested
	}
	smart := run(NewSmart(g, testInterval, smartNoDisable()))
	cbr := run(NewCBR(g, testInterval))
	reduction := 1 - float64(smart)/float64(cbr)
	if reduction < frac-0.1 || reduction > frac+0.1 {
		t.Errorf("refresh reduction = %.3f, want ~%.2f (smart=%d cbr=%d)",
			reduction, frac, smart, cbr)
	}
}
