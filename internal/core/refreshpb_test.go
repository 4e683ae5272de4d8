package core

import (
	"math/rand"
	"testing"

	"smartrefresh/internal/dram"
	"smartrefresh/internal/sim"
)

func pbGeom() dram.Geometry {
	return dram.Geometry{
		Channels: 1, Ranks: 1, Banks: 4, Rows: 64, Columns: 64,
		DataWidthBits: 72, BurstLength: 4, DevicesPerRank: 18,
	}
}

// drain advances p to t the way the controller does: looping until
// NextTick moves past t.
func drainPB(p Policy, t sim.Time, dst []Command) []Command {
	for {
		next, ok := p.NextTick()
		if !ok || next > t {
			return dst
		}
		dst = p.Advance(t, dst)
	}
}

func TestSARPFixedCadenceAndOverlap(t *testing.T) {
	g := pbGeom()
	interval := sim.Duration(1 * sim.Millisecond)
	p := NewSARP(g, interval, PerBankConfig{})

	cmds := drainPB(p, sim.Time(interval)-1, nil)
	// One full interval: every bank emits its Rows slots (the stagger
	// keeps the final slot of later banks just over the boundary).
	want := g.Rows * g.TotalBanks()
	if len(cmds) < want-g.TotalBanks() || len(cmds) > want {
		t.Fatalf("SARP emitted %d commands over one interval, want about %d", len(cmds), want)
	}
	perBank := map[int]int{}
	for _, c := range cmds {
		if c.Kind != dram.RefreshPerBank {
			t.Fatalf("kind = %v", c.Kind)
		}
		if !c.Overlap {
			t.Fatal("SARP command not marked overlapped")
		}
		if c.Row != -1 {
			t.Fatalf("per-bank command carries row %d", c.Row)
		}
		perBank[c.Bank]++
	}
	for id, n := range perBank {
		if n < g.Rows-1 || n > g.Rows {
			t.Errorf("bank %v got %d refreshes, want about %d", id, n, g.Rows)
		}
	}
	if st := p.Stats(); st.MaxRefreshDeficit > 1 {
		t.Errorf("SARP deficit high-water %d, want <= 1", st.MaxRefreshDeficit)
	}
}

func TestDARPPostponesUnderReadPressureAndForcesAtCap(t *testing.T) {
	g := pbGeom()
	interval := sim.Duration(1 * sim.Millisecond)
	cfg := DefaultPerBankConfig()
	p := NewDARP(g, interval, cfg)
	slot := interval / sim.Duration(g.Rows)
	bank := 0

	// Keep bank 0 under continuous read pressure for many slots.
	var cmds []Command
	horizon := sim.Time(40 * slot)
	for t := sim.Time(0); t <= horizon; t += sim.Time(slot / 4) {
		p.OnDemandObserved(t, bank, false)
		cmds = drainPB(p, t, cmds)
	}
	st := p.Stats()
	if st.RefreshesPostponed == 0 {
		t.Error("no slots postponed under continuous read pressure")
	}
	if st.RefreshesForced == 0 {
		t.Error("no refreshes forced after exceeding the postponement window")
	}
	if st.MaxRefreshDeficit > cfg.MaxPostpone {
		t.Errorf("deficit high-water %d exceeds window %d", st.MaxRefreshDeficit, cfg.MaxPostpone)
	}
	// The pressured bank still gets refreshes (forced at the cap): over
	// 40 slots it owes 40, may hold back MaxPostpone, minus the pull-in
	// burst emitted at slot 0 while the bank was still idle.
	got := 0
	for _, c := range cmds {
		if c.Bank == bank {
			got++
		}
		if c.Overlap {
			t.Fatal("DARP command marked overlapped")
		}
	}
	if min := 40 - cfg.MaxPostpone - cfg.MaxPullIn - 1; got < min {
		t.Errorf("pressured bank got %d refreshes, want >= %d", got, min)
	}
}

func TestDARPPullsInToIdleBanks(t *testing.T) {
	g := pbGeom()
	interval := sim.Duration(1 * sim.Millisecond)
	p := NewDARP(g, interval, PerBankConfig{})
	slot := interval / sim.Duration(g.Rows)

	// All banks idle from the start: the first slot of each bank catches
	// up and pulls in the full credit.
	cmds := drainPB(p, sim.Time(2*slot), nil)
	if st := p.Stats(); st.RefreshesPulledIn == 0 {
		t.Error("no pull-in on idle banks")
	}
	perBank := map[int]int{}
	for _, c := range cmds {
		perBank[c.Bank]++
	}
	cfg := DefaultPerBankConfig()
	for id, n := range perBank {
		if n > 2+cfg.MaxPullIn+1 {
			t.Errorf("bank %v over-refreshed: %d commands in two slots", id, n)
		}
	}
}

func TestDARPWritePressureDoesNotPostpone(t *testing.T) {
	g := pbGeom()
	interval := sim.Duration(1 * sim.Millisecond)
	p := NewDARP(g, interval, PerBankConfig{})
	slot := interval / sim.Duration(g.Rows)
	bank := 0

	for t := sim.Time(0); t <= sim.Time(20*slot); t += sim.Time(slot / 4) {
		p.OnDemandObserved(t, bank, true) // writes only
		drainPB(p, t, nil)
	}
	if st := p.Stats(); st.RefreshesPostponed != 0 {
		t.Errorf("%d slots postponed under write-only pressure, want 0 (write-refresh parallelization)", st.RefreshesPostponed)
	}
}

// TestPerBankDeficitWindowProperty drives DARP with randomized demand and
// checks the two scheduling invariants: the deficit never leaves the
// configured window, and no bank starves — every owed refresh issues
// within MaxPostpone slots of its nominal time.
func TestPerBankDeficitWindowProperty(t *testing.T) {
	g := pbGeom()
	interval := sim.Duration(1 * sim.Millisecond)
	cfg := DefaultPerBankConfig()
	slot := interval / sim.Duration(g.Rows)

	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := NewDARP(g, interval, cfg)
		issued := map[int]int{}
		var cmds []Command
		slots := 4 * g.Rows // four intervals
		for s := 0; s < slots; s++ {
			now := sim.Time(s) * sim.Time(slot)
			// Random read/write pressure on random banks.
			for k := 0; k < rng.Intn(4); k++ {
				p.OnDemandObserved(now, rng.Intn(g.Banks), rng.Intn(2) == 0)
			}
			cmds = drainPB(p, now, cmds[:0])
			for _, c := range cmds {
				issued[c.Bank]++
			}
			if st := p.Stats(); st.MaxRefreshDeficit > cfg.MaxPostpone {
				t.Fatalf("seed %d: deficit %d exceeds window %d", seed, st.MaxRefreshDeficit, cfg.MaxPostpone)
			}
		}
		// No starvation: each bank has issued at least its nominal slot
		// count minus the postponement window.
		for b := 0; b < g.Banks; b++ {
			if min := slots - cfg.MaxPostpone - 1; issued[b] < min {
				t.Errorf("seed %d: bank %d issued %d refreshes over %d slots, want >= %d (no starvation)",
					seed, b, issued[b], slots, min)
			}
		}
	}
}

func TestPerBankDeterminism(t *testing.T) {
	g := pbGeom()
	interval := sim.Duration(1 * sim.Millisecond)
	run := func() []Command {
		p := NewDARP(g, interval, PerBankConfig{})
		slot := interval / sim.Duration(g.Rows)
		var out []Command
		for s := 0; s < 3*g.Rows; s++ {
			now := sim.Time(s) * sim.Time(slot)
			if s%3 == 0 {
				p.OnDemandObserved(now, s%g.Banks, false)
			}
			out = drainPB(p, now, out)
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("command %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestPerBankReset(t *testing.T) {
	g := pbGeom()
	interval := sim.Duration(1 * sim.Millisecond)
	p := NewSARP(g, interval, PerBankConfig{})
	drainPB(p, sim.Time(interval), nil)
	p.Reset(sim.Time(interval))
	if next, ok := p.NextTick(); !ok || next != sim.Time(interval) {
		t.Errorf("NextTick after Reset = %v, %v; want %v, true", next, ok, sim.Time(interval))
	}
	if st := p.Stats(); st.RefreshesRequested != 0 {
		t.Errorf("stats survive Reset: %+v", st)
	}
}
