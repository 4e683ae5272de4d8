package memctrl

import (
	"math/rand"
	"testing"

	"smartrefresh/internal/core"
	"smartrefresh/internal/sim"
)

// The refresh-vs-demand arbiter tests: a demand access and a due
// per-bank refresh colliding on the same bank resolve deterministically
// (demand first inside the deficit window, refresh first at the cap),
// and postponed refreshes never starve.

func darpController(interval sim.Duration) (*Controller, *core.PerBank) {
	cfg := tinyConfig(interval)
	p := core.NewDARP(cfg.Geometry, interval, core.PerBankConfig{})
	return MustNew(cfg, p, Options{}), p
}

func TestArbiterDemandWinsTieBreakInsideWindow(t *testing.T) {
	interval := sim.Duration(1 * sim.Millisecond)
	run := func() (sim.Time, core.PolicyStats) {
		ctl, p := darpController(interval)
		// Address 0 maps to ch0/rk0/bk0 — the bank whose nominal slot 0
		// fires exactly at t=0, colliding with this access.
		res := ctl.Submit(Request{Time: 0, Addr: 0})
		return res.Issue, p.Stats()
	}
	issue, st := run()
	if issue != 0 {
		t.Errorf("demand stalled to %v behind a postponable refresh; tie-break should favour demand", issue)
	}
	if st.RefreshesPostponed == 0 {
		t.Error("colliding refresh slot was not postponed")
	}
	// Deterministic: an identical run resolves the collision identically.
	issue2, st2 := run()
	if issue2 != issue || st2 != st {
		t.Errorf("tie-break not deterministic: (%v, %+v) vs (%v, %+v)", issue, st, issue2, st2)
	}
}

func TestArbiterRefreshWinsAtDeficitCap(t *testing.T) {
	interval := sim.Duration(1 * sim.Millisecond)
	slot := sim.Time(interval / 64)
	ctl, p := darpController(interval)
	cfg := core.DefaultPerBankConfig()

	// Keep bank 0 under read pressure long enough to exhaust the
	// postponement window: probes denser than the quiet window (which
	// defaults to a quarter slot), sustained well past the cap.
	slots := cfg.MaxPostpone + 4
	var now sim.Time
	for s := 0; s < slots; s++ {
		for frac := sim.Time(1); frac <= 8; frac++ {
			now = sim.Time(s)*slot + frac*slot/9
			ctl.Submit(Request{Time: now, Addr: 0})
		}
	}
	if p.Stats().RefreshesForced == 0 {
		t.Fatal("deficit cap never forced a refresh under sustained pressure")
	}
	// At the cap the refresh issues even against colliding demand: the
	// bank's refresh count cannot be zero despite nonstop reads.
	if ops := ctl.Module().Stats().RefreshPerBankOps; ops == 0 {
		t.Error("no per-bank refreshes issued under sustained pressure")
	}
	if d := p.Stats().MaxRefreshDeficit; d > cfg.MaxPostpone {
		t.Errorf("deficit %d exceeded window %d", d, cfg.MaxPostpone)
	}
}

// TestArbiterPostponedRefreshesNeverStarve drives random read traffic
// through the controller (with retention checking on) and verifies that
// deferral never lets a bank fall behind: per-bank refresh throughput
// stays within the deficit window of nominal, and every retention
// deadline holds.
func TestArbiterPostponedRefreshesNeverStarve(t *testing.T) {
	interval := sim.Duration(1 * sim.Millisecond)
	slot := sim.Time(interval / 64)
	cfgPB := core.DefaultPerBankConfig()
	for seed := int64(0); seed < 3; seed++ {
		cfg := tinyConfig(interval)
		p := core.NewDARP(cfg.Geometry, interval, cfgPB)
		// Slack covers the postponement window plus pull-in skew.
		slack := sim.Duration(cfgPB.MaxPostpone+cfgPB.MaxPullIn+4) * sim.Duration(slot)
		ctl := MustNew(cfg, p, Options{CheckRetention: true, RetentionSlack: slack})

		rng := rand.New(rand.NewSource(seed))
		end := sim.Time(3 * interval)
		var now sim.Time
		for now < end {
			now += sim.Time(rng.Intn(int(slot / 2)))
			if now >= end {
				break
			}
			ctl.Submit(Request{Time: now, Addr: uint64(rng.Intn(1 << 20)), Write: rng.Intn(4) == 0})
		}
		ctl.Finish(end)
		if err := ctl.RetentionErr(); err != nil {
			t.Fatalf("seed %d: retention violated under deferral: %v", seed, err)
		}
		// Nominal: one refresh per bank per slot. Postponement may hold
		// back at most the window per bank; pull-in may add at most the
		// credit per bank.
		nominal := uint64(cfg.Geometry.TotalBanks()) * uint64(end/slot)
		ops := ctl.Module().Stats().RefreshPerBankOps
		lo := nominal - uint64(cfg.Geometry.TotalBanks()*(cfgPB.MaxPostpone+1))
		hi := nominal + uint64(cfg.Geometry.TotalBanks()*(cfgPB.MaxPullIn+1))
		if ops < lo || ops > hi {
			t.Errorf("seed %d: %d per-bank refreshes, want within [%d, %d] of nominal", seed, ops, lo, hi)
		}
		if d := p.Stats().MaxRefreshDeficit; d > cfgPB.MaxPostpone {
			t.Errorf("seed %d: deficit %d exceeded window", seed, d)
		}
	}
}

// TestControllerSARPOverlapDispatch checks the controller issues SARP
// commands in the overlapped form.
func TestControllerSARPOverlapDispatch(t *testing.T) {
	interval := sim.Duration(1 * sim.Millisecond)
	cfg := tinyConfig(interval)
	p := core.NewSARP(cfg.Geometry, interval, core.PerBankConfig{})
	ctl := MustNew(cfg, p, Options{CheckRetention: true})
	end := sim.Time(2 * interval)
	ctl.Finish(end)
	ms := ctl.Module().Stats()
	if ms.RefreshPerBankOps == 0 || ms.RefreshOverlapOps != ms.RefreshPerBankOps {
		t.Errorf("SARP dispatch not overlapped: %+v", ms)
	}
	if err := ctl.RetentionErr(); err != nil {
		t.Errorf("retention violated: %v", err)
	}
}
