package memctrl

import (
	"testing"

	"smartrefresh/internal/config"
	"smartrefresh/internal/core"
	"smartrefresh/internal/dram"
	"smartrefresh/internal/sim"
	"smartrefresh/internal/telemetry"
)

// A closed bank must never hold a page-close deadline: a close of a
// precharged bank leaves its slot empty rather than inventing a future
// deadline (which could mask its rank's self-refresh idleness), and a
// close of an open bank clears the slot its demand set.
func TestCloseIdleBankNoRearmWhenNotClosed(t *testing.T) {
	cfg := tinyConfig(64 * sim.Millisecond)
	ctl := MustNew(cfg, core.NewCBR(cfg.Geometry, cfg.RefreshInterval()), Options{})

	deadline := sim.Time(5 * sim.Microsecond)
	ctl.closeIdleBank(deadline, 0)
	if at, ok := ctl.idle.Key(0); ok {
		t.Errorf("closing a precharged bank armed a deadline at %v", at)
	}

	const bank = 0
	res := ctl.Submit(Request{Time: 0, Addr: ctl.Mapper().Unmap(bank, 3)})
	if ctl.module.OpenRow(bank) != 3 {
		t.Fatal("setup: page not open")
	}
	if at, ok := ctl.idle.Key(0); !ok || at != res.Done+DefaultIdleClose {
		t.Fatalf("demand set deadline (%v, %v), want (%v, true)", at, ok, res.Done+DefaultIdleClose)
	}
	ctl.closeIdleBank(deadline, 0)
	if ctl.module.OpenRow(bank) != -1 {
		t.Error("closeIdleBank left the page open")
	}
	if at, ok := ctl.idle.Key(0); ok {
		t.Errorf("closing an open bank left a deadline at %v", at)
	}
}

// Two banks sharing a page-close deadline must resolve the tie the same
// way every evaluation: the lowest flat bank index wins.
func TestNextIdleCloseTieBreakDeterministic(t *testing.T) {
	cfg := tinyConfig(64 * sim.Millisecond)
	ctl := MustNew(cfg, core.NewCBR(cfg.Geometry, cfg.RefreshInterval()), Options{})

	// Open pages in flat banks 2 and 1 (opened in that order) with
	// identical deadlines.
	wantAt := sim.Time(1000) + DefaultIdleClose
	for _, flat := range []int{2, 1} {
		ctl.module.Access(new(dram.AccessResult), 0, flat, 7, false)
		ctl.idle.Set(flat, wantAt)
	}

	for i := 0; i < 10; i++ {
		at, flat, ok := ctl.idle.Min()
		if !ok || at != wantAt || flat != 1 {
			t.Fatalf("iteration %d: next idle close = (%v, %d, %v), want (%v, 1, true)",
				i, at, flat, ok, wantAt)
		}
	}
}

// linearNextIdleClose is the reference for the page-close index, built
// from the test's own bookkeeping: lastDone holds, per flat bank, the
// completion of the latest demand the test submitted to it, and the
// module says which banks have a page open. It returns the earliest
// deadline over the open banks, ties to the lowest flat index.
func linearNextIdleClose(c *Controller, lastDone []sim.Time) (sim.Time, int, bool) {
	best := -1
	var at sim.Time
	for flat, done := range lastDone {
		if c.module.OpenRow(flat) == -1 {
			continue
		}
		if deadline := done + DefaultIdleClose; best == -1 || deadline < at {
			best, at = flat, deadline
		}
	}
	if best == -1 {
		return 0, 0, false
	}
	return at, best, true
}

// TestNextIdleCloseSlotsMatchLinearScan cross-checks the page-close
// index against the linear scan on seeded random traffic: after every
// submitted request (each of which runs the internal drain loop,
// closing pages in deadline order) both must agree on the next close —
// same deadline, same bank, same tie-break. The cases cover the ways a
// page closes besides its own deadline: Smart's RAS-only refreshes, a
// 16-bank geometry, the ladder-full power states, whose idle-close
// wakes a rank from ACT-PDN, and DARP's and SARP's per-bank refreshes;
// SARP's overlapped refresh closes the page only when it lies in the
// refreshing subarray and otherwise leaves it open.
func TestNextIdleCloseSlotsMatchLinearScan(t *testing.T) {
	const us = sim.Microsecond
	sixteenBanks := func(interval sim.Duration) config.DRAM {
		cfg := tinyConfig(interval)
		cfg.Geometry.Banks = 16
		cfg.Power.Geometry = cfg.Geometry
		return cfg
	}
	smart := func(cfg config.DRAM) core.Policy {
		return core.NewSmart(cfg.Geometry, cfg.RefreshInterval(), cfg.Smart)
	}
	cbr := func(cfg config.DRAM) core.Policy { return core.NewCBR(cfg.Geometry, cfg.RefreshInterval()) }
	darp := func(cfg config.DRAM) core.Policy {
		return core.NewDARP(cfg.Geometry, cfg.RefreshInterval(), core.PerBankConfig{})
	}
	sarp := func(cfg config.DRAM) core.Policy {
		return core.NewSARP(cfg.Geometry, cfg.RefreshInterval(), core.PerBankConfig{})
	}
	cases := []struct {
		name   string
		cfg    config.DRAM
		policy func(config.DRAM) core.Policy
		opts   Options
		// check asserts the case exercised what it is there for.
		check func(*Controller) string
	}{
		{name: "cbr", cfg: tinyConfig(64 * sim.Millisecond), policy: cbr},
		{
			// A 2 ms interval makes Smart refresh rows throughout the run,
			// closing pages the idle-close deadlines still cover.
			name: "smart", cfg: tinyConfig(2 * sim.Millisecond), policy: smart,
			check: refreshClosedPages,
		},
		{name: "smart-16bank", cfg: sixteenBanks(2 * sim.Millisecond), policy: smart, check: refreshClosedPages},
		{
			name: "ladder-full", cfg: tinyConfig(2 * sim.Millisecond), policy: smart,
			opts: Options{SelfRefreshAfter: 200 * us, PowerStates: PowerStateConfig{
				ActPdnAfter: 1 * us, PrePdnFastAfter: 5 * us, PrePdnSlowAfter: 50 * us, SRSlowAfter: 1000 * us,
			}},
			check: func(c *Controller) string {
				if c.module.Stats().ActPdnTime == 0 {
					return "no ACT-PDN residency: the ACT-PDN wake path was not exercised"
				}
				return refreshClosedPages(c)
			},
		},
		{name: "darp", cfg: tinyConfig(2 * sim.Millisecond), policy: darp, check: refreshClosedPages},
		{name: "sarp", cfg: tinyConfig(2 * sim.Millisecond), policy: sarp, check: refreshClosedPages},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 8; seed++ {
				ctl := MustNew(tc.cfg, tc.policy(tc.cfg), tc.opts)
				rng := sim.NewRNG(seed)
				g := tc.cfg.Geometry
				lastDone := make([]sim.Time, g.TotalBanks())
				now := sim.Time(0)
				for i := 0; i < 3000; i++ {
					addr := rng.Uint64() % uint64(ctl.Mapper().Capacity())
					res := ctl.Submit(Request{Time: now, Addr: addr, Write: rng.Bool(0.3)})
					bank, _ := ctl.Mapper().Map(addr)
					lastDone[bank] = res.Done
					// Mix of gaps around the page-close timeout so pages
					// sometimes survive to the next access and sometimes
					// idle-close first.
					now += sim.Time(rng.Intn(int(3 * DefaultIdleClose)))

					sAt, sFlat, sOk := ctl.idle.Min()
					lAt, lFlat, lOk := linearNextIdleClose(ctl, lastDone)
					if sAt != lAt || sFlat != lFlat || sOk != lOk {
						t.Fatalf("seed %d step %d: index (%v,%d,%v) != scan (%v,%d,%v)",
							seed, i, sAt, sFlat, sOk, lAt, lFlat, lOk)
					}
				}
				ctl.Finish(now)
				if tc.check != nil {
					if msg := tc.check(ctl); msg != "" {
						t.Fatalf("seed %d: %s", seed, msg)
					}
				}
			}
		})
	}
}

// refreshClosedPages reports (as a non-empty message) a run in which no
// refresh found an open page to close.
func refreshClosedPages(c *Controller) string {
	if c.module.Stats().RefreshConflictOps == 0 {
		return "no refresh closed an open page"
	}
	return ""
}

// The controller's trace scope must see idle page-closes and
// self-refresh residency spans alongside the demand commands.
func TestControllerTraceIdleCloseAndSelfRefresh(t *testing.T) {
	cfg := tinyConfig(64 * sim.Millisecond)
	tr := telemetry.NewTracer()
	ctl := MustNew(cfg, core.NewCBR(cfg.Geometry, cfg.RefreshInterval()), Options{
		Trace:            tr,
		SelfRefreshAfter: 100 * sim.Microsecond,
	})

	ctl.Submit(Request{Time: 0, Addr: 0})
	// Let the page-close timeout and then the self-refresh deadline fire,
	// then wake the rank with a second access.
	wake := sim.Time(2 * sim.Millisecond)
	ctl.Submit(Request{Time: wake, Addr: 0})
	ctl.Finish(wake + sim.Time(sim.Millisecond))

	for _, k := range []telemetry.CommandKind{
		telemetry.CmdActivate, telemetry.CmdRead,
		telemetry.CmdIdleClose, telemetry.CmdSelfRefresh,
	} {
		if tr.CommandCount(k) == 0 {
			t.Errorf("trace has no %s events", k)
		}
	}
}
