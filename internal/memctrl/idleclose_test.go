package memctrl

import (
	"testing"

	"smartrefresh/internal/config"
	"smartrefresh/internal/core"
	"smartrefresh/internal/dram"
	"smartrefresh/internal/sim"
	"smartrefresh/internal/telemetry"
)

// Regression: closeIdleBank used to re-arm bankLastUse even when the
// module reported the bank was already closed, inventing a future
// page-close deadline for a precharged bank.
func TestCloseIdleBankNoRearmWhenNotClosed(t *testing.T) {
	cfg := tinyConfig(64 * sim.Millisecond)
	ctl := MustNew(cfg, core.NewCBR(cfg.Geometry, cfg.RefreshInterval()), Options{})

	deadline := sim.Time(5 * sim.Microsecond)
	// Bank 0 has no open page: the close must be a no-op, including the
	// last-use re-arm.
	ctl.closeIdleBank(deadline, 0)
	if got := ctl.bankLastUse[0]; got != 0 {
		t.Errorf("bankLastUse re-armed to %v on a not-closed bank, want 0", got)
	}

	// With an open page the close precharges the bank and re-arms.
	bank := dram.BankID{Channel: 0, Rank: 0, Bank: 0}
	ctl.module.Access(0, dram.Address{RowID: dram.RowID{Row: 3}, Column: 0}, false)
	if ctl.module.OpenRow(bank) != 3 {
		t.Fatal("setup: page not open")
	}
	ctl.closeIdleBank(deadline, 0)
	if ctl.module.OpenRow(bank) != -1 {
		t.Error("closeIdleBank left the page open")
	}
	if got := ctl.bankLastUse[0]; got != deadline {
		t.Errorf("bankLastUse = %v after closing, want %v", got, deadline)
	}
}

// Two banks sharing a page-close deadline must resolve the tie the same
// way every evaluation: the lowest flat bank index wins.
func TestNextIdleCloseTieBreakDeterministic(t *testing.T) {
	cfg := tinyConfig(64 * sim.Millisecond)
	ctl := MustNew(cfg, core.NewCBR(cfg.Geometry, cfg.RefreshInterval()), Options{})
	g := cfg.Geometry

	// Open pages in flat banks 2 and 1 (opened in that order) and give
	// them identical last-use times, so their deadlines tie exactly.
	for _, flat := range []int{2, 1} {
		rem := flat % (g.Ranks * g.Banks)
		addr := dram.Address{RowID: dram.RowID{
			Channel: flat / (g.Ranks * g.Banks),
			Rank:    rem / g.Banks,
			Bank:    rem % g.Banks,
			Row:     7,
		}}
		ctl.module.Access(0, addr, false)
		ctl.setBankLastUse(flat, 1000)
	}

	wantAt := sim.Time(1000) + ctl.idleClose
	for i := 0; i < 10; i++ {
		at, flat, ok := ctl.nextIdleClose()
		if !ok || at != wantAt || flat != 1 {
			t.Fatalf("iteration %d: nextIdleClose = (%v, %d, %v), want (%v, 1, true)",
				i, at, flat, ok, wantAt)
		}
	}
}

// linearNextIdleClose is the O(banks) scan the cached deadline slots
// replaced, kept verbatim as the property-test reference: earliest
// deadline over all open banks, ties to the lowest flat index.
func linearNextIdleClose(c *Controller) (sim.Time, int, bool) {
	if c.idleClose < 0 {
		return 0, 0, false
	}
	best := -1
	var at sim.Time
	g := c.cfg.Geometry
	for flat := range c.bankLastUse {
		rem := flat % (g.Ranks * g.Banks)
		bank := dram.BankID{
			Channel: flat / (g.Ranks * g.Banks),
			Rank:    rem / g.Banks,
			Bank:    rem % g.Banks,
		}
		if c.module.OpenRow(bank) == -1 {
			continue
		}
		deadline := c.bankLastUse[flat] + c.idleClose
		if best == -1 || deadline < at {
			best, at = flat, deadline
		}
	}
	if best == -1 {
		return 0, 0, false
	}
	return at, best, true
}

// TestNextIdleCloseSlotsMatchLinearScan cross-checks the cached
// page-close deadline against the linear scan on seeded random traffic:
// after every submitted request (each of which runs the internal drain
// loop, closing pages in deadline order) both must agree on the next
// close — same deadline, same bank, same tie-break. The cases cover the
// ways a page closes besides its own deadline: Smart's RAS-only
// refreshes closing open pages, a 16-bank geometry, and the ladder-full
// power states, whose idle-close wakes a rank from ACT-PDN.
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
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 8; seed++ {
				ctl := MustNew(tc.cfg, tc.policy(tc.cfg), tc.opts)
				rng := sim.NewRNG(seed)
				now := sim.Time(0)
				for i := 0; i < 3000; i++ {
					ctl.Submit(Request{
						Time:  now,
						Addr:  rng.Uint64() % uint64(ctl.Mapper().Capacity()),
						Write: rng.Bool(0.3),
					})
					// Mix of gaps around the page-close timeout so pages
					// sometimes survive to the next access and sometimes
					// idle-close first.
					now += sim.Time(rng.Intn(int(3 * ctl.idleClose)))

					sAt, sFlat, sOk := ctl.nextIdleClose()
					lAt, lFlat, lOk := linearNextIdleClose(ctl)
					if sAt != lAt || sFlat != lFlat || sOk != lOk {
						t.Fatalf("seed %d step %d: slots (%v,%d,%v) != scan (%v,%d,%v)",
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
