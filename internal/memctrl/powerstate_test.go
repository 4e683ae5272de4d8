package memctrl

import (
	"reflect"
	"testing"

	"smartrefresh/internal/config"
	"smartrefresh/internal/core"
	"smartrefresh/internal/sim"
)

// psLadderOptions arms every rung of the ladder with round thresholds
// that interleave with the default 2 us page-close timeout.
func psLadderOptions() Options {
	return Options{
		SelfRefreshAfter: 100 * sim.Microsecond,
		PowerStates: PowerStateConfig{
			ActPdnAfter:     1 * sim.Microsecond,
			PrePdnFastAfter: 5 * sim.Microsecond,
			PrePdnSlowAfter: 50 * sim.Microsecond,
			SRSlowAfter:     500 * sim.Microsecond,
		},
	}
}

func TestPowerStateLadderDescent(t *testing.T) {
	cfg := tinyConfig(64 * sim.Millisecond)
	ctl := MustNew(cfg, core.NewCBR(cfg.Geometry, cfg.RefreshInterval()), psLadderOptions())
	// One access opens a page on rank 0; then the rank idles down the
	// whole ladder: ACT-PDN first (pages still open), woken by the
	// idle-close, then the precharged rungs in depth order.
	ctl.Submit(Request{Time: 0, Addr: 0})
	steps := []struct {
		at   sim.Time
		want PowerState
	}{
		{1500 * sim.Nanosecond, PSActPdn},          // 1 us after the access
		{3 * sim.Microsecond, PSAwake},             // idle-close at 2 us woke it
		{6 * sim.Microsecond, PSPrePdnFast},        // 5 us
		{60 * sim.Microsecond, PSPrePdnSlow},       // 50 us
		{120 * sim.Microsecond, PSSelfRefresh},     // 100 us
		{700 * sim.Microsecond, PSSelfRefreshSlow}, // SR entry + 500 us
	}
	for _, s := range steps {
		ctl.AdvanceTo(s.at)
		if got := ctl.PowerStateOf(0, 0); got != s.want {
			t.Errorf("at %v: rank 0 state = %v, want %v", s.at, got, s.want)
		}
	}
	end := 800 * sim.Microsecond
	ctl.Finish(sim.Time(end))
	ms := ctl.Results(sim.Time(end)).Module
	if !ms.PowerStatesTracked {
		t.Fatal("residency tracking off with an armed ladder")
	}
	if ms.ActPdnTime <= 0 || ms.PrePdnFastTime <= 0 || ms.PrePdnSlowTime <= 0 ||
		ms.SelfRefreshTime <= 0 || ms.SelfRefreshSlowTime <= 0 {
		t.Errorf("missing residency in some rung: act-pdn %v fast %v slow %v sr %v sr-slow %v",
			ms.ActPdnTime, ms.PrePdnFastTime, ms.PrePdnSlowTime, ms.SelfRefreshTime, ms.SelfRefreshSlowTime)
	}
}

func TestPowerStateWakeLatency(t *testing.T) {
	cfg := tinyConfig(64 * sim.Millisecond)
	tests := []struct {
		name string
		at   sim.Time // advance target that lands the rank in the state
		st   PowerState
		exit sim.Duration
	}{
		{"act-pdn", 1500 * sim.Nanosecond, PSActPdn, cfg.Timing.PowerDownExitFast()},
		{"pre-pdn-fast", 6 * sim.Microsecond, PSPrePdnFast, cfg.Timing.PowerDownExitFast()},
		{"pre-pdn-slow", 60 * sim.Microsecond, PSPrePdnSlow, cfg.Timing.PowerDownExitSlow()},
		{"sr", 120 * sim.Microsecond, PSSelfRefresh, cfg.Timing.TXSNR},
		{"sr-slow", 700 * sim.Microsecond, PSSelfRefreshSlow, cfg.Timing.SelfRefreshSlowExit()},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			ctl := MustNew(cfg, core.NewCBR(cfg.Geometry, cfg.RefreshInterval()), psLadderOptions())
			if tc.st == PSActPdn {
				ctl.Submit(Request{Time: 0, Addr: 0}) // open a page first
			}
			ctl.AdvanceTo(tc.at)
			if got := ctl.PowerStateOf(0, 0); got != tc.st {
				t.Fatalf("setup: state = %v, want %v", got, tc.st)
			}
			res := ctl.Submit(Request{Time: tc.at, Addr: 0})
			if res.Issue < tc.at+sim.Time(tc.exit) {
				t.Errorf("wake from %v issued at %v, want >= %v (exit %v)",
					tc.st, res.Issue, tc.at+sim.Time(tc.exit), tc.exit)
			}
			if got := ctl.PowerStateOf(0, 0); got != PSAwake {
				t.Errorf("state after demand wake = %v, want awake", got)
			}
		})
	}
}

func TestPowerStateConfigValidation(t *testing.T) {
	cfg := tinyConfig(64 * sim.Millisecond)
	const us = sim.Microsecond
	cases := []struct {
		name string
		opts Options
	}{
		{"act-pdn at page-close timeout", Options{
			PowerStates: PowerStateConfig{ActPdnAfter: 2 * us}}},
		{"pre-pdn-fast below page-close timeout", Options{
			PowerStates: PowerStateConfig{PrePdnFastAfter: 1 * us}}},
		{"pre-pdn-slow without fast", Options{
			PowerStates: PowerStateConfig{PrePdnSlowAfter: 50 * us}}},
		{"pre-pdn-slow at fast threshold", Options{
			PowerStates: PowerStateConfig{PrePdnFastAfter: 5 * us, PrePdnSlowAfter: 5 * us}}},
		{"self-refresh below deepest pre-pdn", Options{
			SelfRefreshAfter: 10 * us,
			PowerStates:      PowerStateConfig{PrePdnFastAfter: 5 * us, PrePdnSlowAfter: 20 * us}}},
		{"sr-slow without self-refresh", Options{
			PowerStates: PowerStateConfig{SRSlowAfter: 50 * us}}},
		{"negative threshold", Options{
			PowerStates: PowerStateConfig{PrePdnFastAfter: -1}}},
	}
	for _, tc := range cases {
		if _, err := New(cfg, core.NewCBR(cfg.Geometry, cfg.RefreshInterval()), tc.opts); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, err := New(cfg, core.NewCBR(cfg.Geometry, cfg.RefreshInterval()), psLadderOptions()); err != nil {
		t.Errorf("full valid ladder rejected: %v", err)
	}
}

func TestPowerStateTwoStateStaysUntracked(t *testing.T) {
	// An SR-only configuration must stay on the historical two-state
	// accounting: no residency tracking, no power-down stats — this is
	// the bit-identical degenerate case every golden figure rests on.
	cfg := tinyConfig(64 * sim.Millisecond)
	ctl := MustNew(cfg, core.NewCBR(cfg.Geometry, cfg.RefreshInterval()), srOptions())
	end := sim.Time(cfg.RefreshInterval())
	ctl.Finish(end)
	ms := ctl.Results(end).Module
	if ms.PowerStatesTracked {
		t.Error("SR-only configuration switched to residency tracking")
	}
	if ms.ActPdnTime != 0 || ms.PrePdnFastTime != 0 || ms.PrePdnSlowTime != 0 ||
		ms.SelfRefreshSlowTime != 0 || ms.PowerDownEntries != 0 {
		t.Errorf("power-down stats accumulated without arming: %+v", ms)
	}
}

// psSlotConfig is tinyConfig with channels x ranks widened so the slot
// table has enough ranks to exercise ties.
func psSlotConfig(channels, ranks int) config.DRAM {
	cfg := tinyConfig(64 * sim.Millisecond)
	cfg.Geometry.Channels = channels
	cfg.Geometry.Ranks = ranks
	cfg.Power.Geometry = cfg.Geometry
	return cfg
}

// setSlot points rank ri's deadline slot at `at` (the ACT-PDN rung, armed
// 1 us after lastDemand by psLadderOptions).
func setSlot(ctl *Controller, ri int, at sim.Time) {
	ctl.ps.ranks[ri].lastDemand = at - sim.Time(ctl.ps.cfg.ActPdnAfter)
	ctl.scheduleFrom(ri, PSAwake, 0)
}

// clearSlot leaves rank ri with no pending transition (nothing lies
// below SR-slow on the ladder).
func clearSlot(ctl *Controller, ri int) {
	ctl.scheduleFrom(ri, PSSelfRefreshSlow, 0)
}

// bruteNextPowerEvent is the reference for the drain's next power
// event: the earliest set slot, ties to the lowest rank.
func bruteNextPowerEvent(ctl *Controller) (sim.Time, int, bool) {
	var at sim.Time
	rank, ok := 0, false
	for ri := range ctl.ps.ranks {
		if k, set := ctl.ps.slots.Key(ri); set && (!ok || k < at) {
			at, rank, ok = k, ri, true
		}
	}
	return at, rank, ok
}

// TestPowerSlotCacheMatchesBruteForce cross-checks the earliest slot
// against a brute-force min over ranks after every reschedule, on
// random slot moves (earlier, later, equal, cleared) and on seeded
// traffic through the full ladder.
func TestPowerSlotCacheMatchesBruteForce(t *testing.T) {
	cfg := psSlotConfig(2, 4)
	for seed := uint64(1); seed <= 8; seed++ {
		ctl := MustNew(cfg, core.NewCBR(cfg.Geometry, cfg.RefreshInterval()), psLadderOptions())
		rng := sim.NewRNG(seed)
		n := len(ctl.ps.ranks)
		for i := 0; i < 5000; i++ {
			ri := rng.Intn(n)
			if rng.Bool(0.1) {
				clearSlot(ctl, ri)
			} else {
				// A narrow deadline range makes ties common.
				setSlot(ctl, ri, sim.Time(1000+rng.Intn(16)))
			}
			if i%3 == 0 {
				continue // let several moves stack up between peeks
			}
			cAt, cRank, cOK := ctl.ps.slots.Min()
			bAt, bRank, bOK := bruteNextPowerEvent(ctl)
			if cAt != bAt || cRank != bRank || cOK != bOK {
				t.Fatalf("seed %d step %d: index (%v,%d,%v) != brute force (%v,%d,%v)",
					seed, i, cAt, cRank, cOK, bAt, bRank, bOK)
			}
		}

		ctl = MustNew(cfg, core.NewCBR(cfg.Geometry, cfg.RefreshInterval()), psLadderOptions())
		now := sim.Time(0)
		for i := 0; i < 2000; i++ {
			ctl.Submit(Request{
				Time:  now,
				Addr:  rng.Uint64() % uint64(ctl.Mapper().Capacity()),
				Write: rng.Bool(0.3),
			})
			// Gaps from sub-microsecond to past the SR threshold walk
			// ranks down every rung and wake them again.
			now += sim.Time(rng.Intn(int(150 * sim.Microsecond)))
			ctl.AdvanceTo(now)
			cAt, cRank, cOK := ctl.ps.slots.Min()
			bAt, bRank, bOK := bruteNextPowerEvent(ctl)
			if cAt != bAt || cRank != bRank || cOK != bOK {
				t.Fatalf("seed %d request %d: index (%v,%d,%v) != brute force (%v,%d,%v)",
					seed, i, cAt, cRank, cOK, bAt, bRank, bOK)
			}
		}
	}
}

func TestPowerStateSameDeadlineDeterminism(t *testing.T) {
	// Both ranks idle from t=0, so every rung's deadline coincides
	// exactly across ranks. The run must be deterministic and both
	// ranks must make it down the ladder.
	cfg := tinyConfig(64 * sim.Millisecond)
	run := func() Results {
		ctl := MustNew(cfg, core.NewCBR(cfg.Geometry, cfg.RefreshInterval()), psLadderOptions())
		end := 80 * sim.Microsecond
		ctl.Finish(sim.Time(end))
		return ctl.Results(sim.Time(end))
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same-deadline rerun differs:\n first: %+v\nsecond: %+v", a, b)
	}
	// fast at 5 us and the slow deepen at 50 us, per rank.
	if got := a.Module.PowerDownEntries; got != 4 {
		t.Errorf("PowerDownEntries = %d, want 4 (fast + slow deepen, two ranks)", got)
	}
	if a.Module.PrePdnFastTime <= 0 || a.Module.PrePdnSlowTime <= 0 {
		t.Errorf("missing PRE-PDN residency: fast %v slow %v",
			a.Module.PrePdnFastTime, a.Module.PrePdnSlowTime)
	}
}

func TestPowerStateResidencyAtDrain(t *testing.T) {
	// A rank that enters a low-power state in the final interval and
	// never wakes must report residency clamped to the drain horizon —
	// for every rung of the ladder, and idempotently across repeated
	// Results calls.
	cfg := tinyConfig(64 * sim.Millisecond)
	ranks := sim.Duration(cfg.Geometry.Channels * cfg.Geometry.Ranks)
	cases := []struct {
		name   string
		end    sim.Duration
		access bool // open a page first (for the ACT-PDN case)
		check  func(t *testing.T, got Results)
	}{
		{"act-pdn", 1500 * sim.Nanosecond, true, func(t *testing.T, got Results) {
			if ms := got.Module; ms.ActPdnTime <= 0 || ms.ActPdnTime > ms.ActiveTime {
				t.Errorf("ACT-PDN at drain: %v of active %v", ms.ActPdnTime, ms.ActiveTime)
			}
		}},
		{"pre-pdn-fast", 20 * sim.Microsecond, false, func(t *testing.T, got Results) {
			if ms := got.Module; ms.PrePdnFastTime <= 0 || ms.PrePdnFastTime > ms.IdleTime {
				t.Errorf("PRE-PDN-fast at drain: %v of idle %v", ms.PrePdnFastTime, ms.IdleTime)
			}
		}},
		{"pre-pdn-slow", 80 * sim.Microsecond, false, func(t *testing.T, got Results) {
			if ms := got.Module; ms.PrePdnSlowTime <= 0 || ms.PrePdnSlowTime > ms.IdleTime {
				t.Errorf("PRE-PDN-slow at drain: %v of idle %v", ms.PrePdnSlowTime, ms.IdleTime)
			}
		}},
		{"sr", 200 * sim.Microsecond, false, func(t *testing.T, got Results) {
			if ms := got.Module; ms.SelfRefreshTime <= 0 || ms.SelfRefreshTime > ms.IdleTime {
				t.Errorf("SR at drain: %v of idle %v", ms.SelfRefreshTime, ms.IdleTime)
			}
		}},
		{"sr-slow", 700 * sim.Microsecond, false, func(t *testing.T, got Results) {
			if ms := got.Module; ms.SelfRefreshSlowTime <= 0 || ms.SelfRefreshSlowTime > ms.SelfRefreshTime {
				t.Errorf("SR-slow at drain: %v of sr %v", ms.SelfRefreshSlowTime, ms.SelfRefreshTime)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctl := MustNew(cfg, core.NewCBR(cfg.Geometry, cfg.RefreshInterval()), psLadderOptions())
			if tc.access {
				ctl.Submit(Request{Time: 0, Addr: 0})
			}
			end := sim.Time(tc.end)
			ctl.Finish(end)
			got := ctl.Results(end)
			tc.check(t, got)
			ms := got.Module
			// Clamped to the drain horizon: no low-power residency may
			// extend past end (per rank).
			for _, r := range []struct {
				label string
				v     sim.Duration
			}{
				{"act-pdn", ms.ActPdnTime}, {"pre-pdn-fast", ms.PrePdnFastTime},
				{"pre-pdn-slow", ms.PrePdnSlowTime}, {"sr", ms.SelfRefreshTime},
			} {
				if r.v > ranks*tc.end {
					t.Errorf("%s residency %v exceeds drain horizon %v x %d ranks", r.label, r.v, tc.end, ranks)
				}
			}
			// A second Results at the same horizon must not re-count the
			// still-open span.
			if again := ctl.Results(end); !reflect.DeepEqual(got, again) {
				t.Errorf("repeated Results differ:\n first: %+v\nsecond: %+v", got, again)
			}
		})
	}
}

func TestPowerStateRetentionClean(t *testing.T) {
	// Refresh ticks must keep waking power-down ranks (they drop
	// commands only in self-refresh), so a long idle run with the full
	// ladder armed holds the retention deadline.
	cfg := tinyConfig(4 * sim.Millisecond)
	opts := psLadderOptions()
	opts.CheckRetention = true
	opts.RetentionSlack = 2*cfg.RefreshInterval() + 4*sim.Microsecond
	ctl := MustNew(cfg, core.NewCBR(cfg.Geometry, cfg.RefreshInterval()), opts)
	end := sim.Time(3 * cfg.RefreshInterval())
	ctl.Finish(end)
	if err := ctl.RetentionErr(); err != nil {
		t.Fatalf("retention with full ladder: %v", err)
	}
	if ms := ctl.Results(end).Module; ms.SelfRefreshTime <= 0 {
		t.Error("rank never reached self-refresh on a long idle run")
	}
}
