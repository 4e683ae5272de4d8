package check

import (
	"context"
	"fmt"
	"testing"

	"smartrefresh/internal/config"
	"smartrefresh/internal/memctrl"
	"smartrefresh/internal/sim"
	"smartrefresh/internal/workload"
)

// fuzzCfg derives a small, fast bundle from raw fuzz bytes; the Smart
// knobs are left at their defaults for the caller to overwrite.
func fuzzCfg(rowsExp, banksExp uint8) config.DRAM {
	cfg := config.Table1_2GB()
	cfg.Name = "fuzz"
	cfg.Geometry.Ranks = 1
	cfg.Geometry.Banks = 2 << (banksExp % 3)
	cfg.Geometry.Rows = 64 << (rowsExp % 3)
	cfg.Geometry.Columns = 64
	cfg.Timing.RefreshInterval = sim.Millisecond
	cfg.Power.Geometry = cfg.Geometry
	cfg.Power.Timing = cfg.Timing
	return cfg
}

// smartCase returns the scenario's Smart Refresh policy case.
func smartCase(t *testing.T, sc Scenario) policyCase {
	t.Helper()
	for _, pc := range policyCases(sc) {
		if pc.Name == "smart" {
			return pc
		}
	}
	t.Fatal("no smart policy case")
	return policyCase{}
}

// checkCase runs one policy case and reports every violated per-run
// invariant as a test error.
func checkCase(t *testing.T, sc Scenario, pc policyCase) PolicyRun {
	t.Helper()
	run := runPolicy(context.Background(), sc, pc, 1, nil, nil).PolicyRun
	checkRun(sc, pc, run, func(policy, invariant, format string, args ...any) {
		t.Errorf("%s/%s: %s: %s", sc.Name, policy, invariant, fmt.Sprintf(format, args...))
	})
	return run
}

// FuzzSmartConfig drives the configuration edges — counter width, segment
// counts that may not divide the row count, queue depths below the
// segment count: every bundle must either be rejected by Validate or
// simulate cleanly under Smart Refresh. Nothing may panic.
func FuzzSmartConfig(f *testing.F) {
	f.Add(uint8(2), uint8(1), uint8(3), uint8(8), uint8(8), false)
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), true)
	f.Add(uint8(1), uint8(2), uint8(4), uint8(12), uint8(3), true) // 12 does not divide a pow2 row count
	f.Add(uint8(2), uint8(0), uint8(8), uint8(1), uint8(1), false)
	f.Fuzz(func(t *testing.T, rowsExp, banksExp, bits, segments, depth uint8, disable bool) {
		cfg := fuzzCfg(rowsExp, banksExp)
		cfg.Smart.CounterBits = int(bits % 10)  // 0 and 9 are out of range
		cfg.Smart.Segments = int(segments % 40) // includes 0 and non-dividing counts
		cfg.Smart.QueueDepth = int(depth % 40)  // includes 0 and depths below Segments
		cfg.Smart.SelfDisable = disable
		if err := cfg.Validate(); err != nil {
			return // rejected is fine; panicking later is not
		}
		// Counter widths beyond the retention-aware multiplier budget are
		// valid for plain Smart but not exercised here (see smartCase).
		if cfg.Smart.CounterBits > 4 {
			cfg.Smart.CounterBits = 4
		}
		sc := Scenario{
			Name:     "fuzz-smart",
			Seed:     1,
			Cfg:      cfg,
			Spec:     workload.StreamSpec{StrideBytes: cfg.Geometry.RowBytes()},
			Duration: 3 * cfg.Timing.RefreshInterval,
		}
		checkCase(t, sc, smartCase(t, sc))
	})
}

// FuzzSelfDisableThresholds drives the section 4.6 disable/enable
// threshold pair with arbitrary floats (negative, crossed, NaN, Inf) and
// an access density around the thresholds. Invalid pairs must be caught
// by Validate; valid ones must keep every invariant, including switch
// accounting, through however many mode transitions they cause.
func FuzzSelfDisableThresholds(f *testing.F) {
	f.Add(0.05, 1.0, uint8(2), uint16(40))
	f.Add(1.0, 0.5, uint8(1), uint16(0))    // crossed: must be rejected
	f.Add(-1.0, 2.0, uint8(0), uint16(100)) // negative disable: rejected
	f.Fuzz(func(t *testing.T, disableBelow, enableAbove float64, rowsExp uint8, footRows uint16) {
		cfg := fuzzCfg(rowsExp, 1)
		cfg.Smart.SelfDisable = true
		cfg.Smart.DisableBelow = disableBelow
		cfg.Smart.EnableAbove = enableAbove
		if err := cfg.Validate(); err != nil {
			return
		}
		interval := cfg.Timing.RefreshInterval
		sc := Scenario{
			Name:     "fuzz-disable",
			Seed:     2,
			Cfg:      cfg,
			Duration: 4 * interval,
			Spec:     workload.StreamSpec{StrideBytes: cfg.Geometry.RowBytes()},
		}
		if rows := int(footRows) % (cfg.Geometry.TotalRows() + 1); rows > 0 {
			sc.Spec.FootprintBytes = int64(rows) * cfg.Geometry.RowBytes()
			sc.Spec.SweepPeriod = interval / 2
		}
		run := checkCase(t, sc, smartCase(t, sc))
		if run.Panic != "" {
			return // already reported by checkCase
		}
		ps := run.Res.Policy
		if ps.EnableSwitches > ps.DisableSwitches {
			t.Errorf("re-enabled %d times after only %d disables", ps.EnableSwitches, ps.DisableSwitches)
		}
		if ps.TimeDisabled < 0 || ps.TimeDisabled > sc.Duration {
			t.Errorf("TimeDisabled %v outside run of %v", ps.TimeDisabled, sc.Duration)
		}
	})
}

// FuzzSelfRefreshOptions drives the SelfRefreshAfter option: the
// controller must reject a threshold at or below the page-close timeout
// and simulate every accepted one — including interleaved idle-close and
// self-refresh transitions — without violating retention, refresh
// accounting or residency.
func FuzzSelfRefreshOptions(f *testing.F) {
	f.Add(int64(0), uint8(1), false)
	f.Add(int64(50*sim.Microsecond), uint8(0), true)
	f.Add(int64(memctrl.DefaultIdleClose), uint8(2), true) // SR at the page-close timeout: rejected
	f.Add(int64(120*sim.Microsecond), uint8(1), true)      // sparse demand: repeated sleep/wake
	f.Fuzz(func(t *testing.T, srRaw int64, rowsExp uint8, sparse bool) {
		cfg := fuzzCfg(rowsExp, 1)
		interval := cfg.Timing.RefreshInterval
		// Map the raw value into [-200us, 200us] keeping sign; a
		// non-positive SelfRefreshAfter means disarmed.
		srAfter := sim.Duration(srRaw % int64(200*sim.Microsecond))

		sc := Scenario{
			Name:             "fuzz-selfrefresh",
			Seed:             3,
			Cfg:              cfg,
			Duration:         3 * interval,
			Spec:             workload.StreamSpec{StrideBytes: cfg.Geometry.RowBytes()},
			SelfRefreshAfter: srAfter,
		}
		if sparse {
			sc.Spec.FootprintBytes = 8 * cfg.Geometry.RowBytes()
			sc.Spec.SweepPeriod = interval
		}

		pc := smartCase(t, sc)
		run := runPolicy(context.Background(), sc, pc, 1, nil, nil).PolicyRun

		// Mirror the controller's documented acceptance rule.
		if srAfter > 0 && srAfter <= memctrl.DefaultIdleClose {
			if run.Panic == "" {
				t.Errorf("SelfRefreshAfter %v accepted; want construction rejected", srAfter)
			}
			return
		}
		if run.Panic != "" {
			t.Fatalf("SelfRefreshAfter %v rejected: %s", srAfter, run.Panic)
		}
		checkRun(sc, pc, run, func(policy, invariant, format string, args ...any) {
			t.Errorf("%s/%s: %s: %s", sc.Name, policy, invariant, fmt.Sprintf(format, args...))
		})
	})
}
