package experiment

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"smartrefresh/internal/config"
	"smartrefresh/internal/memctrl"
	"smartrefresh/internal/power"
	"smartrefresh/internal/sim"
	"smartrefresh/internal/workload"
)

func TestRefreshesPerSecondGuardsWindow(t *testing.T) {
	cases := []struct {
		name   string
		window sim.Duration
		ops    uint64
		want   float64
	}{
		{"zero window", 0, 1000, 0},
		{"negative window", -sim.Millisecond, 1000, 0},
		{"zero ops", sim.Second, 0, 0},
		{"one second", sim.Second, 2048000, 2048000},
		{"quarter second", 250 * sim.Millisecond, 512000, 2048000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := RunResult{Window: tc.window}
			r.Results.Module.RefreshOps = tc.ops
			got := r.RefreshesPerSecond()
			if math.IsNaN(got) || math.IsInf(got, 0) {
				t.Fatalf("RefreshesPerSecond = %v", got)
			}
			if math.Abs(got-tc.want) > 1e-9 {
				t.Errorf("RefreshesPerSecond = %v, want %v", got, tc.want)
			}
		})
	}
}

// finitePair asserts no field of the pair is NaN or infinite.
func finitePair(t *testing.T, pm PairMetrics) {
	t.Helper()
	for name, v := range map[string]float64{
		"BaselineRefreshesPerSec": pm.BaselineRefreshesPerSec,
		"SmartRefreshesPerSec":    pm.SmartRefreshesPerSec,
		"RefreshReductionPct":     pm.RefreshReductionPct,
		"BaselineRefreshEnergyMJ": pm.BaselineRefreshEnergyMJ,
		"SmartRefreshEnergyMJ":    pm.SmartRefreshEnergyMJ,
		"RefreshEnergySavingPct":  pm.RefreshEnergySavingPct,
		"BaselineTotalEnergyMJ":   pm.BaselineTotalEnergyMJ,
		"SmartTotalEnergyMJ":      pm.SmartTotalEnergyMJ,
		"TotalEnergySavingPct":    pm.TotalEnergySavingPct,
		"PerfImprovementPct":      pm.PerfImprovementPct,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v", name, v)
		}
	}
}

func TestPairFromGuardsZeroDenominators(t *testing.T) {
	run := func(window sim.Duration, ops uint64, refreshE, totalE power.Energy, stall sim.Duration) RunResult {
		var res memctrl.Results
		res.Module.RefreshOps = ops
		res.Module.DemandStall = stall
		res.Energy.RefreshArray = refreshE
		res.Energy.Background = totalE - refreshE
		res.DemandStall = stall
		return RunResult{Benchmark: "t", Config: "c", Window: window, Results: res}
	}

	cases := []struct {
		name        string
		base, smart RunResult
		wantRefrPct float64
	}{
		{"all zero", RunResult{}, RunResult{}, 0},
		{"zero window only", run(0, 100, 10, 20, 0), run(0, 50, 5, 10, 0), 0},
		{"zero baseline ops", run(sim.Second, 0, 0, 0, 0), run(sim.Second, 50, 5, 10, 0), 0},
		{"zero baseline energy", run(sim.Second, 100, 0, 0, 0), run(sim.Second, 50, 0, 0, 0), 50},
		{"normal halving", run(sim.Second, 100, 10, 20, 0), run(sim.Second, 50, 5, 10, 0), 50},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pm := PairFrom(tc.base, tc.smart)
			finitePair(t, pm)
			if math.Abs(pm.RefreshReductionPct-tc.wantRefrPct) > 1e-9 {
				t.Errorf("RefreshReductionPct = %v, want %v", pm.RefreshReductionPct, tc.wantRefrPct)
			}
		})
	}
}

func TestRunPairOnRealStreamIsFinite(t *testing.T) {
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	pm := RunPair(Conv2GB.DRAM(), prof, engineOpts())
	finitePair(t, pm)
	if pm.RefreshReductionPct <= 0 {
		t.Errorf("expected a refresh reduction, got %v%%", pm.RefreshReductionPct)
	}
}

// A retention map holds one multiplier per row of the geometry it was
// built for. A job given a map of another geometry fails with an error
// naming both row counts, on both map policies and in both directions: a
// larger map would give rows the wrong multipliers, a smaller one would
// be indexed past its end.
func TestRetentionMapOfAnotherGeometryRejected(t *testing.T) {
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	small, large := config.Table1_2GB(), config.Table1_4GB()
	for _, tc := range []struct{ cfg, mapCfg config.DRAM }{{small, large}, {large, small}} {
		rmap := DefaultRetentionMap(tc.mapCfg.Geometry, prof.Seed())
		want := fmt.Sprintf("retention map of %d rows on a module of %d rows",
			tc.mapCfg.Geometry.TotalRows(), tc.cfg.Geometry.TotalRows())
		for _, kind := range []PolicyKind{PolicyRAIDR, PolicySmartRetention} {
			for _, check := range []bool{false, true} {
				job := Job{Cfg: tc.cfg, Prof: prof, Policy: kind, RetentionMap: rmap,
					Opts: RunOptions{Warmup: 100 * sim.Microsecond, Measure: sim.Millisecond, CheckRetention: check}}
				res := NewEngine(1).RunJobs([]Job{job})
				if err := res[0].Err; err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("%s with a %s map: err %v, want one containing %q", job.ID(), tc.mapCfg.Name, err, want)
				}
			}
		}
	}
}
