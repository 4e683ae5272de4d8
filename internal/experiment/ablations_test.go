package experiment

import (
	"strings"
	"testing"

	"smartrefresh/internal/sim"
	"smartrefresh/internal/telemetry"
	"smartrefresh/internal/workload"
)

func TestCounterWidthStudy(t *testing.T) {
	prof, _ := workload.ByName("gcc")
	pts := CounterWidthStudy(nil, prof, []int{2, 3, 4}, fastOpts(false))
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	// Section 4.4 analytic values.
	if pts[0].OptimalityPct != 75 || pts[1].OptimalityPct != 87.5 || pts[2].OptimalityPct != 93.75 {
		t.Errorf("optimality bounds wrong: %+v", pts)
	}
	for _, p := range pts {
		// The measured worst case must respect the analytic bound (with
		// scan quantisation slack) and never exceed 100%.
		if p.MeasuredOptimalityPct < p.OptimalityPct-1 || p.MeasuredOptimalityPct > 100.5 {
			t.Errorf("bits=%d measured optimality %.2f vs bound %.2f",
				p.Bits, p.MeasuredOptimalityPct, p.OptimalityPct)
		}
		if p.RefreshReductionPct <= 0 {
			t.Errorf("bits=%d no reduction", p.Bits)
		}
	}
	// Area grows linearly with width (section 4.7): 32, 48, 64 KB.
	if pts[0].AreaKB != 32 || pts[1].AreaKB != 48 || pts[2].AreaKB != 64 {
		t.Errorf("areas = %v %v %v", pts[0].AreaKB, pts[1].AreaKB, pts[2].AreaKB)
	}
	// Wider counters cost more counter energy per interval.
	if pts[2].CounterEnergyMJ <= pts[0].CounterEnergyMJ {
		t.Errorf("counter energy not increasing with width: %v vs %v",
			pts[2].CounterEnergyMJ, pts[0].CounterEnergyMJ)
	}
	out := FormatCounterWidthStudy(pts)
	if !strings.Contains(out, "87.50") {
		t.Errorf("format output missing optimality: %s", out)
	}
}

func TestStaggerStudy(t *testing.T) {
	pts := StaggerStudy(Conv2GB)
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	var staggered, uniform StaggerPoint
	for _, p := range pts {
		if p.Staggered {
			staggered = p
		} else {
			uniform = p
		}
	}
	// The figure 2(a) hazard: uniform seeding produces full-width bursts,
	// staggering keeps the per-tick pending count at one.
	if staggered.MaxPendingPerTick >= uniform.MaxPendingPerTick {
		t.Errorf("stagger did not reduce per-tick bursts: %d vs %d",
			staggered.MaxPendingPerTick, uniform.MaxPendingPerTick)
	}
	if uniform.MaxPendingPerTick != 8 {
		t.Errorf("uniform seed max pending = %d, want full segment width 8",
			uniform.MaxPendingPerTick)
	}
}

func TestSegmentsStudy(t *testing.T) {
	prof, _ := workload.ByName("fasta")
	pts := SegmentsStudy(nil, prof, []int{4, 8, 16}, fastOpts(false))
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if p.MaxPendingPerTick > p.QueueDepth {
			t.Errorf("segments=%d: pending %d exceeded queue %d",
				p.Segments, p.MaxPendingPerTick, p.QueueDepth)
		}
		if p.RefreshOps == 0 {
			t.Errorf("segments=%d: no refreshes", p.Segments)
		}
	}
	// The refresh count is essentially independent of segmentation (it
	// only spreads the schedule).
	for i := 1; i < len(pts); i++ {
		a, b := float64(pts[0].RefreshOps), float64(pts[i].RefreshOps)
		if b < a*0.95 || b > a*1.05 {
			t.Errorf("segment count changed refresh volume: %v vs %v", a, b)
		}
	}
}

func TestBusOverheadStudy(t *testing.T) {
	prof, _ := workload.ByName("gcc")
	pts := BusOverheadStudy(nil, prof, fastOpts(false))
	var with, without BusOverheadPoint
	for _, p := range pts {
		if p.WithOverhead {
			with = p
		} else {
			without = p
		}
	}
	if with.RefreshEnergyMJ <= without.RefreshEnergyMJ {
		t.Errorf("bus overhead not charged: %v <= %v", with.RefreshEnergyMJ, without.RefreshEnergyMJ)
	}
	if with.RefreshEnergySavingPct >= without.RefreshEnergySavingPct {
		t.Errorf("savings with overhead %.2f%% >= without %.2f%%",
			with.RefreshEnergySavingPct, without.RefreshEnergySavingPct)
	}
	// The paper's point: savings remain significant despite RAS-only
	// overhead.
	if with.RefreshEnergySavingPct <= 0 {
		t.Errorf("no savings with bus overhead: %.2f%%", with.RefreshEnergySavingPct)
	}
}

func TestEDRAMStudy(t *testing.T) {
	pts := EDRAMStudy(nil)
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	ms64, ms4, us64 := pts[0], pts[1], pts[2]
	// Baseline refresh rate scales inversely with the interval.
	if !(us64.BaselineRefreshesPerSec > ms4.BaselineRefreshesPerSec &&
		ms4.BaselineRefreshesPerSec > ms64.BaselineRefreshesPerSec) {
		t.Errorf("baseline rates not ordered: %v", pts)
	}
	// Refresh share of total energy grows as the interval shrinks (the
	// introduction's eDRAM point).
	if !(us64.BaselineRefreshSharePct > ms4.BaselineRefreshSharePct &&
		ms4.BaselineRefreshSharePct > ms64.BaselineRefreshSharePct) {
		t.Errorf("refresh shares not ordered: %v", pts)
	}
	// The 3 ms sweep keeps rows alive at 64 ms and 4 ms intervals...
	if ms64.RefreshReductionPct < 40 || ms4.RefreshReductionPct < 30 {
		t.Errorf("long-interval reductions too small: %v / %v",
			ms64.RefreshReductionPct, ms4.RefreshReductionPct)
	}
	// ...but cannot beat a 64 us deadline: Smart Refresh stops helping.
	if us64.RefreshReductionPct > 5 {
		t.Errorf("64us reduction %v%%: traffic cannot beat that deadline",
			us64.RefreshReductionPct)
	}
	// Energy follows: solid savings at 4 ms, none at 64 us.
	if ms4.TotalSavingPct <= 0 {
		t.Errorf("4ms total saving %v", ms4.TotalSavingPct)
	}
	if us64.TotalSavingPct > 1 {
		t.Errorf("64us total saving %v should be ~0", us64.TotalSavingPct)
	}
}

func TestIdlePowerStudy(t *testing.T) {
	opts := RunOptions{Warmup: 64 * sim.Millisecond, Measure: 192 * sim.Millisecond}
	pts := IdlePowerStudy(nil, opts)
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	byName := map[string]IdlePowerPoint{}
	for _, p := range pts {
		byName[p.Name] = p
	}
	cbr := byName["cbr"]
	smart := byName["smart+disable"]
	sr := byName["cbr+selfrefresh"]
	// Smart with disable matches the baseline within noise (section 4.6:
	// no energy loss); self-refresh beats both by a wide margin.
	if smart.TotalEnergyMJ > cbr.TotalEnergyMJ*1.005 {
		t.Errorf("smart+disable %.3f mJ worse than cbr %.3f mJ", smart.TotalEnergyMJ, cbr.TotalEnergyMJ)
	}
	if sr.TotalEnergyMJ >= 0.5*cbr.TotalEnergyMJ {
		t.Errorf("self-refresh %.3f mJ not well below cbr %.3f mJ", sr.TotalEnergyMJ, cbr.TotalEnergyMJ)
	}
	if sr.RefreshOps >= cbr.RefreshOps/2 {
		t.Errorf("self-refresh elided too few controller refreshes: %d vs %d",
			sr.RefreshOps, cbr.RefreshOps)
	}
}

func TestDisableThresholdStudy(t *testing.T) {
	opts := RunOptions{Warmup: 64 * sim.Millisecond, Measure: 192 * sim.Millisecond}
	// Probe density ~0.5% of rows per interval: disables at the paper's
	// 1% threshold, stays enabled with a very low threshold.
	pts := DisableThresholdStudy(nil, 0.002, [][2]float64{
		{0.01, 0.02},     // paper thresholds
		{0.0001, 0.0002}, // nearly-never-disable
	}, opts)
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	if !pts[0].Disabled {
		t.Error("paper thresholds did not disable on idle probe")
	}
	if pts[1].Disabled {
		t.Error("tiny thresholds disabled on idle probe")
	}
	if pts[0].TotalEnergyMJ > pts[1].TotalEnergyMJ {
		t.Errorf("disabling cost energy on idle: %.3f > %.3f",
			pts[0].TotalEnergyMJ, pts[1].TotalEnergyMJ)
	}
}

// The retention-aware run registers its controller metrics under its own
// policy name, not over the plain Smart Refresh run's rows.
func TestRetentionAwareStudyMetricsPrefix(t *testing.T) {
	prof, _ := workload.ByName("gcc")
	eng := NewEngine(1)
	eng.Metrics = telemetry.NewRegistry()
	RetentionAwareStudy(eng, prof, fastOpts(false))
	var smart, aware bool
	for _, m := range eng.Metrics.Snapshot() {
		smart = smart || strings.HasPrefix(m.Name, "table1-2gb/gcc/smart/")
		aware = aware || strings.HasPrefix(m.Name, "table1-2gb/gcc/smart-retention/")
	}
	if !smart || !aware {
		t.Errorf("metrics prefixes: smart %v, smart-retention %v; want both", smart, aware)
	}
	if n := eng.Metrics.Replaced(); n != 0 {
		t.Errorf("%d metric rows replaced; the three runs must not collide", n)
	}
}

func TestRetentionAwareStudy(t *testing.T) {
	prof, _ := workload.ByName("gcc")
	pts := RetentionAwareStudy(nil, prof, fastOpts(false))
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	byName := map[string]RetentionAwarePoint{}
	for _, p := range pts {
		byName[p.Policy] = p
	}
	cbr, smart, aware := byName["cbr"], byName["smart"], byName["smart-retention"]
	if cbr.RefreshOps == 0 || smart.RefreshOps == 0 || aware.RefreshOps == 0 {
		t.Fatalf("missing runs: %+v", pts)
	}
	// Ordering: retention-aware < smart < baseline in refresh volume and
	// refresh energy.
	if !(aware.RefreshOps < smart.RefreshOps && smart.RefreshOps < cbr.RefreshOps) {
		t.Errorf("refresh ordering wrong: cbr=%d smart=%d aware=%d",
			cbr.RefreshOps, smart.RefreshOps, aware.RefreshOps)
	}
	if !(aware.RefreshEnergyMJ < smart.RefreshEnergyMJ) {
		t.Errorf("energy ordering wrong: smart=%v aware=%v",
			smart.RefreshEnergyMJ, aware.RefreshEnergyMJ)
	}
	if aware.RefreshReductionPct <= smart.RefreshReductionPct {
		t.Errorf("aware reduction %.1f%% <= smart %.1f%%",
			aware.RefreshReductionPct, smart.RefreshReductionPct)
	}
}

func TestDisableStudy(t *testing.T) {
	opts := RunOptions{Warmup: 64 * sim.Millisecond, Measure: 256 * sim.Millisecond}
	res := DisableStudy(nil, opts)
	if !res.DisableSwitched {
		t.Error("idle workload did not trip the self-disable")
	}
	// Section 4.6: with the circuitry on, no (meaningful) energy loss
	// versus the CBR baseline.
	if res.EnergyLossPctWithDisable > 0.5 {
		t.Errorf("idle energy loss with disable = %.3f%%", res.EnergyLossPctWithDisable)
	}
	// Without the circuitry, Smart pays counters + RAS-only bus on an
	// idle module: strictly more energy than with it.
	with := float64(res.WithDisable.Energy.Total())
	without := float64(res.WithoutDisable.Energy.Total())
	if without <= with {
		t.Errorf("disable circuitry did not help: with=%v without=%v", with, without)
	}
	// In disabled mode refreshes are CBR (no explicit rows).
	if res.WithDisable.Module.RefreshCBROps == 0 {
		t.Error("disabled mode issued no CBR refreshes")
	}
}
