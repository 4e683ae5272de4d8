package experiment

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"smartrefresh/internal/cache"
	"smartrefresh/internal/config"
	"smartrefresh/internal/sim"
	"smartrefresh/internal/trace"
	"smartrefresh/internal/workload"
)

// fastOpts shrinks the measured window so tests stay quick while still
// spanning multiple refresh intervals.
func fastOpts(stacked bool) RunOptions {
	return RunOptions{
		Warmup:  64 * sim.Millisecond,
		Measure: 128 * sim.Millisecond,
		Stacked: stacked,
	}
}

func TestPolicyKindString(t *testing.T) {
	names := map[PolicyKind]string{
		PolicyCBR: "cbr", PolicySmart: "smart", PolicyBurst: "burst",
		PolicyNone: "none", PolicyOracle: "oracle",
		PolicyDARP: "darp", PolicySARP: "sarp",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
	if PolicyKind(99).String() == "" {
		t.Error("unknown kind should render")
	}
}

func TestConfigKindDRAM(t *testing.T) {
	for _, k := range []ConfigKind{Conv2GB, Conv4GB, Stacked3D64, Stacked3D32} {
		cfg := k.DRAM()
		if err := cfg.Validate(); err != nil {
			t.Errorf("%v preset invalid: %v", k, err)
		}
	}
	if !Stacked3D64.Stacked() || Conv2GB.Stacked() {
		t.Error("Stacked() classification wrong")
	}
}

func TestRunBaselineRateMatchesPreset(t *testing.T) {
	prof, _ := workload.ByName("gcc")
	res := Run(Conv2GB.DRAM(), prof, PolicyCBR, fastOpts(false))
	want := Conv2GB.DRAM().BaselineRefreshesPerSecond()
	got := res.RefreshesPerSecond()
	if math.Abs(got-want)/want > 0.01 {
		t.Errorf("baseline refreshes/s = %v, want ~%v", got, want)
	}
}

func TestRunPairHitsCalibration(t *testing.T) {
	// The reduction must land on the profile's calibrated coverage: this
	// is the Figure 6 per-benchmark reproduction in miniature.
	for _, name := range []string{"fasta", "radix"} {
		prof, _ := workload.ByName(name)
		pm := RunPair(Conv2GB.DRAM(), prof, fastOpts(false))
		want := prof.MainCoverage * 100
		if math.Abs(pm.RefreshReductionPct-want) > 3 {
			t.Errorf("%s: reduction %.2f%%, calibrated %.2f%%", name, pm.RefreshReductionPct, want)
		}
		if pm.RefreshEnergySavingPct <= 0 {
			t.Errorf("%s: refresh energy saving %.2f%% not positive", name, pm.RefreshEnergySavingPct)
		}
		if pm.TotalEnergySavingPct <= 0 {
			t.Errorf("%s: total energy saving %.2f%% not positive", name, pm.TotalEnergySavingPct)
		}
	}
}

func TestRun4GBHalvesReduction(t *testing.T) {
	// The same stream on the 4 GB module (double the banks/rows) must
	// show roughly half the relative reduction — the Figure 9 effect.
	prof, _ := workload.ByName("perl")
	pm2 := RunPair(Conv2GB.DRAM(), prof, fastOpts(false))
	pm4 := RunPair(Conv4GB.DRAM(), prof, fastOpts(false))
	ratio := pm4.RefreshReductionPct / pm2.RefreshReductionPct
	if ratio < 0.4 || ratio > 0.6 {
		t.Errorf("4GB/2GB reduction ratio = %.2f, want ~0.5 (%.1f%% vs %.1f%%)",
			ratio, pm4.RefreshReductionPct, pm2.RefreshReductionPct)
	}
	// And the baseline rate doubles.
	if math.Abs(pm4.BaselineRefreshesPerSec/pm2.BaselineRefreshesPerSec-2) > 0.02 {
		t.Errorf("4GB baseline %.0f not double 2GB %.0f",
			pm4.BaselineRefreshesPerSec, pm2.BaselineRefreshesPerSec)
	}
}

func TestRunStacked32msBaselineDoubles(t *testing.T) {
	prof, _ := workload.ByName("mummer")
	pm64 := RunPair(Stacked3D64.DRAM(), prof, fastOpts(true))
	opts32 := RunOptions{Warmup: 32 * sim.Millisecond, Measure: 96 * sim.Millisecond, Stacked: true}
	pm32 := RunPair(Stacked3D32.DRAM(), prof, opts32)
	if math.Abs(pm32.BaselineRefreshesPerSec/pm64.BaselineRefreshesPerSec-2) > 0.05 {
		t.Errorf("32ms baseline %.0f not double 64ms %.0f",
			pm32.BaselineRefreshesPerSec, pm64.BaselineRefreshesPerSec)
	}
	// Figure 15 vs 12: the 32 ms reduction is a fraction of the 64 ms one
	// (the slow-region rows stop being saved).
	ratio := pm32.RefreshReductionPct / pm64.RefreshReductionPct
	if ratio < 0.55 || ratio > 0.9 {
		t.Errorf("32/64 reduction ratio = %.2f (%.1f%% vs %.1f%%)",
			ratio, pm32.RefreshReductionPct, pm64.RefreshReductionPct)
	}
}

func TestRunRetentionHolds(t *testing.T) {
	prof, _ := workload.ByName("fasta")
	opts := fastOpts(false)
	opts.CheckRetention = true
	for _, kind := range []PolicyKind{PolicyCBR, PolicySmart, PolicyOracle} {
		res := Run(Conv2GB.DRAM(), prof, kind, opts)
		if res.RetentionErr != nil {
			t.Errorf("%v: %v", kind, res.RetentionErr)
		}
	}
	// The per-bank pair legitimately defers refreshes within the JEDEC
	// credit window; RetentionSlack must cover that window or the checker
	// flags a by-design postponement. gcc's row bursts drive DARP to the
	// cap, which is exactly the case that needs the slack.
	gcc, _ := workload.ByName("gcc")
	for _, kind := range []PolicyKind{PolicyDARP, PolicySARP} {
		res := Run(Conv2GB.DRAM(), gcc, kind, opts)
		if res.RetentionErr != nil {
			t.Errorf("%v: %v", kind, res.RetentionErr)
		}
	}
}

func TestRetentionSlackPerPolicy(t *testing.T) {
	cfg := Conv2GB.DRAM()
	base := PolicyCBR.Entry().Slack(cfg, false)
	if base <= 0 {
		t.Fatalf("base slack = %v", base)
	}
	for _, kind := range []PolicyKind{PolicySmart, PolicyBurst, PolicyDARP, PolicySARP} {
		if s := kind.Entry().Slack(cfg, false); s <= base {
			t.Errorf("%v slack %v not above base %v", kind, s, base)
		}
	}
	withSR := PolicyCBR.Entry().Slack(cfg, true)
	if withSR <= base {
		t.Errorf("self-refresh transition slack %v not above base %v", withSR, base)
	}
}

func TestSuiteFiguresSubset(t *testing.T) {
	s := NewSuite()
	s.Benchmarks = []string{"fasta", "gcc"}
	s.Opts = fastOpts(false)
	fig6, err := s.FigureByID("fig6")
	if err != nil {
		t.Fatal(err)
	}
	if fig6.Series.Len() != 2 {
		t.Fatalf("fig6 series has %d points", fig6.Series.Len())
	}
	if fig6.Baseline != 2048000 {
		t.Errorf("fig6 baseline = %v", fig6.Baseline)
	}
	if fig6.PaperGMean != 691435 {
		t.Errorf("fig6 paper gmean = %v", fig6.PaperGMean)
	}
	v, ok := fig6.Series.Get("fasta")
	if !ok || v <= 0 || v >= fig6.Baseline {
		t.Errorf("fasta refreshes/s = %v", v)
	}
	// Figures 7 and 8 reuse the same sweep (memoised): no new runs, and
	// savings must be positive for these benchmarks.
	fig7, err := s.FigureByID("fig7")
	if err != nil {
		t.Fatal(err)
	}
	fig8, err := s.FigureByID("fig8")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []string{"fasta", "gcc"} {
		if v, _ := fig7.Series.Get(b); v <= 0 {
			t.Errorf("fig7 %s = %v", b, v)
		}
		if v, _ := fig8.Series.Get(b); v <= 0 {
			t.Errorf("fig8 %s = %v", b, v)
		}
	}
	// Refresh savings exceed total savings (total includes non-refresh
	// energy).
	f7, _ := fig7.Series.Get("gcc")
	f8, _ := fig8.Series.Get("gcc")
	if f8 >= f7 {
		t.Errorf("total saving %v >= refresh saving %v", f8, f7)
	}
}

func TestSuite3DFigures(t *testing.T) {
	s := NewSuite()
	s.Benchmarks = []string{"fasta", "mummer"}
	s.Opts = RunOptions{Warmup: 64 * sim.Millisecond, Measure: 128 * sim.Millisecond}
	fig12, err := s.FigureByID("fig12")
	if err != nil {
		t.Fatal(err)
	}
	if fig12.Baseline != 1024000 {
		t.Errorf("fig12 baseline = %v", fig12.Baseline)
	}
	fig15, err := s.FigureByID("fig15")
	if err != nil {
		t.Fatal(err)
	}
	if fig15.Baseline != 2048000 {
		t.Errorf("fig15 baseline = %v", fig15.Baseline)
	}
	// Per-benchmark smart rates sit below their baselines, and mummer
	// (coverage 0.42) reduces far more than fasta (0.04).
	for _, fig := range []Figure{fig12, fig15} {
		vF, _ := fig.Series.Get("fasta")
		vM, _ := fig.Series.Get("mummer")
		if vF >= fig.Baseline || vM >= fig.Baseline {
			t.Errorf("%s: smart rates not below baseline (%v, %v)", fig.ID, vF, vM)
		}
		if vM >= vF {
			t.Errorf("%s: mummer %v should refresh less than fasta %v", fig.ID, vM, vF)
		}
	}
	// Figures 13/14 and 16/17 reuse the same sweeps.
	for _, id := range []string{"fig13", "fig14", "fig16", "fig17"} {
		f, err := s.FigureByID(id)
		if err != nil {
			t.Fatal(err)
		}
		if v, ok := f.Series.Get("mummer"); !ok || v <= 0 {
			t.Errorf("%s: mummer saving = %v", f.ID, v)
		}
	}
	// Figure 18 exists and is bounded (below 1% per the paper).
	fig18, err := s.FigureByID("fig18")
	if err != nil {
		t.Fatal(err)
	}
	for _, label := range fig18.Series.Labels() {
		v, _ := fig18.Series.Get(label)
		if v > 1 {
			t.Errorf("fig18 %s = %v%%, paper says < 1%%", label, v)
		}
	}
}

func TestSuiteFigureByID(t *testing.T) {
	s := NewSuite()
	s.Benchmarks = []string{"fasta"}
	s.Opts = fastOpts(false)
	if _, err := s.FigureByID("fig99"); err == nil {
		t.Error("unknown figure accepted")
	}
	f, err := s.FigureByID("fig6")
	if err != nil {
		t.Fatal(err)
	}
	if f.ID != "fig6" {
		t.Errorf("got %s", f.ID)
	}
	if len(s.FigureIDs()) != 13 {
		t.Errorf("FigureIDs = %v", s.FigureIDs())
	}
}

func TestSuiteProgressCallback(t *testing.T) {
	s := NewSuite()
	s.Benchmarks = []string{"fasta"}
	s.Opts = fastOpts(false)
	var lines []string
	s.Progress = func(l string) { lines = append(lines, l) }
	if _, err := s.Sweep(Conv2GB); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 1 || !strings.Contains(lines[0], "fasta") {
		t.Errorf("progress lines = %v", lines)
	}
}

// The measured window's per-bank refresh count must be derived from the
// windowed module stats like every other refresh field, on the
// monolithic and the vaulted path alike; counting the warmup too would
// inflate DARP/SARP's REFpb totals.
func TestRefreshPerBankWindowed(t *testing.T) {
	prof, _ := workload.ByName("gcc")
	cases := []struct {
		name string
		cfg  config.DRAM
		opts RunOptions
	}{
		{"monolithic", Conv2GB.DRAM(), RunOptions{Warmup: 16 * sim.Millisecond, Measure: 32 * sim.Millisecond}},
		{"vaulted", vaultTestCfg(), vaultTestOpts(2)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := Run(tc.cfg, prof, PolicyDARP, tc.opts)
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			r := res.Results
			if r.Module.RefreshPerBankOps == 0 {
				t.Fatal("darp issued no per-bank refreshes in the window")
			}
			if r.RefreshPerBank != r.Module.RefreshPerBankOps {
				t.Errorf("RefreshPerBank = %d, windowed module REFpb = %d", r.RefreshPerBank, r.Module.RefreshPerBankOps)
			}
			for v, vr := range res.Vaults {
				if vr.RefreshPerBank != vr.Module.RefreshPerBankOps {
					t.Errorf("vault %d: RefreshPerBank = %d, windowed module REFpb = %d",
						v, vr.RefreshPerBank, vr.Module.RefreshPerBankOps)
				}
			}
		})
	}
}

// Run reports a job it could not build through RunResult.Err instead of
// a zero result that looks like a measurement: the vaulted presets
// reject the retention-map policies, and a configuration Validate
// rejects fails with Validate's error before Smart's constructor, which
// would panic on a segment count that does not divide the rows, runs.
func TestRunReportsConstructionError(t *testing.T) {
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	res := Run(config.HMC8Vault(), prof, PolicyRAIDR, fastOpts(false))
	if res.Err == nil {
		t.Fatalf("Run(HMC8Vault, gcc, raidr) = %+v with nil Err", res)
	}
	cfg := config.Table1_2GB()
	cfg.Smart.Segments = 3
	res = Run(cfg, prof, PolicySmart, fastOpts(false))
	if res.Err == nil || !strings.Contains(res.Err.Error(), "config: 131072 rows not divisible by 3 segments") {
		t.Fatalf("Run with 3 segments: Err %v, want Validate's segment error", res.Err)
	}
}

// A negative warmup or measured window is rejected on every entry
// point — Run, Suite.Sweep and Engine.RunJobs — rather than measuring a
// shorter window than the one labelled.
func TestNegativeWindowRejected(t *testing.T) {
	prof, err := workload.ByName("fasta")
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []RunOptions{
		{Measure: -5 * sim.Millisecond},
		{Warmup: -3 * sim.Millisecond, Measure: 16 * sim.Millisecond},
	} {
		if res := Run(config.Table1_2GB(), prof, PolicyCBR, opts); res.Err == nil {
			t.Errorf("Run %+v: nil Err", opts)
		}
		eng := NewEngine(1)
		if _, err := (&Suite{Benchmarks: []string{"fasta"}, Opts: opts, Engine: eng}).Sweep(Conv2GB); err == nil {
			t.Errorf("Sweep %+v: nil error", opts)
		}
		job := Job{Cfg: config.Table1_2GB(), Prof: prof, Policy: PolicyCBR, Opts: opts}
		if res := NewEngine(1).RunJobs([]Job{job})[0]; res.Err == nil {
			t.Errorf("Engine.RunJobs %+v: nil Err", opts)
		}
	}
}

// A stacked job whose stream carries an address the 3D cache's tags
// cannot hold fails with cache.ErrAddrRange naming the record, instead of
// aliasing it onto another line; one line below the limit runs clean.
func TestStackedJobRejectsAddressBeyondTagRange(t *testing.T) {
	const k = 3
	limit := cache.New(config.Table2_3DCache()).AddrLimit()
	job := func(addr uint64) Job {
		return Job{
			Cfg:    config.Table2_3D32(),
			Prof:   workload.Idle(),
			Policy: PolicySmart,
			Opts:   RunOptions{Warmup: sim.Microsecond, Measure: sim.Millisecond, Stacked: true},
			MakeSource: func() trace.Source {
				recs := make([]trace.Record, 6)
				for i := range recs {
					recs[i] = trace.Record{Time: sim.Time(i) * 100 * sim.Nanosecond, Addr: uint64(i) * 64}
				}
				recs[k].Addr = addr
				return trace.NewSliceSource(recs)
			},
		}
	}
	res := NewEngine(1).RunJobs([]Job{job(limit), job(limit - 64)})
	if err := res[0].Err; !errors.Is(err, cache.ErrAddrRange) || !strings.Contains(err.Error(), fmt.Sprintf("record %d ", k)) {
		t.Errorf("address %#x: err = %v, want cache.ErrAddrRange at record %d", limit, err, k)
	}
	if err := res[1].Err; err != nil {
		t.Errorf("address %#x: err = %v, want a clean run", limit-64, err)
	}
}
