// Benchmarks regenerating the paper's tables and figures. Each
// Benchmark{Table,Fig}* target reproduces one table or figure of the
// evaluation; figure benches run a representative cross-suite benchmark
// subset with shortened measurement windows so `go test -bench=.` stays
// tractable — cmd/experiments runs the full 32-benchmark sweep and prints
// the complete series.
//
// Reported custom metrics:
//
//	gmean       - the figure's GMEAN over the benched subset
//	paper_gmean - the paper's published GMEAN (full benchmark set)
package smartrefresh_test

import (
	"testing"

	"smartrefresh"
	"smartrefresh/internal/cache"
	"smartrefresh/internal/config"
	"smartrefresh/internal/core"
	"smartrefresh/internal/dram"
	"smartrefresh/internal/experiment"
	"smartrefresh/internal/memctrl"
	"smartrefresh/internal/power"
	"smartrefresh/internal/sim"
	"smartrefresh/internal/workload"
)

// benchSubset crosses all four suites while keeping bench time bounded.
var benchSubset = []string{"fasta", "gcc", "radix", "perl_twolf"}

func benchOpts() smartrefresh.RunOptions {
	return smartrefresh.RunOptions{
		Warmup:  64 * smartrefresh.Millisecond,
		Measure: 128 * smartrefresh.Millisecond,
	}
}

func benchSuite() *smartrefresh.Suite {
	s := smartrefresh.NewSuite()
	s.Benchmarks = benchSubset
	s.Opts = benchOpts()
	return s
}

func benchFigure(b *testing.B, id string) {
	b.ReportAllocs()
	var fig smartrefresh.Figure
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		var err error
		fig, err = s.FigureByID(id)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(fig.MeasuredGMean, "gmean")
	b.ReportMetric(fig.PaperGMean, "paper_gmean")
}

// Table 1: the conventional module configurations and their baseline
// refresh rates (2,048,000/s and 4,096,000/s).
func BenchmarkTable1Config(b *testing.B) {
	var rate2, rate4 float64
	for i := 0; i < b.N; i++ {
		c2 := smartrefresh.Table1_2GB()
		c4 := smartrefresh.Table1_4GB()
		if err := c2.Validate(); err != nil {
			b.Fatal(err)
		}
		if err := c4.Validate(); err != nil {
			b.Fatal(err)
		}
		rate2 = c2.BaselineRefreshesPerSecond()
		rate4 = c4.BaselineRefreshesPerSecond()
	}
	b.ReportMetric(rate2, "2GB_refr/s")
	b.ReportMetric(rate4, "4GB_refr/s")
}

// Table 2: the 3D DRAM cache configuration at both refresh intervals.
func BenchmarkTable2Config(b *testing.B) {
	var rate64, rate32 float64
	for i := 0; i < b.N; i++ {
		c64 := smartrefresh.Table2_3D64()
		c32 := smartrefresh.Table2_3D32()
		if err := c64.Validate(); err != nil {
			b.Fatal(err)
		}
		if err := c32.Validate(); err != nil {
			b.Fatal(err)
		}
		rate64 = c64.BaselineRefreshesPerSecond()
		rate32 = c32.BaselineRefreshesPerSecond()
	}
	b.ReportMetric(rate64, "64ms_refr/s")
	b.ReportMetric(rate32, "32ms_refr/s")
}

// Table 3: the bus-energy parameter set and the per-refresh RAS-only
// address cost it implies.
func BenchmarkTable3BusEnergy(b *testing.B) {
	var pj float64
	for i := 0; i < b.N; i++ {
		bus := power.Table3Bus(2)
		pj = float64(bus.EnergyPerAccess(16))
	}
	b.ReportMetric(pj, "pJ/refresh")
}

// Figures 6-8: conventional 2 GB DRAM.
func BenchmarkFig6RefreshesPerSec2GB(b *testing.B) { benchFigure(b, "fig6") }
func BenchmarkFig7RefreshEnergy2GB(b *testing.B)   { benchFigure(b, "fig7") }
func BenchmarkFig8TotalEnergy2GB(b *testing.B)     { benchFigure(b, "fig8") }

// Figures 9-11: conventional 4 GB DRAM.
func BenchmarkFig9RefreshesPerSec4GB(b *testing.B) { benchFigure(b, "fig9") }
func BenchmarkFig10RefreshEnergy4GB(b *testing.B)  { benchFigure(b, "fig10") }
func BenchmarkFig11TotalEnergy4GB(b *testing.B)    { benchFigure(b, "fig11") }

// Figures 12-14: 64 MB 3D DRAM cache, 64 ms refresh.
func BenchmarkFig12RefreshesPerSec3D64ms(b *testing.B) { benchFigure(b, "fig12") }
func BenchmarkFig13RefreshEnergy3D64ms(b *testing.B)   { benchFigure(b, "fig13") }
func BenchmarkFig14TotalEnergy3D64ms(b *testing.B)     { benchFigure(b, "fig14") }

// Figures 15-17: 64 MB 3D DRAM cache, 32 ms refresh.
func BenchmarkFig15RefreshesPerSec3D32ms(b *testing.B) { benchFigure(b, "fig15") }
func BenchmarkFig16RefreshEnergy3D32ms(b *testing.B)   { benchFigure(b, "fig16") }
func BenchmarkFig17TotalEnergy3D32ms(b *testing.B)     { benchFigure(b, "fig17") }

// Figure 18: performance improvement, 3D cache at 32 ms.
func BenchmarkFig18Performance3D32ms(b *testing.B) { benchFigure(b, "fig18") }

// Section 4.4: counter-width optimality sweep (also the counter-width
// ablation called out in DESIGN.md).
func BenchmarkOptimalityCounterWidth(b *testing.B) {
	prof, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	var pts []experiment.CounterWidthPoint
	for i := 0; i < b.N; i++ {
		pts, err = experiment.CounterWidthStudy(nil, prof, []int{2, 3, 4}, experiment.RunOptions{
			Warmup:  64 * smartrefresh.Millisecond,
			Measure: 128 * smartrefresh.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[1].MeasuredOptimalityPct, "optimality3bit_%")
	b.ReportMetric(pts[1].OptimalityPct, "paper_optimality_%")
}

// Ablation: staggered vs uniform counter seeding (figure 2 burst hazard).
func BenchmarkAblationStagger(b *testing.B) {
	var pts []experiment.StaggerPoint
	for i := 0; i < b.N; i++ {
		pts = experiment.StaggerStudy(experiment.Conv2GB)
	}
	b.ReportMetric(float64(pts[0].MaxPendingPerTick), "staggered_burst")
	b.ReportMetric(float64(pts[1].MaxPendingPerTick), "uniform_burst")
}

// Ablation: pending refresh queue depth / segment count (section 5).
func BenchmarkAblationQueueDepth(b *testing.B) {
	prof, err := workload.ByName("fasta")
	if err != nil {
		b.Fatal(err)
	}
	var pts []experiment.SegmentsPoint
	for i := 0; i < b.N; i++ {
		pts, err = experiment.SegmentsStudy(nil, prof, []int{4, 8, 16}, experiment.RunOptions{
			Warmup:  64 * smartrefresh.Millisecond,
			Measure: 64 * smartrefresh.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(pts[1].MaxPendingPerTick), "maxpending_8seg")
}

// Ablation: RAS-only address-bus overhead on vs off (section 3).
func BenchmarkAblationBusOverhead(b *testing.B) {
	prof, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	var pts []experiment.BusOverheadPoint
	for i := 0; i < b.N; i++ {
		pts, err = experiment.BusOverheadStudy(nil, prof, experiment.RunOptions{
			Warmup:  64 * smartrefresh.Millisecond,
			Measure: 64 * smartrefresh.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[0].RefreshEnergySavingPct, "saving_with_bus_%")
	b.ReportMetric(pts[1].RefreshEnergySavingPct, "saving_no_bus_%")
}

// Ablation: self-disable threshold sweep (section 4.6).
func BenchmarkAblationDisableThresholds(b *testing.B) {
	var pts []experiment.ThresholdPoint
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = experiment.DisableThresholdStudy(nil, 0.002, [][2]float64{
			{0.01, 0.02}, {0.005, 0.01}, {0.0001, 0.0002},
		}, experiment.RunOptions{
			Warmup:  64 * smartrefresh.Millisecond,
			Measure: 128 * smartrefresh.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[0].TotalEnergyMJ, "paperthresh_mJ")
	b.ReportMetric(pts[2].TotalEnergyMJ, "nodisable_mJ")
}

// Extension: retention-aware Smart Refresh (RAPID/VRA combination the
// related work calls orthogonal).
func BenchmarkAblationRetentionAware(b *testing.B) {
	prof, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	var pts []experiment.RetentionAwarePoint
	for i := 0; i < b.N; i++ {
		pts, err = experiment.RetentionAwareStudy(nil, prof, experiment.RunOptions{
			Warmup:  64 * smartrefresh.Millisecond,
			Measure: 128 * smartrefresh.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[1].RefreshReductionPct, "smart_reduction_%")
	b.ReportMetric(pts[2].RefreshReductionPct, "aware_reduction_%")
}

// Section 4.6: idle-OS workload with the self-disable circuitry.
func BenchmarkDisableIdleWorkload(b *testing.B) {
	var res experiment.DisableStudyResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiment.DisableStudy(nil, experiment.RunOptions{
			Warmup:  64 * smartrefresh.Millisecond,
			Measure: 192 * smartrefresh.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.EnergyLossPctWithDisable, "energy_loss_%")
}

// Extension: embedded-DRAM refresh-interval sweep (the introduction's
// NEC 4 ms / IBM 64 us observation).
func BenchmarkEDRAMIntervalSweep(b *testing.B) {
	var pts []experiment.EDRAMPoint
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = experiment.EDRAMStudy(nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[1].BaselineRefreshSharePct, "4ms_refresh_share_%")
	b.ReportMetric(pts[1].TotalSavingPct, "4ms_total_saving_%")
}

// Engine scaling: the same four-benchmark 2 GB sweep executed serially
// and on the default worker pool. The ratio is the parallel speedup
// recorded in EXPERIMENTS.md.

func benchSweep(b *testing.B, workers int) {
	b.ReportAllocs()
	var pairs []smartrefresh.PairMetrics
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		s.Engine = smartrefresh.NewEngine(workers)
		var err error
		pairs, err = s.Sweep(smartrefresh.Conv2GB)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(pairs) != len(benchSubset) {
		b.Fatalf("sweep returned %d pairs", len(pairs))
	}
	b.ReportMetric(pairs[0].RefreshReductionPct, "reduction_%")
}

func BenchmarkSuiteSerial(b *testing.B)   { benchSweep(b, 1) }
func BenchmarkSuiteParallel(b *testing.B) { benchSweep(b, 0) }

// Micro-benchmarks of the hot paths.

func BenchmarkSmartPolicyAdvance(b *testing.B) {
	cfg := smartrefresh.Table1_2GB()
	cfg.Smart.SelfDisable = false
	p := smartrefresh.NewSmartPolicy(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	var t smartrefresh.Time
	var cmds []smartrefresh.RefreshCommand
	step := cfg.RefreshInterval() / smartrefresh.Duration(cfg.Geometry.TotalRows())
	for i := 0; i < b.N; i++ {
		t += step
		cmds = p.Advance(t, cmds[:0])
	}
	_ = cmds
}

func BenchmarkDARPPolicyAdvance(b *testing.B) {
	cfg := smartrefresh.Table1_2GB()
	p := smartrefresh.NewDARPPolicy(cfg, smartrefresh.DefaultPerBankConfig())
	b.ReportAllocs()
	b.ResetTimer()
	var t smartrefresh.Time
	var cmds []smartrefresh.RefreshCommand
	step := cfg.RefreshInterval() / smartrefresh.Duration(cfg.Geometry.TotalRows())
	for i := 0; i < b.N; i++ {
		t += step
		cmds = p.Advance(t, cmds[:0])
	}
	_ = cmds
}

func BenchmarkSARPPolicyAdvance(b *testing.B) {
	cfg := smartrefresh.Table1_2GB()
	p := smartrefresh.NewSARPPolicy(cfg, smartrefresh.DefaultPerBankConfig())
	b.ReportAllocs()
	b.ResetTimer()
	var t smartrefresh.Time
	var cmds []smartrefresh.RefreshCommand
	step := cfg.RefreshInterval() / smartrefresh.Duration(cfg.Geometry.TotalRows())
	for i := 0; i < b.N; i++ {
		t += step
		cmds = p.Advance(t, cmds[:0])
	}
	_ = cmds
}

func BenchmarkRAIDRPolicyAdvance(b *testing.B) {
	cfg := smartrefresh.Table1_2GB()
	rmap := smartrefresh.NewRetentionMap(cfg.Geometry, smartrefresh.DefaultRetentionClasses(), 1)
	p := smartrefresh.NewRAIDRPolicy(cfg, smartrefresh.DefaultRAIDRConfig(), rmap)
	b.ReportAllocs()
	b.ResetTimer()
	var t smartrefresh.Time
	var cmds []smartrefresh.RefreshCommand
	step := cfg.RefreshInterval() / smartrefresh.Duration(cfg.Geometry.TotalRows())
	for i := 0; i < b.N; i++ {
		t += step
		cmds = p.Advance(t, cmds[:0])
	}
	_ = cmds
}

func BenchmarkControllerSubmit(b *testing.B) {
	cfg := smartrefresh.Table1_2GB()
	ctl, err := smartrefresh.NewController(cfg, smartrefresh.NewSmartPolicy(cfg),
		smartrefresh.ControllerOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var t smartrefresh.Time
	for i := 0; i < b.N; i++ {
		t += 200 * smartrefresh.Nanosecond
		ctl.Submit(smartrefresh.Request{Time: t, Addr: uint64(i) * 16384})
	}
}

// moduleAccessMix returns the Table 1 2 GB module and a step that feeds
// it one access of a seeded demand mix: a random bank and one of three
// rows, so row hits and conflicts are both common, with one step in
// eight first precharging the bank (as an idle close would) so the
// access is a row miss, and one in four a write. Time advances 0–33 ns
// per step, so requests arrive both before and after their bank frees.
func moduleAccessMix() (*dram.Module, func()) {
	cfg := config.Table1_2GB()
	g := cfg.Geometry
	m := dram.NewModule(g, cfg.Timing)
	rng := sim.NewRNG(1)
	var now sim.Time
	var res dram.AccessResult
	step := func() {
		r := rng.Uint64()
		now += sim.Time(r & 0x7fff)
		bank := int(r>>16) % (g.Ranks * g.Banks)
		row := int(r>>24) % 3
		pre, write := (r>>28)&7 == 0, (r>>31)&3 == 0
		if pre {
			m.Precharge(now, bank)
		}
		m.Access(&res, now, bank, row, write)
	}
	return m, step
}

// BenchmarkModuleAccess measures one Module.Access of the seeded
// hit/miss/conflict mix, the one demand-access path Controller.Submit
// runs: the bounds check, the open-page decision, the command timing on
// the clock-rounded delay table, and the bank/rank/bus bookkeeping.
func BenchmarkModuleAccess(b *testing.B) {
	m, step := moduleAccessMix()
	for i := 0; i < 4096; i++ {
		step()
	}
	before := m.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.StopTimer()
	st := m.Stats().Sub(before)
	b.ReportMetric(float64(st.RowHits)/float64(st.Accesses), "hit_rate")
	b.ReportMetric(float64(st.RowConflicts)/float64(st.Accesses), "conflict_rate")
}

// idleCloseDrain returns a Table 1 2 GB controller under Smart Refresh
// and a step that submits one demand, round-robin over every bank, after
// a seeded gap of 0-600 ns. A bank is revisited after eight gaps, about
// 2.4 us on average, so its 2 us page-close timeout falls inside the
// spread: most demands first drain another bank's idle close, which
// clears that bank's page-close deadline, while the rest find their page
// still open.
func idleCloseDrain() (*memctrl.Controller, func()) {
	cfg := config.Table1_2GB()
	ctl := memctrl.MustNew(cfg, core.NewSmart(cfg.Geometry, cfg.RefreshInterval(), cfg.Smart), memctrl.Options{})
	g := cfg.Geometry
	banks := g.TotalBanks()
	addrs := make([]uint64, banks)
	for flat := range addrs {
		addrs[flat] = ctl.Mapper().Unmap(flat, flat)
	}
	rng := sim.NewRNG(1)
	var now sim.Time
	var i int
	step := func() {
		now += sim.Time(rng.Uint64n(600)) * sim.Nanosecond
		ctl.Submit(memctrl.Request{Time: now, Addr: addrs[i]})
		if i++; i == banks {
			i = 0
		}
	}
	return ctl, step
}

// BenchmarkIdleCloseDrain measures one demand on the conventional
// module's open-page path where page-close timeouts dominate: the drain
// of the idle closes due before it, the page-close index updates of the
// closes and the demand, and the access itself.
func BenchmarkIdleCloseDrain(b *testing.B) {
	ctl, step := idleCloseDrain()
	for i := 0; i < 4096; i++ {
		step()
	}
	before := ctl.Module().Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.StopTimer()
	st := ctl.Module().Stats().Sub(before)
	b.ReportMetric(float64(st.RowMisses)/float64(st.Accesses), "miss_rate")
}

// refreshDispatch returns a Table 1 2 GB controller under CBR and a step
// that lets it idle for one CBR tick period: with no demand, each step
// drains about one refresh tick through Controller.AdvanceTo.
func refreshDispatch() (*smartrefresh.Controller, func()) {
	cfg := smartrefresh.Table1_2GB()
	return idleDispatch(cfg, smartrefresh.NewCBRPolicy(cfg))
}

// smartRefreshDispatch is refreshDispatch under Smart Refresh, the
// RAS-only twin: with the self-disable off (it would hand the idle module
// to CBR after one window), every row's counter expires once per
// interval, so each step drains about one RAS-only refresh.
func smartRefreshDispatch() (*smartrefresh.Controller, func()) {
	cfg := smartrefresh.Table1_2GB()
	cfg.Smart.SelfDisable = false
	return idleDispatch(cfg, smartrefresh.NewSmartPolicy(cfg))
}

// idleDispatch returns a controller for cfg under policy and a step that
// lets it idle for one CBR tick period.
func idleDispatch(cfg smartrefresh.Config, policy smartrefresh.Policy) (*smartrefresh.Controller, func()) {
	ctl, err := smartrefresh.NewController(cfg, policy, smartrefresh.ControllerOptions{})
	if err != nil {
		panic(err)
	}
	period := cfg.RefreshInterval() / smartrefresh.Duration(cfg.Geometry.TotalRows())
	var now smartrefresh.Time
	step := func() {
		now += period
		ctl.AdvanceTo(now)
	}
	return ctl, step
}

// BenchmarkRefreshDispatch measures one idle CBR tick through the
// controller: the event drain, the policy's Advance and the module
// refresh with its restore fan-out.
func BenchmarkRefreshDispatch(b *testing.B) {
	benchDispatch(b, refreshDispatch)
}

// BenchmarkSmartRefreshDispatch measures one idle tick period under
// Smart Refresh through the controller: the event drain, the counter
// ticks and the RAS-only module refreshes with their restore fan-out.
func BenchmarkSmartRefreshDispatch(b *testing.B) {
	benchDispatch(b, smartRefreshDispatch)
}

// benchDispatch runs an idle-dispatch step b.N times after a warmup and
// reports the refreshes per step.
func benchDispatch(b *testing.B, setup func() (*smartrefresh.Controller, func())) {
	ctl, step := setup()
	for i := 0; i < 4096; i++ {
		step()
	}
	before := ctl.Module().Stats().RefreshOps
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.StopTimer()
	b.ReportMetric(float64(ctl.Module().Stats().RefreshOps-before)/float64(b.N), "refresh/op")
}

// BenchmarkMapperMap measures one physical-address decode through the
// Table 1 2 GB mapper, the one decode Controller.Submit runs: two
// shift-and-mask field extractions giving the flat bank and the row
// within it.
func BenchmarkMapperMap(b *testing.B) {
	m := memctrl.NewMapper(config.Table1_2GB().Geometry)
	rng := sim.NewRNG(1)
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = rng.Uint64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	rows := 0
	for i := 0; i < b.N; i++ {
		_, row := m.Map(addrs[i&(len(addrs)-1)])
		rows += row
	}
	b.StopTimer()
	if rows < 0 {
		b.Fatal("negative row")
	}
}

func BenchmarkWorkloadGenerator(b *testing.B) {
	prof, err := smartrefresh.ProfileByName("water-spatial")
	if err != nil {
		b.Fatal(err)
	}
	gen := smartrefresh.NewGenerator(prof.MainSpec(), 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := gen.Next(); !ok {
			b.Fatal("generator ended")
		}
	}
}

// dramCacheFootprint is the address range of the 3D-cache stream: four
// times the Table 2 cache, so a warm direct-mapped tag store sees about
// one hit in four and evicts on the rest.
const dramCacheFootprint = 256 << 20

// warmDRAMCache returns the Table 2 3D-cache front-end and a step
// function that feeds it, warmed until nearly every set holds a line and
// the result buffers have reached their working size. Each step issues
// one access at a uniformly random address in the footprint, one in four
// a write: through AppendAccess into a reused buffer, as the record loop
// does, when appendOnly, and through the Access wrapper otherwise.
func warmDRAMCache(appendOnly bool) (*cache.DRAMCache, func()) {
	front := cache.NewDRAMCache(config.Table2_3DCache())
	rng := sim.NewRNG(1)
	var now sim.Time
	var buf []cache.MemRequest
	step := func() {
		r := rng.Uint64()
		now += sim.Time(sim.Nanosecond)
		addr, write := r&(dramCacheFootprint-1), r>>62 == 0
		if appendOnly {
			buf, _ = front.AppendAccess(buf[:0], now, addr, write)
			return
		}
		front.Access(now, addr, write)
	}
	for i := 0; i < 4<<20; i++ {
		step()
	}
	return front, step
}

// BenchmarkDRAMCacheAccess measures one steady-state 3D-cache front-end
// access through AppendAccess, the path stacked runs take: tag lookup,
// LRU update, victim selection and the data-array request list.
func BenchmarkDRAMCacheAccess(b *testing.B) {
	front, step := warmDRAMCache(true)
	before := front.Tags().Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.StopTimer()
	st := front.Tags().Stats()
	b.ReportMetric(float64(st.Hits-before.Hits)/float64(st.Accesses-before.Accesses), "hit_rate")
}

// BenchmarkCacheNew3D measures building the Table 2 3D cache, which every
// stacked-DRAM job does once: the chunk table only, since chunks are
// allocated on first install.
func BenchmarkCacheNew3D(b *testing.B) {
	cfg := config.Table2_3DCache()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if c := cache.New(cfg); c.Stats().Accesses != 0 {
			b.Fatal("fresh cache has accesses")
		}
	}
}

// BenchmarkSmartSetup2GB measures what every Smart job on the Table 1
// 2 GB module pays before its first record: NewSmart (counter array and
// staggered seeding) plus the controller, whose start-of-run Reset seeds
// the counters again.
func BenchmarkSmartSetup2GB(b *testing.B) {
	cfg := smartrefresh.Table1_2GB()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := smartrefresh.NewController(cfg, smartrefresh.NewSmartPolicy(cfg),
			smartrefresh.ControllerOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVaultArraySetup measures building the 8-vault HMC stack with
// a Smart policy per vault: eight controllers, eight seeded counter
// arrays.
func BenchmarkVaultArraySetup(b *testing.B) {
	cfg := smartrefresh.HMC8Vault()
	smart := func(_ int, vcfg smartrefresh.Config) (smartrefresh.Policy, error) {
		return smartrefresh.NewSmartPolicy(vcfg), nil
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := smartrefresh.NewVaultArray(cfg, smart, smartrefresh.VaultOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSmartReset measures the start-of-run Reset(0) of a Smart
// policy that is already built, the seeding every pooled job pays:
// Table 1 2 GB, Table 2 at 32 ms and one HMC-8V vault.
func BenchmarkSmartReset(b *testing.B) {
	vault := config.HMC8Vault()
	vault.Geometry = vault.Geometry.PerVault()
	for _, c := range []struct {
		name string
		cfg  config.DRAM
	}{
		{"table1-2gb", config.Table1_2GB()},
		{"table2-3d-32ms", config.Table2_3D32()},
		{"hmc-8vault/vault", vault},
	} {
		b.Run(c.name, func(b *testing.B) {
			s := core.NewSmart(c.cfg.Geometry, c.cfg.RefreshInterval(), c.cfg.Smart)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Reset(0)
			}
		})
	}
}

// Vault-parallel stacked run: one benchmark through the 8-vault HMC
// preset, serially and with one shard worker per CPU. Results are
// bit-identical between the two, so the pair isolates the sharding
// machinery's overhead (serial) and scaling (parallel).
func benchVaultShardedRun(b *testing.B, shards int) {
	cfg := smartrefresh.HMC8Vault()
	prof, err := smartrefresh.ProfileByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	opts := smartrefresh.RunOptions{
		Warmup:  8 * smartrefresh.Millisecond,
		Measure: 32 * smartrefresh.Millisecond,
		Shards:  shards,
	}
	b.ReportAllocs()
	b.ResetTimer()
	var res smartrefresh.RunResult
	for i := 0; i < b.N; i++ {
		res = smartrefresh.Run(cfg, prof, smartrefresh.PolicySmart, opts)
		if res.Err != nil {
			b.Fatal(res.Err)
		}
	}
	if len(res.Vaults) != cfg.Geometry.VaultCount() {
		b.Fatalf("run returned %d vaults, want %d", len(res.Vaults), cfg.Geometry.VaultCount())
	}
	b.ReportMetric(res.RefreshesPerSecond(), "refresh/s")
}

func BenchmarkVaultShardedRunSerial(b *testing.B)   { benchVaultShardedRun(b, 1) }
func BenchmarkVaultShardedRunParallel(b *testing.B) { benchVaultShardedRun(b, 0) }

// BenchmarkPowerStateAdvance drives a full sleep/wake cycle of the
// per-rank power-state ladder per iteration: a demand access wakes the
// rank, then 10 us of idle descends through ACT-PDN, the idle-close
// wake, and PRE-PDN fast before the next access.
func BenchmarkPowerStateAdvance(b *testing.B) {
	cfg := smartrefresh.Table1_2GB()
	ctl, err := smartrefresh.NewController(cfg, smartrefresh.NewSmartPolicy(cfg),
		smartrefresh.ControllerOptions{
			SelfRefreshAfter: 100 * smartrefresh.Microsecond,
			PowerStates: smartrefresh.PowerStateConfig{
				ActPdnAfter:     1 * smartrefresh.Microsecond,
				PrePdnFastAfter: 5 * smartrefresh.Microsecond,
				PrePdnSlowAfter: 50 * smartrefresh.Microsecond,
			},
		})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var now smartrefresh.Time
	var i uint64
	for n := 0; n < b.N; n++ {
		i++
		ctl.Submit(smartrefresh.Request{Time: now, Addr: i * 16384})
		now += 10 * smartrefresh.Microsecond
		ctl.AdvanceTo(now)
	}
}

// ladderRefreshWake returns one vault of the HMC-8V stack under CBR with
// the ladder-full power states, and a step that idles it one CBR tick
// period. CBR walks the vault's banks round-robin, so each tick refreshes
// a rank that went back to sleep after its previous refresh. A demand to
// every rank each 100 us keeps the ranks out of self-refresh (200 us), so
// between demands they sit in PRE-PDN and nearly every step's refresh
// wakes a powered-down rank, which then settles back down.
func ladderRefreshWake() (*memctrl.Controller, func()) {
	cfg := config.HMC8Vault()
	cfg.Geometry = cfg.Geometry.PerVault()
	cfg.Power.Geometry = cfg.Geometry
	var full experiment.PowerStatePolicy
	for _, p := range experiment.PowerStatePolicies() {
		if p.Name == "ladder-full" {
			full = p
		}
	}
	ctl := memctrl.MustNew(cfg, core.NewCBR(cfg.Geometry, cfg.RefreshInterval()),
		memctrl.Options{SelfRefreshAfter: full.SelfRefreshAfter, PowerStates: full.Cfg})
	period := cfg.RefreshInterval() / sim.Duration(cfg.Geometry.TotalRows())
	var now, demandAt sim.Time
	step := func() {
		now += period
		if now >= demandAt {
			for r := 0; r < cfg.Geometry.Ranks; r++ {
				ctl.Submit(memctrl.Request{Time: now, Addr: ctl.Mapper().Unmap(r*cfg.Geometry.Banks, 0)})
			}
			demandAt = now + 100*sim.Microsecond
		}
		ctl.AdvanceTo(now)
	}
	return ctl, step
}

// BenchmarkLadderRefreshWake measures one idle CBR tick period on a
// vault whose ranks are powered down: the refresh's wake, the refresh,
// and the rank's settle back onto its rung.
func BenchmarkLadderRefreshWake(b *testing.B) {
	ctl, step := ladderRefreshWake()
	for i := 0; i < 4096; i++ {
		step()
	}
	before := ctl.Module().Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.StopTimer()
	st := ctl.Module().Stats().Sub(before)
	b.ReportMetric(float64(st.PowerDownEntries)/float64(b.N), "pdn_entries/op")
}
