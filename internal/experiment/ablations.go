package experiment

import (
	"errors"
	"fmt"

	"smartrefresh/internal/config"
	"smartrefresh/internal/core"
	"smartrefresh/internal/dram"
	"smartrefresh/internal/memctrl"
	"smartrefresh/internal/sim"
	"smartrefresh/internal/trace"
	"smartrefresh/internal/workload"
)

// CounterWidthPoint is one row of the section 4.4 optimality study.
type CounterWidthPoint struct {
	Bits int
	// OptimalityPct is the analytic bound (1 - 2^-bits) * 100.
	OptimalityPct float64
	// MeasuredOptimalityPct is the observed worst-case refresh earliness:
	// min refresh gap of untouched rows / interval * 100.
	MeasuredOptimalityPct float64
	// RefreshReductionPct under the benchmark stream.
	RefreshReductionPct float64
	// CounterEnergyMJ is the counter-array energy paid in the window.
	CounterEnergyMJ float64
	// AreaKB is the section 4.7 storage overhead.
	AreaKB float64
}

// ensureEngine substitutes a default engine for a nil one, so callers
// without an engine of their own still get pooled execution.
func ensureEngine(eng *Engine) *Engine {
	if eng == nil {
		return NewEngine(0)
	}
	return eng
}

// jobsErr joins the errors of a study's failed jobs; it is nil when
// every job ran. A failed job leaves zeros in its point, so a study
// returns its points with this error.
func jobsErr(res []RunResult) error {
	var errs []error
	for _, r := range res {
		if r.Err != nil {
			errs = append(errs, r.Err)
		}
	}
	return errors.Join(errs...)
}

// variant returns cfg under the name "<name>-<tag>". A study that edits
// a preset names the edit this way, so that its jobs' identities tell
// them from the preset's (see Job.ID).
func variant(cfg config.DRAM, tag string) config.DRAM {
	cfg.Name += "-" + tag
	return cfg
}

// noSelfDisable is cfg with the section 4.6 self-disable circuitry off,
// so that Smart Refresh never falls back to CBR: the variant most
// studies run.
func noSelfDisable(cfg config.DRAM) config.DRAM {
	cfg.Smart.SelfDisable = false
	return variant(cfg, "nodisable")
}

// CounterWidthStudy sweeps the time-out counter width (the paper uses 2
// bits to explain and 3 to simulate; wider counters approach the oracle).
// The per-width pair runs execute on eng's worker pool (nil = default
// engine).
func CounterWidthStudy(eng *Engine, prof workload.Profile, bits []int, opts RunOptions) ([]CounterWidthPoint, error) {
	eng = ensureEngine(eng)
	cfgs := make([]config.DRAM, len(bits))
	jobs := make([]Job, 0, 2*len(bits))
	for i, b := range bits {
		c := noSelfDisable(Conv2GB.DRAM())
		c.Smart.CounterBits = b
		cfgs[i] = variant(c, fmt.Sprintf("bits%d", b))
		jobs = append(jobs,
			Job{Cfg: cfgs[i], Prof: prof, Policy: PolicyCBR, Opts: opts},
			Job{Cfg: cfgs[i], Prof: prof, Policy: PolicySmart, Opts: opts})
	}
	res := eng.RunJobs(jobs)

	var out []CounterWidthPoint
	for i, b := range bits {
		base, smart, c := res[2*i], res[2*i+1], cfgs[i]
		reduction := 0.0
		if base.Results.Module.RefreshOps > 0 {
			reduction = 100 * (1 - float64(smart.Results.Module.RefreshOps)/
				float64(base.Results.Module.RefreshOps))
		}
		out = append(out, CounterWidthPoint{
			Bits:                  b,
			OptimalityPct:         core.Optimality(b) * 100,
			MeasuredOptimalityPct: measureOptimality(c, b),
			RefreshReductionPct:   reduction,
			CounterEnergyMJ:       smart.Results.Energy.RefreshCounter.Millijoules(),
			AreaKB:                core.CounterAreaKB(c.Geometry, b),
		})
	}
	return out, jobsErr(res)
}

// measureOptimality measures the section 4.4 optimality metric: access a
// row at a random phase, observe when Smart Refresh next refreshes it,
// and report the worst (smallest) access-to-refresh gap as a percentage
// of the interval. The analytic bound is (1 - 2^-bits) * 100. It uses a
// scaled-down geometry: the gap distribution depends only on the counter
// width, not the row count.
func measureOptimality(cfg config.DRAM, bits int) float64 {
	g := cfg.Geometry
	g.Rows = 64
	small := cfg
	small.Geometry = g
	small.Power.Geometry = g
	small.Smart.CounterBits = bits
	small.Smart.SelfDisable = false

	interval := small.RefreshInterval()
	p := NewPolicy(small, PolicySmart)
	rng := sim.NewRNG(uint64(bits) * 7919)
	var cmds []core.Command

	// Warm past the seeded first interval.
	now := 2 * interval
	cmds = p.Advance(now, cmds[:0])

	minGap := sim.Duration(1 << 62)
	for trial := 0; trial < 64; trial++ {
		// Access a random row at a random phase.
		at := now + sim.Time(rng.Int63n(int64(interval/2)))
		cmds = p.Advance(at, cmds[:0])
		bank, row := dram.SplitRow(&g, rng.Intn(g.TotalRows()))
		p.OnRowRestore(at, dram.RowInBank(&g, bank, row))

		// Run tick by tick until that row's next refresh.
		for {
			due, ok := p.NextTick()
			if !ok {
				break
			}
			cmds = p.Advance(due, cmds[:0])
			found := false
			for _, c := range cmds {
				if c.Row == row && c.Bank == bank {
					found = true
				}
			}
			now = due
			if found {
				if gap := due - at; gap < minGap {
					minGap = gap
				}
				break
			}
		}
	}
	if minGap >= 1<<62 {
		return 0
	}
	return 100 * float64(minGap) / float64(interval)
}

// StaggerPoint compares the staggered counter seed (figure 2(b)/3) with
// the uniform seed (figure 2(a) burst hazard).
type StaggerPoint struct {
	Staggered         bool
	MaxPendingPerTick int
	// PeakRefreshesPerMs is the busiest 1 ms refresh count — the burst-
	// refresh behaviour the stagger exists to avoid.
	PeakRefreshesPerMs uint64
}

// StaggerStudy measures the burst hazard with and without staggering on
// an idle module (the pure periodic-refresh case where the hazard is
// clearest).
func StaggerStudy(kind ConfigKind) []StaggerPoint {
	var out []StaggerPoint
	for _, staggered := range []bool{true, false} {
		cfg := kind.DRAM()
		cfg.Smart.SelfDisable = false
		cfg.Smart.UniformSeed = !staggered
		p := NewPolicy(cfg, PolicySmart)
		interval := cfg.RefreshInterval()

		buckets := make(map[int64]uint64)
		var cmds []core.Command
		for now := sim.Time(0); now < 3*interval; now += interval / 1024 {
			cmds = p.Advance(now, cmds[:0])
			if len(cmds) > 0 {
				buckets[int64(now/sim.Millisecond)] += uint64(len(cmds))
			}
		}
		var peak uint64
		for _, n := range buckets {
			if n > peak {
				peak = n
			}
		}
		out = append(out, StaggerPoint{
			Staggered:          staggered,
			MaxPendingPerTick:  p.Stats().MaxPendingPerTick,
			PeakRefreshesPerMs: peak,
		})
	}
	return out
}

// SegmentsPoint is one row of the pending-queue sizing study (section 5).
type SegmentsPoint struct {
	Segments          int
	QueueDepth        int
	MaxPendingPerTick int
	RefreshOps        uint64
}

// SegmentsStudy sweeps the segment count / pending queue depth and
// confirms the per-tick bound never exceeds the queue depth. The runs
// execute on eng's worker pool (nil = default engine).
func SegmentsStudy(eng *Engine, prof workload.Profile, segments []int, opts RunOptions) ([]SegmentsPoint, error) {
	eng = ensureEngine(eng)
	jobs := make([]Job, len(segments))
	for i, n := range segments {
		cfg := noSelfDisable(Conv2GB.DRAM())
		cfg.Smart.Segments = n
		cfg.Smart.QueueDepth = n
		jobs[i] = Job{Cfg: variant(cfg, fmt.Sprintf("seg%d", n)), Prof: prof, Policy: PolicySmart, Opts: opts}
	}
	res := eng.RunJobs(jobs)

	out := make([]SegmentsPoint, len(segments))
	for i, n := range segments {
		out[i] = SegmentsPoint{
			Segments:          n,
			QueueDepth:        n,
			MaxPendingPerTick: res[i].Results.Policy.MaxPendingPerTick,
			RefreshOps:        res[i].Results.Module.RefreshOps,
		}
	}
	return out, jobsErr(res)
}

// BusOverheadPoint quantifies the RAS-only refresh penalty the paper's
// CBR-baseline comparison charges Smart Refresh for (section 3).
type BusOverheadPoint struct {
	WithOverhead           bool
	RefreshEnergyMJ        float64
	RefreshEnergySavingPct float64
}

// BusOverheadStudy runs one benchmark with the Table 3 bus model on and
// off to isolate the RAS-only address-bus cost. The four runs execute on
// eng's worker pool (nil = default engine).
func BusOverheadStudy(eng *Engine, prof workload.Profile, opts RunOptions) ([]BusOverheadPoint, error) {
	eng = ensureEngine(eng)
	variants := []bool{true, false}
	jobs := make([]Job, 0, 2*len(variants))
	for _, with := range variants {
		cfg := Conv2GB.DRAM()
		if !with {
			cfg.Power.Bus.VDD = 0 // zero swing: no bus energy
			cfg = variant(cfg, "nobus")
		}
		jobs = append(jobs,
			Job{Cfg: cfg, Prof: prof, Policy: PolicyCBR, Opts: opts},
			Job{Cfg: cfg, Prof: prof, Policy: PolicySmart, Opts: opts})
	}
	res := eng.RunJobs(jobs)

	var out []BusOverheadPoint
	for i, with := range variants {
		base, smart := res[2*i], res[2*i+1]
		bre := base.Results.Energy.RefreshRelated()
		sre := smart.Results.Energy.RefreshRelated()
		saving := 0.0
		if bre > 0 {
			saving = 100 * (1 - float64(sre)/float64(bre))
		}
		out = append(out, BusOverheadPoint{
			WithOverhead:           with,
			RefreshEnergyMJ:        sre.Millijoules(),
			RefreshEnergySavingPct: saving,
		})
	}
	return out, jobsErr(res)
}

// DisableStudyResult captures the section 4.6 idle-OS experiment.
type DisableStudyResult struct {
	// WithDisable/WithoutDisable are Smart Refresh runs on the near-idle
	// stream with the self-disable circuitry on and off; Baseline is CBR.
	Baseline, WithDisable, WithoutDisable memctrl.Results
	// DisableSwitched reports that the circuitry actually switched off.
	DisableSwitched bool
	// EnergyLossPctWithDisable is the total-energy loss relative to the
	// baseline with the circuitry enabled (the paper: "we did not detect
	// any energy loss").
	EnergyLossPctWithDisable float64
}

// DisableStudy runs the idle-OS workload of section 4.6. Its three runs
// execute on eng's worker pool (nil = default engine).
func DisableStudy(eng *Engine, opts RunOptions) (DisableStudyResult, error) {
	eng = ensureEngine(eng)
	idle := workload.Idle()
	cfg := Conv2GB.DRAM()

	on := cfg
	on.Smart.SelfDisable = true
	off := noSelfDisable(cfg)

	res := eng.RunJobs([]Job{
		{Cfg: cfg, Prof: idle, Policy: PolicyCBR, Opts: opts},
		{Cfg: on, Prof: idle, Policy: PolicySmart, Opts: opts},
		{Cfg: off, Prof: idle, Policy: PolicySmart, Opts: opts},
	})
	base, withRes, withoutRes := res[0], res[1], res[2]

	loss := 0.0
	if bt := base.Results.Energy.Total(); bt > 0 {
		loss = 100 * (float64(withRes.Results.Energy.Total())/float64(bt) - 1)
	}
	return DisableStudyResult{
		Baseline:       base.Results,
		WithDisable:    withRes.Results,
		WithoutDisable: withoutRes.Results,
		// The switch itself usually happens at the first window boundary,
		// inside warmup; detect disabled operation by time spent disabled
		// or CBR-mode refreshes within the measured window.
		DisableSwitched: withRes.Results.Policy.DisableSwitches > 0 ||
			withRes.Results.Policy.TimeDisabled > 0 ||
			withRes.Results.Module.RefreshCBROps > 0,
		EnergyLossPctWithDisable: loss,
	}, jobsErr(res)
}

// RetentionAwarePoint is one row of the retention-aware extension study
// (the orthogonal direction the paper's related work discusses: RAPID /
// VRA-style per-row retention classes combined with Smart Refresh).
type RetentionAwarePoint struct {
	Policy              string
	RefreshOps          uint64
	RefreshReductionPct float64 // vs the CBR baseline
	RefreshEnergyMJ     float64
	TotalEnergyMJ       float64
}

// RetentionAwareStudy compares CBR, plain Smart Refresh and the combined
// retention-aware Smart Refresh on one benchmark stream with the default
// retention-class distribution. The three runs execute on eng's worker
// pool (nil = default engine); the retention-aware run derives its
// retention map from the benchmark seed like every PolicySmartRetention
// job.
func RetentionAwareStudy(eng *Engine, prof workload.Profile, opts RunOptions) ([]RetentionAwarePoint, error) {
	eng = ensureEngine(eng)
	cfg := noSelfDisable(Conv2GB.DRAM())

	var jobs []Job
	for _, kind := range []PolicyKind{PolicyCBR, PolicySmart, PolicySmartRetention} {
		jobs = append(jobs, Job{Cfg: cfg, Prof: prof, Policy: kind, Opts: opts})
	}
	res := eng.RunJobs(jobs)

	out := make([]RetentionAwarePoint, len(res))
	for i, r := range res {
		out[i] = RetentionAwarePoint{
			Policy:          r.Policy.String(),
			RefreshOps:      r.Results.Module.RefreshOps,
			RefreshEnergyMJ: r.Results.Energy.RefreshRelated().Millijoules(),
			TotalEnergyMJ:   r.Results.Energy.Total().Millijoules(),
		}
	}
	base := out[0]
	for i := range out {
		if base.RefreshOps > 0 {
			out[i].RefreshReductionPct = 100 * (1 - float64(out[i].RefreshOps)/float64(base.RefreshOps))
		}
	}
	return out, jobsErr(res)
}

// EDRAMPoint is one row of the embedded-DRAM refresh-interval study.
type EDRAMPoint struct {
	Interval                sim.Duration
	BaselineRefreshesPerSec float64
	RefreshReductionPct     float64
	// BaselineRefreshSharePct is refresh-related energy as a share of
	// baseline total energy — the paper's introduction: refresh dominates
	// as intervals shrink.
	BaselineRefreshSharePct float64
	TotalSavingPct          float64
}

// EDRAMStudy runs the paper's introduction observation: embedded DRAMs
// refresh orders of magnitude faster (64 ms commodity, 4 ms NEC eDRAM,
// 64 us IBM eDRAM), so refresh dominates their energy — and Smart
// Refresh only helps while demand re-touches rows *within* the retention
// interval. One fixed workload (half the rows re-swept every 3 ms) runs
// against all three intervals: it saves at 64 ms and 4 ms, and cannot
// save at 64 us, where no realistic traffic beats the deadline. The six
// runs execute on eng's worker pool (nil = default engine), each building
// its own generator through Job.MakeSource.
func EDRAMStudy(eng *Engine) ([]EDRAMPoint, error) {
	eng = ensureEngine(eng)
	intervals := []sim.Duration{64 * sim.Millisecond, 4 * sim.Millisecond, 64 * sim.Microsecond}
	var jobs []Job
	measures := make([]sim.Duration, len(intervals))
	for i, interval := range intervals {
		cfg := noSelfDisable(config.EDRAM(interval))

		spec := workload.StreamSpec{
			FootprintBytes: cfg.Geometry.CapacityBytes() / 2,
			StrideBytes:    cfg.Geometry.DataRowBytes(),
			SweepPeriod:    3 * sim.Millisecond,
			RowRepeats:     1,
			WriteFraction:  0.3,
			JitterFraction: 0.1,
		}
		source := func() trace.Source { return workload.NewGenerator(spec, 99) }

		// Window: enough intervals for steady state and enough sweeps for
		// the workload to matter.
		opts := RunOptions{
			Warmup:  sim.Max(interval, 3*sim.Millisecond),
			Measure: sim.Max(4*interval, 12*sim.Millisecond),
		}
		measures[i] = opts.Measure
		prof := workload.Profile{Name: cfg.Name, Suite: "synthetic"}
		jobs = append(jobs,
			Job{Cfg: cfg, Prof: prof, Policy: PolicyCBR, Opts: opts, MakeSource: source},
			Job{Cfg: cfg, Prof: prof, Policy: PolicySmart, Opts: opts, MakeSource: source})
	}
	res := eng.RunJobs(jobs)

	var out []EDRAMPoint
	for i, interval := range intervals {
		base, smart := res[2*i].Results, res[2*i+1].Results
		pt := EDRAMPoint{Interval: interval}
		pt.BaselineRefreshesPerSec = float64(base.Module.RefreshOps) / measures[i].Seconds()
		if base.Module.RefreshOps > 0 {
			pt.RefreshReductionPct = 100 * (1 - float64(smart.Module.RefreshOps)/float64(base.Module.RefreshOps))
		}
		if bt := base.Energy.Total(); bt > 0 {
			pt.BaselineRefreshSharePct = 100 * float64(base.Energy.RefreshRelated()) / float64(bt)
			pt.TotalSavingPct = 100 * (1 - float64(smart.Energy.Total())/float64(bt))
		}
		out = append(out, pt)
	}
	return out, jobsErr(res)
}

// IdlePowerPoint is one row of the idle-power management comparison.
type IdlePowerPoint struct {
	Name          string
	TotalEnergyMJ float64
	RefreshOps    uint64
}

// IdlePowerStudy compares the idle-power options on the near-idle
// workload: the CBR baseline, Smart Refresh with the section 4.6
// self-disable, and CBR with module self-refresh — the deepest sleep a
// DRAM offers, which trades wake-up latency (tXSNR) for IDD6 standby.
// The three runs execute on eng's worker pool (nil = default engine).
func IdlePowerStudy(eng *Engine, opts RunOptions) ([]IdlePowerPoint, error) {
	eng = ensureEngine(eng)
	idle := workload.Idle()
	cfg := Conv2GB.DRAM()

	plain := opts
	plain.SelfRefreshAfter = 0
	withSR := opts
	withSR.SelfRefreshAfter = 100 * sim.Microsecond

	names := []string{"cbr", "smart+disable", "cbr+selfrefresh"}
	res := eng.RunJobs([]Job{
		{Cfg: cfg, Prof: idle, Policy: PolicyCBR, Opts: plain},
		{Cfg: cfg, Prof: idle, Policy: PolicySmart, Opts: plain},
		{Cfg: cfg, Prof: idle, Policy: PolicyCBR, Opts: withSR},
	})

	out := make([]IdlePowerPoint, len(res))
	for i, r := range res {
		out[i] = IdlePowerPoint{
			Name:          names[i],
			TotalEnergyMJ: r.Results.Energy.Total().Millijoules(),
			RefreshOps:    r.Results.Module.RefreshOps,
		}
	}
	return out, jobsErr(res)
}

// ThresholdPoint is one row of the self-disable threshold sweep.
type ThresholdPoint struct {
	DisableBelow float64
	EnableAbove  float64
	// Disabled reports whether the policy spent time in CBR fallback on
	// the probe workload.
	Disabled bool
	// RefreshOps in the measured window.
	RefreshOps uint64
	// TotalEnergyMJ in the measured window.
	TotalEnergyMJ float64
}

// DisableThresholdStudy sweeps the section 4.6 thresholds against a
// workload of the given row-coverage density, showing where the policy
// decides Smart Refresh is not worth its counter energy. The per-
// threshold runs execute on eng's worker pool (nil = default engine).
func DisableThresholdStudy(eng *Engine, coverage float64, thresholds [][2]float64, opts RunOptions) ([]ThresholdPoint, error) {
	eng = ensureEngine(eng)
	prof := workload.Idle()
	prof.Name = fmt.Sprintf("threshold-probe-%g", coverage)
	prof.MainCoverage = coverage
	jobs := make([]Job, len(thresholds))
	for i, th := range thresholds {
		cfg := Conv2GB.DRAM()
		cfg.Smart.SelfDisable = true
		cfg.Smart.DisableBelow = th[0]
		cfg.Smart.EnableAbove = th[1]
		jobs[i] = Job{Cfg: variant(cfg, fmt.Sprintf("th%g-%g", th[0], th[1])), Prof: prof, Policy: PolicySmart, Opts: opts}
	}
	res := eng.RunJobs(jobs)

	out := make([]ThresholdPoint, len(thresholds))
	for i, th := range thresholds {
		out[i] = ThresholdPoint{
			DisableBelow: th[0],
			EnableAbove:  th[1],
			Disabled: res[i].Results.Policy.TimeDisabled > 0 ||
				res[i].Results.Module.RefreshCBROps > 0,
			RefreshOps:    res[i].Results.Module.RefreshOps,
			TotalEnergyMJ: res[i].Results.Energy.Total().Millijoules(),
		}
	}
	return out, jobsErr(res)
}

// FormatCounterWidthStudy renders the study as a table string.
func FormatCounterWidthStudy(points []CounterWidthPoint) string {
	s := fmt.Sprintf("%4s %12s %12s %12s %14s %8s\n",
		"bits", "optimality%", "measured%", "reduction%", "counter mJ", "area KB")
	for _, p := range points {
		s += fmt.Sprintf("%4d %12.2f %12.2f %12.2f %14.4f %8.0f\n",
			p.Bits, p.OptimalityPct, p.MeasuredOptimalityPct,
			p.RefreshReductionPct, p.CounterEnergyMJ, p.AreaKB)
	}
	return s
}
