// Package experiment reproduces the paper's evaluation: one harness per
// figure (Figures 6-18) plus the section 4.4/4.6 studies, each producing
// the same per-benchmark series and GMEAN rows the paper plots, alongside
// the paper's published aggregate for comparison.
package experiment

import (
	"context"
	"fmt"

	"smartrefresh/internal/cache"
	"smartrefresh/internal/config"
	"smartrefresh/internal/core"
	"smartrefresh/internal/dram"
	"smartrefresh/internal/memctrl"
	"smartrefresh/internal/sim"
	"smartrefresh/internal/telemetry"
	"smartrefresh/internal/trace"
	"smartrefresh/internal/workload"
)

// PolicyKind selects the refresh policy for a run.
type PolicyKind int

// Available policies.
const (
	PolicyCBR PolicyKind = iota
	PolicySmart
	PolicyBurst
	PolicyNone
	PolicyOracle
	PolicyDARP
	PolicySARP
)

// String names the policy kind.
func (k PolicyKind) String() string {
	switch k {
	case PolicyCBR:
		return "cbr"
	case PolicySmart:
		return "smart"
	case PolicyBurst:
		return "burst"
	case PolicyNone:
		return "none"
	case PolicyOracle:
		return "oracle"
	case PolicyDARP:
		return "darp"
	case PolicySARP:
		return "sarp"
	default:
		return fmt.Sprintf("PolicyKind(%d)", int(k))
	}
}

// NewPolicy instantiates a policy for the configuration.
func NewPolicy(cfg config.DRAM, kind PolicyKind) core.Policy {
	interval := cfg.RefreshInterval()
	switch kind {
	case PolicyCBR:
		return core.NewCBR(cfg.Geometry, interval)
	case PolicySmart:
		return core.NewSmart(cfg.Geometry, interval, cfg.Smart)
	case PolicyBurst:
		return core.NewBurst(cfg.Geometry, interval)
	case PolicyNone:
		return core.NoRefresh{}
	case PolicyOracle:
		return core.NewOracle(cfg.Geometry, interval, cfg.Timing.TRefreshRow*16)
	case PolicyDARP:
		return core.NewDARP(cfg.Geometry, interval, core.DefaultPerBankConfig())
	case PolicySARP:
		return core.NewSARP(cfg.Geometry, interval, core.DefaultPerBankConfig())
	default:
		panic(fmt.Sprintf("experiment: unknown policy kind %d", int(kind)))
	}
}

// RunOptions control a single simulation run.
type RunOptions struct {
	// Warmup is excluded from the measured statistics (defaults to one
	// refresh interval: the seeded counters make Smart Refresh behave
	// like the baseline during the first interval).
	Warmup sim.Duration
	// Measure is the measured window after warmup (defaults to four
	// refresh intervals).
	Measure sim.Duration
	// Stacked runs the stream through the Table 2 3D DRAM cache front-end
	// (SRAM tags + DRAM data array) instead of directly against the
	// module.
	Stacked bool
	// CheckRetention attaches the retention checker (slower; tests).
	CheckRetention bool
	// SelfRefreshAfter arms the controller's self-refresh machinery (0 =
	// disabled); see memctrl.Options.
	SelfRefreshAfter sim.Duration
	// PowerStates arms the intermediate power-down rungs of the per-rank
	// power-state ladder (ACT-PDN, PRE-PDN fast/slow, slow-wake SR); the
	// zero value keeps the historical two-state behaviour. See
	// memctrl.PowerStateConfig.
	PowerStates memctrl.PowerStateConfig
	// Shards bounds the worker goroutines advancing a vaulted
	// configuration's vault controllers in parallel (0 = GOMAXPROCS,
	// 1 = serial). Results are bit-identical at every value — see
	// memctrl.VaultArray — so Shards is a throughput knob, not part of
	// the run's identity, and the Engine's memo key excludes it.
	// Ignored on monolithic geometries.
	Shards int
}

func (o RunOptions) withDefaults(interval sim.Duration) RunOptions {
	if o.Warmup == 0 {
		o.Warmup = interval
	}
	if o.Measure == 0 {
		o.Measure = 4 * interval
	}
	return o
}

// RetentionSlack is the deadline widening the retention checker grants a
// policy's documented deferral behaviour (mirroring internal/check's
// per-policy bounds): Smart and Burst serialise chained refreshes behind
// one bank, DARP postpones up to MaxPostpone slot periods and pulls in up
// to MaxPullIn, SARP only pays stagger and quantization. Beyond this a
// late refresh is a real bug, not scheduling slack. Self-refresh entry
// and exit hide the module walker's phase for up to two intervals.
func RetentionSlack(cfg config.DRAM, kind PolicyKind, opts RunOptions) sim.Duration {
	const base = 4 * sim.Microsecond
	interval := cfg.RefreshInterval()
	slack := base
	if opts.SelfRefreshAfter > 0 {
		slack += 2 * interval
	}
	serial := sim.Duration(cfg.Geometry.Rows) * cfg.Timing.TRefreshRow
	pbSlot := interval / sim.Duration(cfg.Geometry.Rows)
	pb := core.DefaultPerBankConfig()
	switch kind {
	case PolicySmart:
		slack += 2 * serial
		if cfg.Smart.SelfDisable {
			slack += 2 * interval
		}
	case PolicyBurst:
		slack += serial
	case PolicyDARP:
		slack += sim.Duration(pb.MaxPostpone+pb.MaxPullIn+4) * pbSlot
	case PolicySARP:
		slack += 4 * pbSlot
	}
	return slack
}

// RunResult is the measured window of one run.
type RunResult struct {
	Benchmark string
	Policy    PolicyKind
	Config    string
	Window    sim.Duration
	Results   memctrl.Results
	// Vaults holds each vault's measured window (vault index order) when
	// the configuration is vaulted; nil for monolithic modules. Results
	// is then the stack-level fold of these entries.
	Vaults []memctrl.Results
	// RetentionErr is non-nil if the checker observed a violation.
	RetentionErr error
	// Err is non-nil when the job could not be simulated at all (the
	// configuration or option combination was rejected); the remaining
	// fields are meaningless then. Only Engine.RunJobs populates it —
	// Engine.Run reports the same failures through its error return.
	Err error
}

// RefreshesPerSecond returns refresh operations per measured second.
func (r RunResult) RefreshesPerSecond() float64 {
	if r.Window <= 0 {
		return 0
	}
	return float64(r.Results.Module.RefreshOps) / r.Window.Seconds()
}

// Run simulates one benchmark profile against one configuration and
// policy and returns the post-warmup measured window.
func Run(cfg config.DRAM, prof workload.Profile, kind PolicyKind, opts RunOptions) RunResult {
	res, _ := RunContext(context.Background(), cfg, prof, kind, opts)
	return res // the background context never cancels, so err is nil
}

// RunContext is Run with cooperative cancellation: the record loop and
// the controller's tick/advance drains check ctx and abort with its
// error, discarding the partial measurement.
func RunContext(ctx context.Context, cfg config.DRAM, prof workload.Profile, kind PolicyKind, opts RunOptions) (RunResult, error) {
	return runTimed(ctx, cfg, prof, kind, opts, nil)
}

// runTimed is RunContext that also stores a vaulted run's barrier timing
// in vaultTiming when it is non-nil (monolithic runs leave it untouched).
func runTimed(ctx context.Context, cfg config.DRAM, prof workload.Profile, kind PolicyKind, opts RunOptions, vaultTiming *memctrl.VaultTiming) (RunResult, error) {
	opts = opts.withDefaults(cfg.RefreshInterval())
	j := runJob{
		cfg:       cfg,
		benchmark: prof.Name,
		kind:      kind,
		source:    prof.NewSource(opts.Stacked),
		opts:      opts,

		vaultTiming: vaultTiming,
	}
	if !cfg.Geometry.Vaulted() {
		// Vaulted runs build one policy per vault inside executeVaulted;
		// the monolithic instance would be constructed only to be dropped.
		j.policy = NewPolicy(cfg, kind)
	}
	return execute(ctx, j)
}

// runJob is one fully-resolved simulation: a configuration, a policy
// instance, an access stream and the measurement window. Every field is
// owned by this job alone, so jobs are safe to execute concurrently.
// The telemetry sinks are the exception — they are shared across jobs
// and internally synchronised (both no-op when nil).
type runJob struct {
	cfg       config.DRAM
	benchmark string
	kind      PolicyKind
	policy    core.Policy
	source    trace.Source
	opts      RunOptions // defaults already applied
	// retMap, when non-nil with opts.CheckRetention, scales the
	// checker's per-row deadlines (see memctrl.Options.RetentionMap).
	retMap *core.RetentionMap

	trace   *telemetry.Tracer
	metrics *telemetry.Registry

	// vaultTiming, when non-nil, receives a vaulted run's barrier timing.
	vaultTiming *memctrl.VaultTiming
}

// execute drives one job's stream through a fresh controller. The warmup
// snapshot is taken exactly once (at the first measured record, or at the
// warmup boundary for idle streams), then ctl.Finish finalises the module
// before the results are read.
//
// Cancellation points: the record loop checks ctx every cancelCheckStride
// records, and the controller's long tick/advance drains poll it through
// memctrl.Options.Interrupt — so cancellation latency is bounded even on
// idle streams where the final Finish drains a whole measurement window
// of refresh ticks. A non-nil error means the partial result was
// discarded; the returned RunResult is then zero.
func execute(ctx context.Context, j runJob) (RunResult, error) {
	if j.cfg.Geometry.Vaulted() {
		return executeVaulted(ctx, j)
	}
	opts := j.opts
	mcOpts, cancelled := jobSetup(ctx, j)
	ctl := memctrl.MustNew(j.cfg, j.policy, mcOpts)

	end := opts.Warmup + opts.Measure

	var front *cache.DRAMCache
	if opts.Stacked {
		front = cache.NewDRAMCache(config.Table2_3DCache())
	}

	var warmModule, warmPolicy = ctl.Module().Stats(), j.policy.Stats()
	var warmDroppedSR uint64
	warmed := false
	takeWarmupSnapshot := func(t sim.Time) {
		ctl.AdvanceTo(t)
		ctl.Module().Finalize(t)
		warmModule, warmPolicy = ctl.Module().Stats(), j.policy.Stats()
		warmDroppedSR = ctl.RefreshesDroppedSelfRefresh()
		warmed = true
	}
	submit := func(t sim.Time, addr uint64, write bool) {
		ctl.Submit(memctrl.Request{Time: t, Addr: addr, Write: write})
	}

	for n := 0; ; n++ {
		rec, ok := j.source.Next()
		if !ok || rec.Time >= end {
			break
		}
		if n&(cancelCheckStride-1) == 0 {
			if err := cancelled(); err != nil {
				return RunResult{}, err
			}
		}
		if !warmed && rec.Time >= opts.Warmup {
			takeWarmupSnapshot(rec.Time)
		}
		if opts.Stacked {
			res := front.Access(rec.Time, rec.Addr, rec.Write)
			for _, da := range res.DataAccesses {
				submit(da.Time, da.Addr, da.Write)
			}
			// MemoryTraffic goes to the conventional DRAM behind the 3D
			// cache; the paper found it negligible for these footprints
			// and we do not simulate that second module here.
		} else {
			submit(rec.Time, rec.Addr, rec.Write)
		}
	}
	if !warmed {
		// Idle stream: no record ever crossed the warmup boundary.
		takeWarmupSnapshot(opts.Warmup)
	}
	ctl.Finish(end)
	if err := cancelled(); err != nil {
		// The controller's drains abort early on interrupt, so anything
		// measured after the cancellation instant is partial state.
		return RunResult{}, err
	}

	full := ctl.Results(end)
	full.Module = full.Module.Sub(warmModule)
	full.Policy = full.Policy.Sub(warmPolicy)
	full.RefreshesDroppedSelfRefresh -= warmDroppedSR
	full.Energy = j.cfg.Power.Evaluate(full.Module, full.Policy)
	full.RefreshOps = full.Module.RefreshOps
	full.RefreshCBR = full.Module.RefreshCBROps
	full.RefreshRASOnly = full.Module.RefreshRASOnlyOps
	full.RefreshPerBank = full.Module.RefreshPerBankOps
	full.DemandStall = full.Module.DemandStall
	if opts.Measure > 0 {
		full.RefreshPerSecond = float64(full.Module.RefreshOps) / opts.Measure.Seconds()
	}

	return RunResult{
		Benchmark:    j.benchmark,
		Policy:       j.kind,
		Config:       j.cfg.Name,
		Window:       opts.Measure,
		Results:      full,
		RetentionErr: ctl.RetentionErr(),
	}, nil
}

// jobSetup builds the controller options and the cancellation probe a
// job shares between the monolithic and vaulted paths.
func jobSetup(ctx context.Context, j runJob) (memctrl.Options, func() error) {
	opts := j.opts
	mcOpts := memctrl.Options{
		CheckRetention:   opts.CheckRetention,
		SelfRefreshAfter: opts.SelfRefreshAfter,
		PowerStates:      opts.PowerStates,
	}
	if opts.CheckRetention {
		mcOpts.RetentionSlack = RetentionSlack(j.cfg, j.kind, opts)
		mcOpts.RetentionMap = j.retMap
	}
	if j.trace != nil || j.metrics != nil {
		mcOpts.Trace = j.trace
		mcOpts.Metrics = j.metrics
		mcOpts.MetricsPrefix = j.cfg.Name + "/" + j.benchmark + "/" + j.kind.String()
	}
	if ctx.Done() != nil {
		// Only a cancellable context pays for the per-drain polls.
		mcOpts.Interrupt = func() bool { return ctx.Err() != nil }
	}
	cancelled := func() error {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("experiment: run %s/%s/%s: %w", j.cfg.Name, j.benchmark, j.kind, err)
		}
		return nil
	}
	return mcOpts, cancelled
}

// executeVaulted is execute for vaulted (HMC-style) geometries: one
// controller per vault behind a memctrl.VaultArray, advanced in parallel
// by opts.Shards workers between quarter-interval epoch barriers. The
// epoch schedule is a pure function of the record stream, and the vaults
// share no mutable state, so the measured results are bit-identical at
// every shard count — which is what lets the Engine memoise across
// differing Shards values.
//
// The warmup snapshot is per vault (each vault's module and policy have
// their own warm state); the measured window is derived per vault and
// folded in vault index order into the stack-level Results, exactly as
// VaultArray.Results folds whole-run summaries.
func executeVaulted(ctx context.Context, j runJob) (RunResult, error) {
	opts := j.opts
	if j.retMap != nil {
		// A per-row retention map is indexed against the monolithic
		// geometry; reslicing it per vault is future work.
		return RunResult{}, fmt.Errorf("experiment: run %s/%s/%s: per-row retention maps are not supported on vaulted geometries",
			j.cfg.Name, j.benchmark, j.kind)
	}
	mcOpts, cancelled := jobSetup(ctx, j)

	factory := func(_ int, vcfg config.DRAM) (core.Policy, error) {
		return NewPolicy(vcfg, j.kind), nil
	}
	va, err := memctrl.NewVaultArray(j.cfg, factory, memctrl.VaultOptions{
		Options: mcOpts,
		Workers: opts.Shards,
	})
	if err != nil {
		return RunResult{}, fmt.Errorf("experiment: run %s/%s/%s: %w", j.cfg.Name, j.benchmark, j.kind, err)
	}

	end := opts.Warmup + opts.Measure
	epoch := j.cfg.RefreshInterval() / 4

	var front *cache.DRAMCache
	if opts.Stacked {
		front = cache.NewDRAMCache(config.Table2_3DCache())
	}

	n := va.Vaults()
	warmModule := make([]dram.ModuleStats, n)
	warmPolicy := make([]core.PolicyStats, n)
	warmDropped := make([]uint64, n)
	warmed := false
	takeWarmupSnapshot := func(t sim.Time) {
		va.FlushTo(t)
		for v := 0; v < n; v++ {
			ctl := va.Vault(v)
			ctl.Module().Finalize(t)
			warmModule[v] = ctl.Module().Stats()
			warmPolicy[v] = ctl.Policy().Stats()
			warmDropped[v] = ctl.RefreshesDroppedSelfRefresh()
		}
		warmed = true
	}
	submit := func(t sim.Time, addr uint64, write bool) {
		va.Enqueue(memctrl.Request{Time: t, Addr: addr, Write: write})
	}

	next := sim.Time(epoch)
	for nrec := 0; ; nrec++ {
		rec, ok := j.source.Next()
		if !ok || rec.Time >= end {
			break
		}
		if nrec&(cancelCheckStride-1) == 0 {
			if err := cancelled(); err != nil {
				return RunResult{}, err
			}
		}
		for next <= rec.Time && next < end {
			va.FlushTo(next)
			next += sim.Time(epoch)
		}
		if !warmed && rec.Time >= opts.Warmup {
			takeWarmupSnapshot(rec.Time)
			for next <= rec.Time {
				// The snapshot flushed to rec.Time; skip epoch boundaries
				// the array has already passed.
				next += sim.Time(epoch)
			}
		}
		if opts.Stacked {
			res := front.Access(rec.Time, rec.Addr, rec.Write)
			for _, da := range res.DataAccesses {
				submit(da.Time, da.Addr, da.Write)
			}
		} else {
			submit(rec.Time, rec.Addr, rec.Write)
		}
	}
	if !warmed {
		// Idle stream: no record ever crossed the warmup boundary.
		takeWarmupSnapshot(opts.Warmup)
	}
	va.Finish(end)
	if err := cancelled(); err != nil {
		return RunResult{}, err
	}
	if j.vaultTiming != nil {
		*j.vaultTiming = va.Timing()
	}

	// Per-op energies and background rates key off the per-vault
	// geometry, exactly as inside the array.
	pvCfg := j.cfg
	pvCfg.Geometry = j.cfg.Geometry.PerVault()
	pvCfg.Power.Geometry = pvCfg.Geometry

	whole := va.Results(end)
	agg := memctrl.Results{
		Span: whole.Span,
		// Latency is not warm-windowed on the monolithic path either; the
		// stack-level quantiles come from the merged per-vault histogram.
		AvgLatencyNS: whole.AvgLatencyNS,
		P50LatencyNS: whole.P50LatencyNS,
		P99LatencyNS: whole.P99LatencyNS,
	}
	perVault := make([]memctrl.Results, n)
	for v := 0; v < n; v++ {
		r := va.Vault(v).Results(end)
		r.Module = r.Module.Sub(warmModule[v])
		r.Policy = r.Policy.Sub(warmPolicy[v])
		r.RefreshesDroppedSelfRefresh -= warmDropped[v]
		r.Energy = pvCfg.Power.Evaluate(r.Module, r.Policy)
		r.RefreshOps = r.Module.RefreshOps
		r.RefreshCBR = r.Module.RefreshCBROps
		r.RefreshRASOnly = r.Module.RefreshRASOnlyOps
		r.RefreshPerBank = r.Module.RefreshPerBankOps
		r.DemandStall = r.Module.DemandStall
		if opts.Measure > 0 {
			r.RefreshPerSecond = float64(r.Module.RefreshOps) / opts.Measure.Seconds()
		}
		perVault[v] = r

		agg.Requests += r.Requests
		agg.RowHits += r.RowHits
		agg.RefreshesDroppedSelfRefresh += r.RefreshesDroppedSelfRefresh
		agg.Module = agg.Module.Add(r.Module)
		agg.Policy = agg.Policy.Add(r.Policy)
		agg.Energy = agg.Energy.Add(r.Energy)
	}
	agg.RefreshOps = agg.Module.RefreshOps
	agg.RefreshCBR = agg.Module.RefreshCBROps
	agg.RefreshRASOnly = agg.Module.RefreshRASOnlyOps
	agg.RefreshPerBank = agg.Module.RefreshPerBankOps
	agg.DemandStall = agg.Module.DemandStall
	if opts.Measure > 0 {
		agg.RefreshPerSecond = float64(agg.Module.RefreshOps) / opts.Measure.Seconds()
	}

	return RunResult{
		Benchmark:    j.benchmark,
		Policy:       j.kind,
		Config:       j.cfg.Name,
		Window:       opts.Measure,
		Results:      agg,
		Vaults:       perVault,
		RetentionErr: va.RetentionErr(),
	}, nil
}

// cancelCheckStride is how many trace records the simulation loop
// processes between context checks: rare enough to stay invisible on the
// hot path, frequent enough that cancellation lands in well under a
// millisecond of wall time.
const cancelCheckStride = 4096

// PairMetrics compares Smart Refresh against the CBR baseline for one
// benchmark on one configuration — the quantities every figure reports.
type PairMetrics struct {
	Benchmark string
	Config    string

	BaselineRefreshesPerSec float64
	SmartRefreshesPerSec    float64
	RefreshReductionPct     float64

	BaselineRefreshEnergyMJ float64
	SmartRefreshEnergyMJ    float64
	RefreshEnergySavingPct  float64

	BaselineTotalEnergyMJ float64
	SmartTotalEnergyMJ    float64
	TotalEnergySavingPct  float64

	// PerfImprovementPct is the Figure 18 metric: relative reduction in
	// refresh-induced demand stall folded into the run time.
	PerfImprovementPct float64
}

// RunPair runs the baseline and Smart Refresh on the same stream and
// derives the comparison metrics.
func RunPair(cfg config.DRAM, prof workload.Profile, opts RunOptions) PairMetrics {
	return PairFrom(Run(cfg, prof, PolicyCBR, opts), Run(cfg, prof, PolicySmart, opts))
}

// PairFrom derives the comparison metrics from a finished baseline run
// and a Smart Refresh run of the same stream. Every percentage guards its
// denominator: a zero window, zero baseline rate or zero baseline energy
// leaves the corresponding percentage at zero rather than NaN/Inf.
func PairFrom(base, smart RunResult) PairMetrics {
	pm := PairMetrics{Benchmark: base.Benchmark, Config: base.Config}
	pm.BaselineRefreshesPerSec = base.RefreshesPerSecond()
	pm.SmartRefreshesPerSec = smart.RefreshesPerSecond()
	if pm.BaselineRefreshesPerSec > 0 {
		pm.RefreshReductionPct = 100 * (1 - pm.SmartRefreshesPerSec/pm.BaselineRefreshesPerSec)
	}

	bre := base.Results.Energy.RefreshRelated()
	sre := smart.Results.Energy.RefreshRelated()
	pm.BaselineRefreshEnergyMJ = bre.Millijoules()
	pm.SmartRefreshEnergyMJ = sre.Millijoules()
	if bre > 0 {
		pm.RefreshEnergySavingPct = 100 * (1 - float64(sre)/float64(bre))
	}

	bte := base.Results.Energy.Total()
	ste := smart.Results.Energy.Total()
	pm.BaselineTotalEnergyMJ = bte.Millijoules()
	pm.SmartTotalEnergyMJ = ste.Millijoules()
	if bte > 0 {
		pm.TotalEnergySavingPct = 100 * (1 - float64(ste)/float64(bte))
	}

	// Figure 18: runtime proxy = measured window + refresh-interference
	// stall; Smart Refresh reduces the stall.
	wall := base.Window
	tBase := float64(wall + base.Results.DemandStall)
	tSmart := float64(wall + smart.Results.DemandStall)
	if tBase > 0 {
		pm.PerfImprovementPct = 100 * (tBase - tSmart) / tBase
	}
	return pm
}
