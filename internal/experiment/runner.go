// Package experiment reproduces the paper's evaluation: one harness per
// figure (Figures 6-18) plus the section 4.4/4.6 studies, each producing
// the same per-benchmark series and GMEAN rows the paper plots, alongside
// the paper's published aggregate for comparison.
package experiment

import (
	"context"
	"fmt"
	"math"

	"smartrefresh/internal/cache"
	"smartrefresh/internal/config"
	"smartrefresh/internal/core"
	"smartrefresh/internal/memctrl"
	"smartrefresh/internal/sim"
	"smartrefresh/internal/telemetry"
	"smartrefresh/internal/trace"
	"smartrefresh/internal/workload"
)

// RunOptions control a single simulation run.
type RunOptions struct {
	// Warmup is excluded from the measured statistics (defaults to one
	// refresh interval: the seeded counters make Smart Refresh behave
	// like the baseline during the first interval).
	Warmup sim.Duration
	// Measure is the measured window after warmup (defaults to four
	// refresh intervals). A negative Warmup or Measure is rejected.
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
	// A monolithic module is one vault, so it runs serially at any value.
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

// RunResult is the measured window of one run.
type RunResult struct {
	Benchmark string
	Policy    PolicyKind
	Config    string
	Window    sim.Duration
	Results   memctrl.Results
	// Vaults holds each vault's measured window (vault index order) when
	// the configuration has more than one vault; Results is then the
	// stack-level fold of these entries. A monolithic module runs as a
	// one-vault array whose Results is its controller's own, and Vaults
	// is nil.
	Vaults []memctrl.Results
	// RetentionErr is non-nil if the checker observed a violation.
	RetentionErr error `json:"-"`
	// Err is non-nil when the job could not be simulated at all (the
	// configuration or option combination was rejected); the remaining
	// fields are meaningless then. Run and Engine.RunJobs populate it;
	// Engine.Run and RunAll report the same failures through their error
	// return instead.
	Err error `json:"-"`
}

// RefreshesPerSecond returns refresh operations per measured second.
func (r RunResult) RefreshesPerSecond() float64 {
	if r.Window <= 0 {
		return 0
	}
	return float64(r.Results.Module.RefreshOps) / r.Window.Seconds()
}

// Run simulates one benchmark profile against one configuration and
// policy and returns the post-warmup measured window. A run that could
// not be simulated (a rejected configuration, policy or window) comes
// back with RunResult.Err set.
func Run(cfg config.DRAM, prof workload.Profile, kind PolicyKind, opts RunOptions) RunResult {
	opts = opts.withDefaults(cfg.RefreshInterval())
	j := newRunJob(cfg, prof, kind, opts, prof.NewSource(opts.Stacked))
	res, err := execute(context.Background(), &j)
	res.Err = err
	return res
}

// Stream is an access stream a caller supplies in place of a
// benchmark's generator: a replayed trace, or a check scenario's
// synthetic workload.
type Stream struct {
	// Source yields the records. Wrappers around it (validation,
	// capture, progress observers) stay the caller's: one that latches
	// an error ends the stream, and the caller reads the error after
	// the run.
	Source trace.Source
	// Name labels the run (empty means the configuration's name): its
	// identity, which errors, metrics and trace scope use, is
	// "<Name>/<policy>" plus a token per non-zero option (see Job.ID).
	Name string
	// Seed derives a RetentionMap policy's per-row map, as a benchmark's
	// seed does.
	Seed uint64
	// Trace and Metrics are the telemetry sinks (nil = disabled).
	Trace   *telemetry.Tracer
	Metrics *telemetry.Registry
}

// StreamResult is a RunStream outcome.
type StreamResult struct {
	RunResult
	// Dropped is each controller's RefreshesDroppedSelfRefresh after the
	// run (one entry per vault when vaulted). It is read from the
	// controllers, apart from Results, so invariant checks can hold the
	// two against each other.
	Dropped []uint64
}

// RunStream runs s through the record loop every Run uses, with two
// differences: opts gets no defaults applied, and the stream never goes
// through the 3D-cache front end (it already is the DRAM's stream), so
// opts.Stacked is rejected. Warmup 0 means no warmup: the measured
// window starts at t=0 from the zero Snapshot. Measure 0 runs open-ended:
// until the source is exhausted, closing one refresh interval after the
// last record.
func RunStream(ctx context.Context, cfg config.DRAM, kind PolicyKind, opts RunOptions, s Stream) (StreamResult, error) {
	name := s.Name
	if name == "" {
		name = cfg.Name
	}
	id := identity(name, "", kind, opts, RunOptions{})
	if opts.Stacked {
		return StreamResult{}, fmt.Errorf("experiment: run %s: a stream is already the DRAM access stream; Stacked is not supported", id)
	}
	j := runJob{cfg: cfg, kind: kind, id: id, seed: s.Seed, source: s.Source, opts: opts,
		trace: s.Trace, metrics: s.Metrics}
	var out StreamResult
	j.inspect = func(t *runTarget) { out.Dropped = t.dropped() }
	var err error
	out.RunResult, err = execute(ctx, &j)
	return out, err
}

// runJob is one fully-resolved simulation: a configuration, a policy, an
// access stream and the measurement window. Every field is owned by this
// job alone, so jobs are safe to execute concurrently. The telemetry
// sinks are the exception — they are shared across jobs and internally
// synchronised (both no-op when nil).
type runJob struct {
	cfg       config.DRAM
	benchmark string
	kind      PolicyKind
	// id is the run's identity (see Job.ID): it names the run in errors,
	// metrics and trace scope.
	id string
	// seed is the workload seed a RetentionMap policy derives its map
	// from when retMap is nil.
	seed uint64
	// makePolicy, when non-nil, replaces the registry constructor
	// (one-vault geometries only).
	makePolicy func() core.Policy
	source     trace.Source
	opts       RunOptions // defaults already applied (RunStream: literal)
	// retMap is the per-row retention map of a RetentionMap policy; with
	// opts.CheckRetention it also scales the checker's per-row deadlines
	// (see memctrl.Options.RetentionMap).
	retMap *core.RetentionMap

	trace   *telemetry.Tracer
	metrics *telemetry.Registry

	// inspect, when non-nil, sees the finished target before its results
	// are read (a vaulted run's barrier timing, the dropped counts).
	inspect func(*runTarget)
}

// newRunJob starts a job that runs prof's benchmark from source.
func newRunJob(cfg config.DRAM, prof workload.Profile, kind PolicyKind, opts RunOptions, source trace.Source) runJob {
	return runJob{cfg: cfg, benchmark: prof.Name, kind: kind, seed: prof.Seed(), opts: opts, source: source}
}

// identity returns the job's identity, deriving it on first use.
func (j *runJob) identity() string {
	if j.id == "" {
		j.id = identity(j.cfg.Name, j.benchmark, j.kind, j.opts, RunOptions{}.withDefaults(j.cfg.RefreshInterval()))
	}
	return j.id
}

// execute drives one job's stream through its machine — a vault array,
// one vault for a monolithic module, flushed at epoch barriers — taken
// from the idle store and reset, or built when the store has none of the
// job's key. It is the one record loop every run goes through, in one of
// three window shapes:
//
//   - warmup then measure (every benchmark run): the warmup snapshot is
//     taken exactly once, at the first measured record or at the warmup
//     boundary for idle streams, and the run closes at Warmup+Measure;
//   - no warmup (Warmup 0, RunStream only): the zero Snapshot is the warm
//     state, so nothing is advanced or finalised at t=0;
//   - open end (Measure 0, RunStream only): the source runs until it is
//     exhausted and the run closes one refresh interval after its last
//     record.
//
// The array's Finish finalises the module(s) before the measured window
// is read.
//
// Cancellation points: the record loop checks ctx every cancelCheckStride
// records, and the controller's long tick/advance drains poll it through
// memctrl.Options.Interrupt — so cancellation latency is bounded even on
// idle streams where the final Finish drains a whole measurement window
// of refresh ticks. A non-nil error means the partial result was
// discarded; the returned RunResult is then zero.
//
// The machine goes back to the idle store when the job ends, with a
// result or with an error of its input, but not when the job was
// cancelled, failed to start or panicked, nor when it registered
// metrics: the registry keeps reading them. A cancelled job's metrics
// leave the registry, so that a re-run can register them, and its trace
// scopes and their events leave the tracer.
func execute(ctx context.Context, j *runJob) (RunResult, error) {
	fail := func(err error) (RunResult, error) {
		return RunResult{}, fmt.Errorf("experiment: run %s: %w", j.identity(), err)
	}
	opts := j.opts
	if opts.Warmup < 0 || opts.Measure < 0 {
		return fail(fmt.Errorf("negative window (warmup %v, measure %v)", opts.Warmup, opts.Measure))
	}
	entry := j.kind.Entry()
	if entry.RetentionMap && j.retMap == nil {
		j.retMap = DefaultRetentionMap(j.cfg.Geometry, j.seed)
	}
	vaulted := j.cfg.Geometry.VaultCount() > 1
	if vaulted && j.makePolicy != nil {
		// One policy instance cannot be distributed across vaults.
		return fail(fmt.Errorf("MakePolicy overrides are not supported on vaulted geometries"))
	}
	if vaulted && j.retMap != nil {
		// A per-row retention map is indexed against the monolithic
		// geometry; reslicing it per vault is future work.
		return fail(fmt.Errorf("per-row retention maps are not supported on vaulted geometries"))
	}
	if j.retMap != nil {
		if err := j.retMap.CheckRows(&j.cfg.Geometry); err != nil {
			return fail(err)
		}
	}
	m := machines.take(machineKey{cfg: j.cfg, stacked: opts.Stacked})
	keep := false
	defer func() { machines.put(m, keep) }()
	t, err := newRunTarget(ctx, j, entry, m)
	if err != nil {
		return fail(err)
	}
	res, err := t.run(ctx, j)
	keep = ctx.Err() == nil && j.metrics == nil
	if ctx.Err() != nil {
		j.metrics.Unregister(j.identity())
		j.trace.DropScopes(j.identity())
	}
	if err != nil {
		return fail(err)
	}
	return res, nil
}

// run is execute's record loop over t.
func (t *runTarget) run(ctx context.Context, j *runJob) (RunResult, error) {
	opts := j.opts
	end := opts.Warmup + opts.Measure
	open := opts.Measure == 0
	if open {
		end = math.MaxInt64
	}
	var data []cache.MemRequest // one record's data-array accesses, reused
	var addrLimit uint64        // the 3D cache's tag range
	if opts.Stacked {
		addrLimit = t.front.Tags().AddrLimit()
	}

	warmed := opts.Warmup == 0
	var last sim.Time
	for n := 0; ; n++ {
		rec, ok := j.source.Next()
		if !ok || rec.Time >= end {
			break
		}
		if n&(cancelCheckStride-1) == 0 && ctx.Err() != nil {
			return RunResult{}, ctx.Err()
		}
		for t.next < rec.Time && t.next < end {
			t.va.FlushTo(t.next)
			t.next += t.epoch
		}
		if !warmed && rec.Time >= opts.Warmup {
			t.snapshot(rec.Time)
			warmed = true
		}
		if opts.Stacked {
			// The memory traffic behind the 3D cache goes to the
			// conventional DRAM; the paper found it negligible for these
			// footprints and that second module is not simulated here.
			if rec.Addr >= addrLimit {
				return RunResult{}, fmt.Errorf("%w: record %d has address %#x, at or above %#x",
					cache.ErrAddrRange, n, rec.Addr, addrLimit)
			}
			data, _ = t.front.AppendAccess(data[:0], rec.Time, rec.Addr, rec.Write)
			for _, da := range data {
				t.va.Enqueue(memctrl.Request{Time: da.Time, Addr: da.Addr, Write: da.Write})
			}
		} else {
			t.va.Enqueue(memctrl.Request{Time: rec.Time, Addr: rec.Addr, Write: rec.Write})
		}
		last = rec.Time
	}
	if !warmed {
		// Idle stream: no record ever crossed the warmup boundary.
		t.snapshot(opts.Warmup)
	}
	window := opts.Measure
	if open {
		end = last + j.cfg.RefreshInterval()
		window = end - opts.Warmup
	}
	res := RunResult{Benchmark: j.benchmark, Policy: j.kind, Config: j.cfg.Name, Window: window}
	t.va.Finish(end)
	if err := ctx.Err(); err != nil {
		// The controller's drains abort early on interrupt, so anything
		// measured after the cancellation instant is partial state.
		return RunResult{}, err
	}
	if j.inspect != nil {
		j.inspect(t)
	}
	// Each vault's window is taken against its own warm state, then folded
	// in vault index order exactly as VaultArray.Results folds whole-run
	// summaries.
	res.Results, res.Vaults = t.va.ResultsSince(end, t.warm, window)
	res.RetentionErr = t.va.RetentionErr()
	return res, nil
}

// runTarget is one job's view of its machine: a memctrl.VaultArray
// whose vault controllers are advanced in parallel by opts.Shards
// workers between quarter-interval epoch barriers. The epoch schedule is
// a pure function of the record stream, a barrier falls before the
// requests at its time, and the vaults share no mutable state, so a
// run's results are bit-identical at every shard count — which is what
// lets the Engine memoise across differing Shards values — and equal to
// a run without barriers.
type runTarget struct {
	*machine
	// next is the next epoch barrier, epoch the barrier spacing.
	next  sim.Time
	epoch sim.Duration
}

// newRunTarget readies m for the job — an idle machine of the job's key,
// or a new empty one — with the controller options the job's run options
// and telemetry imply.
func newRunTarget(ctx context.Context, j *runJob, entry PolicyEntry, m *machine) (runTarget, error) {
	mcOpts := memctrl.Options{
		CheckRetention:   j.opts.CheckRetention,
		SelfRefreshAfter: j.opts.SelfRefreshAfter,
		PowerStates:      j.opts.PowerStates,
	}
	if j.opts.CheckRetention {
		mcOpts.RetentionSlack = entry.Slack(j.cfg, j.opts.SelfRefreshAfter > 0)
		mcOpts.RetentionMap = j.retMap
	}
	if j.trace != nil || j.metrics != nil {
		mcOpts.Trace = j.trace
		mcOpts.Metrics = j.metrics
		mcOpts.MetricsPrefix = j.identity()
	}
	if ctx.Done() != nil {
		// Only a cancellable context pays for the per-drain polls.
		mcOpts.Interrupt = func() bool { return ctx.Err() != nil }
	}
	if j.opts.Stacked {
		if m.front == nil {
			m.front = cache.NewDRAMCache(config.Table2_3DCache())
		} else {
			m.front.Reset()
		}
	}
	factory := func(v int, vcfg config.DRAM) (core.Policy, error) {
		switch {
		case j.makePolicy != nil:
			return j.makePolicy(), nil
		case entry.RetentionMap:
			return entry.New(vcfg, j.retMap), nil
		}
		return m.policy(j.kind, v, func() core.Policy { return entry.New(vcfg, nil) }), nil
	}
	vopts := memctrl.VaultOptions{Options: mcOpts, Workers: j.opts.Shards}
	var err error
	if m.va == nil {
		m.va, err = memctrl.NewVaultArray(j.cfg, factory, vopts)
	} else {
		err = m.va.Reset(factory, vopts)
	}
	if err != nil {
		return runTarget{}, err
	}
	m.warm = resetSnapshots(m.warm, m.va.Vaults())
	epoch := j.cfg.RefreshInterval() / 4
	return runTarget{machine: m, next: epoch, epoch: epoch}, nil
}

// snapshot brings the target to at and records every controller's warm
// state there.
func (t *runTarget) snapshot(at sim.Time) {
	t.va.FlushTo(at)
	for v := range t.warm {
		t.warm[v] = t.va.Vault(v).Snapshot(at)
	}
	for t.next <= at {
		// The snapshot flushed to at; skip epoch barriers the array has
		// already passed.
		t.next += t.epoch
	}
}

// dropped returns each vault controller's self-refresh-covered refresh
// count.
func (t *runTarget) dropped() []uint64 {
	out := make([]uint64, t.va.Vaults())
	for v := range out {
		out[v] = t.va.Vault(v).RefreshesDroppedSelfRefresh()
	}
	return out
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
