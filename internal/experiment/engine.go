package experiment

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"smartrefresh/internal/config"
	"smartrefresh/internal/core"
	"smartrefresh/internal/sim"
	"smartrefresh/internal/telemetry"
	"smartrefresh/internal/trace"
	"smartrefresh/internal/workload"
)

// RunSpec identifies one simulation run by value: one of the evaluated
// configurations, one paper benchmark by name, one policy, and the run
// options. It resolves to the Job it describes, the stacked flag derived
// from the configuration, and memoises by that job's identity.
type RunSpec struct {
	Config    ConfigKind
	Benchmark string
	Policy    PolicyKind
	Opts      RunOptions
}

// job resolves the spec's benchmark name and returns the Job it
// describes, its stacked flag forced to the configuration's front-end.
func (s RunSpec) job() (Job, error) {
	prof, err := workload.ByName(s.Benchmark)
	if err != nil {
		return Job{}, err
	}
	s.Opts.Stacked = s.Config.Stacked()
	return Job{Cfg: s.Config.DRAM(), Prof: prof, Policy: s.Policy, Opts: s.Opts}, nil
}

// Job is one fully-specified simulation for Engine.RunJobs. Unlike a
// RunSpec it carries an arbitrary configuration (the ablation studies
// sweep non-preset configs) and optional policy/source constructors.
// Engine.Run resolves a spec to the Job it describes and runs it the same
// way. A job without constructors is memoised by its identity (see ID);
// the constructors run inside the job, giving each run its own policy
// and generator state, and such a job is never memoised.
type Job struct {
	Cfg    config.DRAM
	Prof   workload.Profile
	Policy PolicyKind
	Opts   RunOptions
	// MakePolicy, when non-nil, overrides the Policy kind's registry
	// constructor (e.g. the RAIDR study's custom bins); Policy then only
	// labels the run and picks its retention slack.
	MakePolicy func() core.Policy
	// MakeSource, when non-nil, overrides the profile's access stream.
	MakeSource func() trace.Source
	// RetentionMap, when non-nil, replaces the map a RetentionMap policy
	// would derive from Prof's seed; with Opts.CheckRetention it also
	// gives the run's retention checker per-row deadlines (the raidr
	// study checks the multirate invariant of its injected profile).
	RetentionMap *core.RetentionMap
}

// ID returns the job's identity, the one name its memo and checkpoint
// entry, metrics, trace scope and span, hook events and errors use:
// "<config>/<benchmark>/<policy>" plus an "@" token per run option that
// differs from its default, in the order w<warmup>, m<measure>, ret,
// sr<threshold>, actpdn, prepdn-fast, prepdn-slow, sr-slow (the armed
// power-state rungs, each with its threshold), e.g.
// "table1-2gb/idle-os/cbr@sr100us". A duration is an integer count of
// the largest unit that divides it. Shards adds no token (results are
// bit-identical at every shard count), nor does Stacked, which the
// configuration fixes; an edited preset or profile must say so in
// Cfg.Name or Prof.Name.
func (job *Job) ID() string {
	j := newRunJob(job.Cfg, job.Prof, job.Policy, job.Opts.withDefaults(job.Cfg.RefreshInterval()), nil)
	return j.identity()
}

// work is the job as the memo compares it: options defaulted, and
// Shards, which moves no result, cleared.
func (job Job) work() Job {
	job.Opts = job.Opts.withDefaults(job.Cfg.RefreshInterval())
	job.Opts.Shards = 0
	return job
}

// identity renders Job.ID's grammar with a token per option of opts that
// differs from def; a stream has no benchmark segment.
func identity(name, benchmark string, kind PolicyKind, opts, def RunOptions) string {
	if benchmark != "" {
		name += "/" + benchmark
	}
	b := []byte(name + "/" + kind.String())
	token := func(tag string, d, def sim.Duration) {
		if d != def {
			b = appendDuration(append(append(b, '@'), tag...), d)
		}
	}
	token("w", opts.Warmup, def.Warmup)
	token("m", opts.Measure, def.Measure)
	if opts.CheckRetention != def.CheckRetention {
		b = append(b, "@ret"...)
	}
	token("sr", opts.SelfRefreshAfter, def.SelfRefreshAfter)
	ps, dps := opts.PowerStates, def.PowerStates
	token("actpdn", ps.ActPdnAfter, dps.ActPdnAfter)
	token("prepdn-fast", ps.PrePdnFastAfter, dps.PrePdnFastAfter)
	token("prepdn-slow", ps.PrePdnSlowAfter, dps.PrePdnSlowAfter)
	token("sr-slow", ps.SRSlowAfter, dps.SRSlowAfter)
	return string(b)
}

// appendDuration renders d exactly, as an integer count of the largest
// unit that divides it: "16ms", "100us", "1500ns".
func appendDuration(b []byte, d sim.Duration) []byte {
	units, u := [...]string{"ps", "ns", "us", "ms", "s"}, 0
	for ; u < len(units)-1 && d != 0 && d%1000 == 0; u++ {
		d /= 1000
	}
	return append(strconv.AppendInt(b, int64(d), 10), units[u]...)
}

// JobEvent describes one engine job to the instrumentation hooks.
type JobEvent struct {
	Config    string
	Benchmark string
	Policy    PolicyKind
	// Cached marks a memoised result returned without simulating.
	Cached bool
	// Wall is the job's simulation wall time (zero on start events and
	// cache hits).
	Wall time.Duration

	job *Job
}

// ID returns the job's identity (see Job.ID), derived on demand so that
// a hook that never asks costs nothing.
func (ev JobEvent) ID() string { return ev.job.ID() }

// EngineStats counts the engine's work since construction.
type EngineStats struct {
	// Started is the number of jobs handed to a worker.
	Started int
	// Finished is the number of jobs that completed a simulation.
	Finished int
	// CacheHits is the number of memoised results served without
	// simulating.
	CacheHits int
	// SimWall is the summed per-job simulation wall time (across all
	// workers, so it exceeds elapsed time when running in parallel).
	SimWall time.Duration
}

// Engine executes simulation jobs across a bounded worker pool and
// memoises them by identity (Job.ID), so sweeps and studies that share
// runs (Figures 6/7/8 and friends) simulate each job exactly once; Run
// and RunJobs share the one memo (see submit). Results are deterministic
// and independent of the worker count: every job builds its own
// generator and runs alone on its machine (an idle one reset to the
// state a new one has, or a new one), and batch results are ordered by
// job index, never by completion order.
//
// An Engine is safe for concurrent use once running; configure Workers
// and the hooks before submitting the first job.
type Engine struct {
	// Workers bounds the worker pool; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Checkpoint, when non-nil, persists every completed memoised result
	// and pre-warms the memo: a job whose identity is already in the
	// checkpoint is served as a cache hit without simulating. This is
	// what makes an interrupted sweep resumable; see Checkpoint.
	Checkpoint *Checkpoint
	// Ctx, when non-nil, cancels the engine's work: once it is done, Run
	// and RunAll return its error and RunJobs results carry it. It is the
	// one context every job runs under — the suites and studies that
	// share the engine inherit it. Nil means never cancelled.
	Ctx context.Context
	// OnJobStart and OnJobDone, when non-nil, observe jobs as they begin
	// and finish (including cache hits). The engine serialises hook
	// invocations, so the callbacks need not be goroutine-safe.
	OnJobStart func(JobEvent)
	OnJobDone  func(JobEvent)

	// Trace, when non-nil, records every simulated job's DRAM commands in
	// a scope, and its wall-clock span on the engine process row, both
	// named by its identity. Telemetry lives on the engine, not in
	// RunOptions, so it never enters an identity.
	Trace *telemetry.Tracer
	// Metrics, when non-nil, has every simulated job's controller metrics
	// ("<identity>/...") and the engine's counters ("engine/...")
	// registered into it. The registry refuses a name it holds: a job
	// whose row collides fails naming the row, as does every job of a
	// second engine on the same registry.
	Metrics *telemetry.Registry

	mu    sync.Mutex
	memo  map[string]*memoEntry // by job identity
	stats EngineStats
	err   error // the first RunJobs failure; see Err

	hookMu      sync.Mutex
	metricsOnce sync.Once
	metricsErr  error
}

// memoEntry is a singleflight slot: the first claimant simulates and
// closes done; later claimants wait on done and read res/err. A panic in
// the simulation becomes err for every claimant (Engine.run recovers
// it), so waiters never hang on a failed flight.
type memoEntry struct {
	done chan struct{}
	work Job // the first claimant's
	res  RunResult
	err  error
}

// NewEngine returns an engine with the given worker bound (<= 0 means
// one worker per CPU).
func NewEngine(workers int) *Engine { return &Engine{Workers: workers} }

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() EngineStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// registerEngineMetrics publishes the engine's own counters into the
// configured registry, once, on first job submission. Its error — the
// registry holds another engine's counters — fails every job.
func (e *Engine) registerEngineMetrics() error {
	// The nil check stays outside the Once so the disabled path costs a
	// pointer compare, not a closure allocation per job.
	if e.Metrics == nil {
		return nil
	}
	e.metricsOnce.Do(func() {
		reg := e.Metrics
		if e.metricsErr = reg.RegisterGauge("engine/jobs_started", func() float64 { return float64(e.Stats().Started) }); e.metricsErr == nil {
			e.metricsErr = errors.Join(
				reg.RegisterGauge("engine/jobs_finished", func() float64 { return float64(e.Stats().Finished) }),
				reg.RegisterGauge("engine/cache_hits", func() float64 { return float64(e.Stats().CacheHits) }),
				reg.RegisterGauge("engine/sim_wall_seconds", func() float64 { return e.Stats().SimWall.Seconds() }))
		}
	})
	return e.metricsErr
}

// closedDone is the pre-closed singleflight channel used for memo
// entries restored from a checkpoint: there is no flight to wait for.
var closedDone = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// Run returns the result for one spec, through the memo every job
// without constructors shares (see submit). The simulation checks
// Engine.Ctx at record and tick/advance boundaries, so a cancelled sweep
// stops within microseconds of simulated progress rather than after the
// current job.
func (e *Engine) Run(spec RunSpec) (RunResult, error) {
	job, err := spec.job()
	if err != nil {
		return RunResult{}, err
	}
	return e.submit(&job)
}

// submit returns job's result. A job without MakeSource or MakePolicy
// goes through the memo, keyed by its identity: the first claimant
// simulates, and every later one — from Run or RunJobs, from any study —
// shares its flight as a cache hit, or gets an error naming the identity
// if its work differs. A flight aborted by Engine.Ctx is removed from
// the memo and never checkpointed: its partial state must never be
// served later.
func (e *Engine) submit(job *Job) (RunResult, error) {
	ctx := e.baseCtx()
	if err := ctx.Err(); err != nil {
		return RunResult{}, err
	}
	if job.MakeSource != nil || job.MakePolicy != nil {
		return e.run(ctx, job, "")
	}
	id, w := job.ID(), job.work()
	e.mu.Lock()
	if e.memo == nil {
		e.memo = map[string]*memoEntry{}
	}
	ent, claimed := e.memo[id]
	if res, ok := e.Checkpoint.lookup(id); ok && !claimed {
		// Completed in a previous (interrupted) sweep: pre-warm the memo.
		ent, claimed = &memoEntry{done: closedDone, work: w, res: res}, true
		e.memo[id] = ent
	}
	if claimed {
		if !reflect.DeepEqual(ent.work, w) {
			e.mu.Unlock()
			return RunResult{}, fmt.Errorf("experiment: job %s: the identity names a job of another configuration, profile or options; name the variant in Cfg.Name or Prof.Name", id)
		}
		e.stats.CacheHits++
		e.mu.Unlock()
		select {
		case <-ent.done:
		case <-ctx.Done():
			return RunResult{}, ctx.Err()
		}
		e.emit(e.OnJobDone, job, true, 0)
		return ent.res, ent.err
	}
	ent = &memoEntry{done: make(chan struct{}), work: w}
	e.memo[id] = ent
	e.mu.Unlock()

	ent.res, ent.err = e.run(ctx, job, id)
	close(ent.done)
	if ent.err != nil && ctx.Err() != nil {
		// Aborted by the engine's context: forget the flight so a resumed
		// engine re-simulates it.
		e.mu.Lock()
		delete(e.memo, id)
		e.mu.Unlock()
		return RunResult{}, ent.err
	}
	if ent.err == nil {
		if cerr := e.Checkpoint.record(id, ent.res); cerr != nil {
			// The result is valid but not durably recorded; surface the
			// I/O failure instead of promising a resumable sweep.
			return ent.res, cerr
		}
	}
	return ent.res, ent.err
}

// RunAll executes the specs across the worker pool and returns their
// results in spec order: result i belongs to specs[i] for any worker
// count. Duplicate and previously-run specs are served from the memo.
// Once Engine.Ctx is done, in-flight jobs abort at their next
// cancellation point, remaining jobs are skipped, and the batch returns
// the context's error. Partial results are never returned — a resumed
// sweep re-derives them from the engine memo and checkpoint instead.
func (e *Engine) RunAll(specs []RunSpec) ([]RunResult, error) {
	out := make([]RunResult, len(specs))
	errs := make([]error, len(specs))
	e.forEach(len(specs), func(i int) {
		out[i], errs[i] = e.Run(specs[i])
	})
	if err := e.baseCtx().Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// RunJobs executes fully-specified jobs across the worker pool, through
// the same memo as Run (see submit), returning results in job order. A
// job that fails — or is skipped or aborted because Engine.Ctx is done —
// comes back with RunResult.Err set.
func (e *Engine) RunJobs(jobs []Job) []RunResult {
	out := make([]RunResult, len(jobs))
	e.forEach(len(jobs), func(i int) {
		job := &jobs[i]
		res, err := e.submit(job)
		if err != nil {
			res = RunResult{Benchmark: job.Prof.Name, Policy: job.Policy, Config: job.Cfg.Name, Err: err}
			e.mu.Lock()
			if e.err == nil && e.baseCtx().Err() == nil {
				e.err = err
			}
			e.mu.Unlock()
		}
		out[i] = res
	})
	return out
}

// Err returns the first error a RunJobs job failed with, cancellation
// aside, such as two jobs of one identity. A study that reports a failed
// job in its point rather than in an error, as the power-state sweep
// does, leaves the failure here.
func (e *Engine) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// run is the one job runner behind Run, RunAll and RunJobs; id is the
// job's identity, or empty when nothing has derived it yet. It counts
// the job, fires OnJobStart, builds the job's source and policy and
// executes it, then counts the finished job, records its trace span and
// fires OnJobDone — in that order: set-up is timed from OnJobStart to
// the source's first record. A panicking job (a rejected configuration
// or constructor) reports through the error instead of taking down the
// worker pool. A job skipped or aborted because ctx is done counts as
// no finished work and fires no OnJobDone.
func (e *Engine) run(ctx context.Context, job *Job, id string) (RunResult, error) {
	if err := ctx.Err(); err != nil {
		return RunResult{}, err
	}
	if err := e.registerEngineMetrics(); err != nil {
		return RunResult{}, err
	}
	e.mu.Lock()
	e.stats.Started++
	e.mu.Unlock()
	e.emit(e.OnJobStart, job, false, 0)

	opts := job.Opts.withDefaults(job.Cfg.RefreshInterval())
	j := newRunJob(job.Cfg, job.Prof, job.Policy, opts, nil)
	j.id, j.makePolicy, j.retMap = id, job.MakePolicy, job.RetentionMap
	j.trace, j.metrics = e.Trace, e.Metrics
	jobStart := e.Trace.JobStart()
	start := time.Now()
	res, err := func() (res RunResult, err error) {
		defer func() {
			if r := recover(); r != nil {
				res, err = RunResult{}, fmt.Errorf("experiment: run %s panicked: %v", j.identity(), r)
			}
		}()
		if job.MakeSource != nil {
			j.source = job.MakeSource()
		} else {
			j.source = job.Prof.NewSource(opts.Stacked)
		}
		return execute(ctx, &j)
	}()
	wall := time.Since(start)
	if err != nil && ctx.Err() != nil {
		return RunResult{}, err
	}

	if e.Trace.Enabled() {
		e.Trace.JobSpan(j.identity(), jobStart, wall)
	}
	e.mu.Lock()
	e.stats.Finished++
	e.stats.SimWall += wall
	e.mu.Unlock()
	e.emit(e.OnJobDone, job, false, wall)
	return res, err
}

func (e *Engine) emit(hook func(JobEvent), job *Job, cached bool, wall time.Duration) {
	if hook == nil {
		return
	}
	e.hookMu.Lock()
	defer e.hookMu.Unlock()
	hook(JobEvent{Config: job.Cfg.Name, Benchmark: job.Prof.Name, Policy: job.Policy, Cached: cached, Wall: wall, job: job})
}

func (e *Engine) baseCtx() context.Context {
	if e.Ctx != nil {
		return e.Ctx
	}
	return context.Background()
}

func (e *Engine) workers() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// forEach runs fn(0..n-1) across the worker pool. Workers claim indices
// from a shared counter; each index is processed exactly once.
func (e *Engine) forEach(n int, fn func(int)) {
	w := e.workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
