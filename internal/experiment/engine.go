package experiment

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"smartrefresh/internal/config"
	"smartrefresh/internal/core"
	"smartrefresh/internal/telemetry"
	"smartrefresh/internal/trace"
	"smartrefresh/internal/workload"
)

// RunSpec identifies one simulation run by value: one of the four
// evaluated configurations, one paper benchmark by name, one policy, and
// the run options. Specs normalise to a canonical form (window defaults
// applied, the stacked flag derived from the configuration), so two specs
// describing the same work compare equal — which is what makes a RunSpec
// the Engine's memoisation key.
type RunSpec struct {
	Config    ConfigKind
	Benchmark string
	Policy    PolicyKind
	Opts      RunOptions
}

// normalize returns the canonical form of the spec: run-option defaults
// resolved against the configuration's refresh interval and the stacked
// flag forced to the configuration's front-end.
func (s RunSpec) normalize() RunSpec {
	s.Opts = s.Opts.withDefaults(s.Config.DRAM().RefreshInterval())
	s.Opts.Stacked = s.Config.Stacked()
	return s
}

// Key renders the canonical cache key. Two specs with equal keys receive
// the same memoised result. Opts.Shards is deliberately absent: a
// vaulted run's results are bit-identical at every shard count (see
// memctrl.VaultArray), so two specs differing only in Shards describe
// the same work and share one simulation.
func (s RunSpec) Key() string {
	n := s.normalize()
	key := fmt.Sprintf("%s/%s/%s/w%d/m%d/ret%v/sr%d",
		n.Config, n.Benchmark, n.Policy,
		int64(n.Opts.Warmup), int64(n.Opts.Measure),
		n.Opts.CheckRetention, int64(n.Opts.SelfRefreshAfter))
	if ps := n.Opts.PowerStates; ps.Enabled() {
		// Appended only when armed, so every pre-existing key — and any
		// memo or artifact derived from one — is byte-identical.
		key += fmt.Sprintf("/ps%d-%d-%d-%d",
			int64(ps.ActPdnAfter), int64(ps.PrePdnFastAfter),
			int64(ps.PrePdnSlowAfter), int64(ps.SRSlowAfter))
	}
	return key
}

// profile resolves the spec's benchmark name.
func (s RunSpec) profile() (workload.Profile, error) {
	return workload.ByName(s.Benchmark)
}

// Job is one fully-specified simulation for Engine.RunJobs. Unlike a
// RunSpec it carries an arbitrary configuration (the ablation studies
// sweep non-preset configs) and optional policy/source constructors, so
// it is executed without memoisation; Engine.Run resolves a spec to the
// Job it describes and runs it the same way. The constructors run inside
// the job, giving each run its own policy and generator state.
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

// label names the job in errors and its trace span.
func (job *Job) label() string {
	return job.Cfg.Name + "/" + job.Prof.Name + "/" + job.Policy.String()
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
}

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
// memoises RunSpec results, so sweeps that share runs (Figures 6/7/8 and
// friends) simulate each (config, benchmark, policy) combination exactly
// once. Results are deterministic and independent of the worker count:
// every job builds its own generator and runs alone on its machine (an
// idle one reset to the state a new one has, or a new one), and batch
// results are ordered by job index, never by completion order.
//
// An Engine is safe for concurrent use once running; configure Workers
// and the hooks before submitting the first job.
type Engine struct {
	// Workers bounds the worker pool; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Checkpoint, when non-nil, persists every completed memoised result
	// and pre-warms the memo: a spec whose key is already in the
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

	// Trace, when non-nil, records every simulated job's DRAM commands
	// (one scope per job) plus a wall-clock span per job on the engine
	// process row. Telemetry lives on the engine — not in RunOptions —
	// so RunSpec stays comparable and the memo keys are unaffected.
	Trace *telemetry.Tracer
	// Metrics, when non-nil, has every job's controller metrics (under
	// "<config>/<benchmark>/<policy>/...") and the engine's own counters
	// registered into it. Memoised re-runs replace rather than duplicate
	// their rows.
	Metrics *telemetry.Registry

	mu sync.Mutex
	// memo is keyed by RunSpec.Key() rather than the spec value, so
	// specs differing only in fields the key excludes (Opts.Shards)
	// share one flight.
	memo  map[string]*memoEntry
	stats EngineStats

	hookMu      sync.Mutex
	metricsOnce sync.Once
}

// memoEntry is a singleflight slot: the first claimant simulates and
// closes done; later claimants wait on done and read res/err. A panic in
// the simulation is converted into err for every claimant (Engine.run
// recovers it), so waiters can never hang on a failed flight.
type memoEntry struct {
	done chan struct{}
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
// configured registry, once, on first job submission.
func (e *Engine) registerEngineMetrics() {
	// The nil check stays outside the Once so the disabled path costs a
	// pointer compare, not a closure allocation per job.
	if e.Metrics == nil {
		return
	}
	e.metricsOnce.Do(func() {
		e.Metrics.RegisterGauge("engine/jobs_started", func() float64 { return float64(e.Stats().Started) })
		e.Metrics.RegisterGauge("engine/jobs_finished", func() float64 { return float64(e.Stats().Finished) })
		e.Metrics.RegisterGauge("engine/cache_hits", func() float64 { return float64(e.Stats().CacheHits) })
		e.Metrics.RegisterGauge("engine/sim_wall_seconds", func() float64 { return e.Stats().SimWall.Seconds() })
	})
}

// closedDone is the pre-closed singleflight channel used for memo
// entries restored from a checkpoint: there is no flight to wait for.
var closedDone = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// Run returns the result for one spec, simulating it at most once per
// engine lifetime. Concurrent calls with equal (canonicalised) specs
// share a single simulation; the duplicates count as cache hits. The
// simulation checks Engine.Ctx at record and tick/advance boundaries, so
// a cancelled sweep stops within microseconds of simulated progress
// rather than after the current job. A flight aborted by that context is
// removed from the memo and never checkpointed — its partial state must
// never be served later.
func (e *Engine) Run(spec RunSpec) (RunResult, error) {
	ctx := e.baseCtx()
	spec = spec.normalize()
	prof, err := spec.profile()
	if err != nil {
		return RunResult{}, err
	}
	if err := ctx.Err(); err != nil {
		return RunResult{}, err
	}
	// normalize() already applied the option defaults.
	job := Job{Cfg: spec.Config.DRAM(), Prof: prof, Policy: spec.Policy, Opts: spec.Opts}

	key := spec.Key()
	e.mu.Lock()
	if ent, ok := e.memo[key]; ok {
		e.stats.CacheHits++
		e.mu.Unlock()
		select {
		case <-ent.done:
		case <-ctx.Done():
			return RunResult{}, ctx.Err()
		}
		e.emit(e.OnJobDone, &job, true, 0)
		return ent.res, ent.err
	}
	if e.memo == nil {
		e.memo = map[string]*memoEntry{}
	}
	if res, ok := e.Checkpoint.lookup(key); ok {
		// Completed in a previous (interrupted) sweep: pre-warm the memo
		// and serve it as a cache hit.
		e.memo[key] = &memoEntry{done: closedDone, res: res}
		e.stats.CacheHits++
		e.mu.Unlock()
		e.emit(e.OnJobDone, &job, true, 0)
		return res, nil
	}
	ent := &memoEntry{done: make(chan struct{})}
	e.memo[key] = ent
	e.mu.Unlock()

	ent.res, ent.err = e.run(ctx, &job)
	close(ent.done)
	if ent.err != nil && ctx.Err() != nil {
		// Aborted by the engine's context: forget the flight so a resumed
		// engine re-simulates it.
		e.mu.Lock()
		delete(e.memo, key)
		e.mu.Unlock()
		return RunResult{}, ent.err
	}
	if ent.err == nil {
		if cerr := e.Checkpoint.record(key, ent.res); cerr != nil {
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

// RunJobs executes fully-specified jobs across the worker pool without
// memoisation (their configurations need not be presets), returning
// results in job order. A job that fails — or is skipped or aborted
// because Engine.Ctx is done — comes back with RunResult.Err set.
func (e *Engine) RunJobs(jobs []Job) []RunResult {
	ctx := e.baseCtx()
	out := make([]RunResult, len(jobs))
	e.forEach(len(jobs), func(i int) {
		job := &jobs[i]
		res, err := e.run(ctx, job)
		if err != nil {
			res = RunResult{Benchmark: job.Prof.Name, Policy: job.Policy, Config: job.Cfg.Name, Err: err}
		}
		out[i] = res
	})
	return out
}

// run is the one job runner behind Run, RunAll and RunJobs. It counts
// the job, fires OnJobStart, builds the job's source and policy and
// executes it, then counts the finished job, records its trace span and
// fires OnJobDone — in that order: set-up is timed from OnJobStart to
// the source's first record. A panicking job (a rejected configuration
// or constructor) reports through the error instead of taking down the
// worker pool. A job skipped or aborted because ctx is done counts as
// no finished work and fires no OnJobDone.
func (e *Engine) run(ctx context.Context, job *Job) (RunResult, error) {
	if err := ctx.Err(); err != nil {
		return RunResult{}, err
	}
	e.mu.Lock()
	e.stats.Started++
	e.mu.Unlock()
	e.registerEngineMetrics()
	e.emit(e.OnJobStart, job, false, 0)

	jobStart := e.Trace.JobStart()
	start := time.Now()
	res, err := func() (res RunResult, err error) {
		defer func() {
			if r := recover(); r != nil {
				res, err = RunResult{}, fmt.Errorf("experiment: run %s panicked: %v", job.label(), r)
			}
		}()
		opts := job.Opts.withDefaults(job.Cfg.RefreshInterval())
		var src trace.Source
		if job.MakeSource != nil {
			src = job.MakeSource()
		} else {
			src = job.Prof.NewSource(opts.Stacked)
		}
		j := newRunJob(job.Cfg, job.Prof, job.Policy, opts, src)
		j.makePolicy, j.retMap = job.MakePolicy, job.RetentionMap
		j.trace, j.metrics = e.Trace, e.Metrics
		return execute(ctx, j)
	}()
	wall := time.Since(start)
	if err != nil && ctx.Err() != nil {
		return RunResult{}, err
	}

	if e.Trace.Enabled() {
		e.Trace.JobSpan(job.label(), jobStart, wall)
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
	hook(JobEvent{Config: job.Cfg.Name, Benchmark: job.Prof.Name, Policy: job.Policy, Cached: cached, Wall: wall})
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
