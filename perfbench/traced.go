package main

import (
	"sync"
	"sync/atomic"
	"time"

	"smartrefresh/internal/cache"
	"smartrefresh/internal/config"
	"smartrefresh/internal/core"
	"smartrefresh/internal/dram"
	"smartrefresh/internal/experiment"
	"smartrefresh/internal/memctrl"
	"smartrefresh/internal/power"
	"smartrefresh/internal/sim"
	"smartrefresh/internal/trace"
)

// The traced run times each layer from outside, through its public
// functions. It replays experiment.execute's record loop (and its vaulted
// twin) step for step, so its results must fingerprint identically to the
// engine's; the run checks that they do.

// sampleEvery is the sampling period of the per-call timers on the hot
// layers: one call in sampleEvery is timed, every call is counted.
const sampleEvery = 8

// probe is one layer's call count and the host time of its timed calls.
type probe struct {
	calls, timed uint64
	ns           int64
}

// sample counts a call and reports whether to time it.
func (p *probe) sample() bool {
	p.calls++
	return p.calls%sampleEvery == 1
}

func (p *probe) add(d time.Duration) {
	p.timed++
	p.ns += int64(d)
}

func (p *probe) merge(o probe) {
	p.calls += o.calls
	p.timed += o.timed
	p.ns += o.ns
}

// perCall is the mean host nanoseconds of a timed call.
func (p probe) perCall() float64 {
	if p.timed == 0 {
		return 0
	}
	return float64(p.ns) / float64(p.timed)
}

// layers is what one traced job (or, merged, one traced round) measured.
type layers struct {
	records     uint64 // records simulated (inside the window)
	next        probe  // trace.Source.Next
	cacheAccess probe  // cache.DRAMCache.Access
	cacheHits   uint64
	cacheData   uint64 // data-array accesses the cache emitted
	submit      probe  // memctrl.Controller.Submit
	submitSelf  int64  // timed Submit ns minus the policy calls inside them
	drain       time.Duration
	enqueue     probe // memctrl.VaultArray.Enqueue
	flush       probe // memctrl.VaultArray.FlushTo; calls = epochs
	advance     probe // core.Policy.Advance
	restore     probe // core.Policy.OnRowRestore
	evaluate    probe // power.Model.Evaluate
	// vaultRequests is the demand count per vault index (vaulted runs).
	vaultRequests []uint64
}

func (l *layers) merge(o layers) {
	l.records += o.records
	l.next.merge(o.next)
	l.cacheAccess.merge(o.cacheAccess)
	l.cacheHits += o.cacheHits
	l.cacheData += o.cacheData
	l.submit.merge(o.submit)
	l.submitSelf += o.submitSelf
	l.drain += o.drain
	l.enqueue.merge(o.enqueue)
	l.flush.merge(o.flush)
	l.advance.merge(o.advance)
	l.restore.merge(o.restore)
	l.evaluate.merge(o.evaluate)
	if len(l.vaultRequests) < len(o.vaultRequests) {
		l.vaultRequests = append(l.vaultRequests, make([]uint64, len(o.vaultRequests)-len(l.vaultRequests))...)
	}
	for v, n := range o.vaultRequests {
		l.vaultRequests[v] += n
	}
}

// timedPolicy is a core.Policy decorator timing Advance and OnRowRestore.
// While inSubmit is set — during a timed Controller.Submit — it times
// every policy call and sums them into nested, so Submit's self time can
// exclude them.
type timedPolicy struct {
	core.Policy
	advance, restore probe
	inSubmit         bool
	nested           time.Duration
}

func (p *timedPolicy) Advance(t sim.Time, dst []core.Command) []core.Command {
	if !p.advance.sample() && !p.inSubmit {
		return p.Policy.Advance(t, dst)
	}
	s := time.Now()
	dst = p.Policy.Advance(t, dst)
	d := time.Since(s)
	p.advance.add(d)
	if p.inSubmit {
		p.nested += d
	}
	return dst
}

func (p *timedPolicy) OnRowRestore(t sim.Time, row dram.RowID) {
	if !p.restore.sample() && !p.inSubmit {
		p.Policy.OnRowRestore(t, row)
		return
	}
	s := time.Now()
	p.Policy.OnRowRestore(t, row)
	d := time.Since(s)
	p.restore.add(d)
	if p.inSubmit {
		p.nested += d
	}
}

func (p *timedPolicy) NextTick() (sim.Time, bool) {
	if !p.inSubmit {
		return p.Policy.NextTick()
	}
	s := time.Now()
	t, ok := p.Policy.NextTick()
	p.nested += time.Since(s)
	return t, ok
}

// tracedJob runs one job through the layers directly, timing each. m
// meters the job exactly as the engine's hooks do.
func tracedJob(j benchJob, m *jobMeter) (experiment.RunResult, layers) {
	m.begin()
	defer m.finish()
	opts := j.Opts
	interval := j.Cfg.RefreshInterval()
	if opts.Warmup == 0 {
		opts.Warmup = interval
	}
	if opts.Measure == 0 {
		opts.Measure = 4 * interval
	}
	t := &tracer{src: newSource(j.Prof, opts.Stacked, j.seed), m: m, opts: opts}
	if opts.Stacked {
		t.front = cache.NewDRAMCache(config.Table2_3DCache())
	}
	mcOpts := memctrl.Options{SelfRefreshAfter: opts.SelfRefreshAfter, PowerStates: opts.PowerStates}
	var res experiment.RunResult
	if j.Cfg.Geometry.Vaulted() {
		res = t.runVaulted(j, mcOpts)
	} else {
		res = t.run(j, mcOpts)
	}
	return res, t.l
}

// tracer holds one traced job's stream, meter, 3D-cache front-end and
// counters.
type tracer struct {
	src   trace.Source
	m     *jobMeter
	front *cache.DRAMCache
	opts  experiment.RunOptions
	l     layers
}

// next reads one record. The meter polls outside the timed call, so the
// reference slices it runs stay out of the generator's time.
func (t *tracer) next() (trace.Record, bool) {
	if t.l.next.calls%pollStride == 0 {
		t.m.poll()
	}
	if !t.l.next.sample() {
		return t.src.Next()
	}
	s := time.Now()
	rec, ok := t.src.Next()
	t.l.next.add(time.Since(s))
	return rec, ok
}

// forEachRequest maps one record to the DRAM requests it causes: itself,
// or on stacked runs the 3D cache's data-array accesses.
func (t *tracer) forEachRequest(rec trace.Record, fn func(sim.Time, uint64, bool)) {
	if t.front == nil {
		fn(rec.Time, rec.Addr, rec.Write)
		return
	}
	var res cache.DRAMCacheResult
	if t.l.cacheAccess.sample() {
		s := time.Now()
		res = t.front.Access(rec.Time, rec.Addr, rec.Write)
		t.l.cacheAccess.add(time.Since(s))
	} else {
		res = t.front.Access(rec.Time, rec.Addr, rec.Write)
	}
	if res.Hit {
		t.l.cacheHits++
	}
	t.l.cacheData += uint64(len(res.DataAccesses))
	for _, da := range res.DataAccesses {
		fn(da.Time, da.Addr, da.Write)
	}
}

func (t *tracer) evaluate(m power.Model, ms dram.ModuleStats, ps core.PolicyStats) power.Breakdown {
	t.l.evaluate.calls++
	s := time.Now()
	b := m.Evaluate(ms, ps)
	t.l.evaluate.add(time.Since(s))
	return b
}

// windowed finishes a measured-window Results the way the engine does:
// refresh fields re-derived from the windowed module stats. perBank is
// re-derived only on the vaulted path, as in the engine.
func windowed(r memctrl.Results, window sim.Duration, perBank bool) memctrl.Results {
	r.RefreshOps = r.Module.RefreshOps
	r.RefreshCBR = r.Module.RefreshCBROps
	r.RefreshRASOnly = r.Module.RefreshRASOnlyOps
	if perBank {
		r.RefreshPerBank = r.Module.RefreshPerBankOps
	}
	r.DemandStall = r.Module.DemandStall
	if window > 0 {
		r.RefreshPerSecond = float64(r.Module.RefreshOps) / window.Seconds()
	}
	return r
}

// run is experiment.execute with every layer call timed.
func (t *tracer) run(j benchJob, mcOpts memctrl.Options) experiment.RunResult {
	opts := t.opts
	pol := &timedPolicy{Policy: experiment.NewPolicy(j.Cfg, j.Policy)}
	ctl := memctrl.MustNew(j.Cfg, pol, mcOpts)
	end := opts.Warmup + opts.Measure

	warmModule, warmPolicy := ctl.Module().Stats(), pol.Stats()
	var warmDropped uint64
	warmed := false
	snapshot := func(at sim.Time) {
		s := time.Now()
		ctl.AdvanceTo(at)
		t.l.drain += time.Since(s)
		ctl.Module().Finalize(at)
		warmModule, warmPolicy = ctl.Module().Stats(), pol.Stats()
		warmDropped = ctl.RefreshesDroppedSelfRefresh()
		warmed = true
	}
	submit := func(at sim.Time, addr uint64, write bool) {
		req := memctrl.Request{Time: at, Addr: addr, Write: write}
		if !t.l.submit.sample() {
			ctl.Submit(req)
			return
		}
		pol.inSubmit, pol.nested = true, 0
		s := time.Now()
		ctl.Submit(req)
		d := time.Since(s)
		pol.inSubmit = false
		t.l.submit.add(d)
		t.l.submitSelf += int64(d - pol.nested)
	}
	for {
		rec, ok := t.next()
		if !ok || rec.Time >= end {
			break
		}
		t.l.records++
		if !warmed && rec.Time >= opts.Warmup {
			snapshot(rec.Time)
		}
		t.forEachRequest(rec, submit)
	}
	if !warmed {
		snapshot(opts.Warmup)
	}
	s := time.Now()
	ctl.Finish(end)
	t.l.drain += time.Since(s)
	t.l.advance, t.l.restore = pol.advance, pol.restore

	full := ctl.Results(end)
	full.Module = full.Module.Sub(warmModule)
	full.Policy = full.Policy.Sub(warmPolicy)
	full.RefreshesDroppedSelfRefresh -= warmDropped
	full.Energy = t.evaluate(j.Cfg.Power, full.Module, full.Policy)
	return experiment.RunResult{
		Benchmark:    j.Prof.Name,
		Policy:       j.Policy,
		Config:       j.Cfg.Name,
		Window:       opts.Measure,
		Results:      windowed(full, opts.Measure, false),
		RetentionErr: ctl.RetentionErr(),
	}
}

// runVaulted is experiment.executeVaulted with every layer call timed.
func (t *tracer) runVaulted(j benchJob, mcOpts memctrl.Options) experiment.RunResult {
	opts := t.opts
	var pols []*timedPolicy // vault order; the factory runs serially
	factory := func(_ int, vcfg config.DRAM) (core.Policy, error) {
		p := &timedPolicy{Policy: experiment.NewPolicy(vcfg, j.Policy)}
		pols = append(pols, p)
		return p, nil
	}
	va := memctrl.MustNewVaultArray(j.Cfg, factory, memctrl.VaultOptions{Options: mcOpts, Workers: opts.Shards})
	end := opts.Warmup + opts.Measure
	epoch := j.Cfg.RefreshInterval() / 4

	flushTo := func(at sim.Time) {
		t.l.flush.calls++
		s := time.Now()
		va.FlushTo(at)
		d := time.Since(s)
		t.l.flush.add(d)
		t.l.drain += d
	}
	n := va.Vaults()
	warmModule := make([]dram.ModuleStats, n)
	warmPolicy := make([]core.PolicyStats, n)
	warmDropped := make([]uint64, n)
	warmed := false
	snapshot := func(at sim.Time) {
		flushTo(at)
		for v := 0; v < n; v++ {
			ctl := va.Vault(v)
			ctl.Module().Finalize(at)
			warmModule[v] = ctl.Module().Stats()
			warmPolicy[v] = ctl.Policy().Stats()
			warmDropped[v] = ctl.RefreshesDroppedSelfRefresh()
		}
		warmed = true
	}
	enqueue := func(at sim.Time, addr uint64, write bool) {
		req := memctrl.Request{Time: at, Addr: addr, Write: write}
		if !t.l.enqueue.sample() {
			va.Enqueue(req)
			return
		}
		s := time.Now()
		va.Enqueue(req)
		t.l.enqueue.add(time.Since(s))
	}

	next := sim.Time(epoch)
	for {
		rec, ok := t.next()
		if !ok || rec.Time >= end {
			break
		}
		t.l.records++
		for next <= rec.Time && next < end {
			flushTo(next)
			next += sim.Time(epoch)
		}
		if !warmed && rec.Time >= opts.Warmup {
			snapshot(rec.Time)
			for next <= rec.Time {
				next += sim.Time(epoch)
			}
		}
		t.forEachRequest(rec, enqueue)
	}
	if !warmed {
		snapshot(opts.Warmup)
	}
	s := time.Now()
	va.Finish(end)
	t.l.drain += time.Since(s)
	for _, p := range pols {
		t.l.advance.merge(p.advance)
		t.l.restore.merge(p.restore)
	}

	pvCfg := j.Cfg
	pvCfg.Geometry = j.Cfg.Geometry.PerVault()
	pvCfg.Power.Geometry = pvCfg.Geometry

	whole := va.Results(end)
	agg := memctrl.Results{
		Span:         whole.Span,
		AvgLatencyNS: whole.AvgLatencyNS,
		P50LatencyNS: whole.P50LatencyNS,
		P99LatencyNS: whole.P99LatencyNS,
	}
	perVault := make([]memctrl.Results, n)
	t.l.vaultRequests = make([]uint64, n)
	for v := 0; v < n; v++ {
		r := va.Vault(v).Results(end)
		r.Module = r.Module.Sub(warmModule[v])
		r.Policy = r.Policy.Sub(warmPolicy[v])
		r.RefreshesDroppedSelfRefresh -= warmDropped[v]
		r.Energy = t.evaluate(pvCfg.Power, r.Module, r.Policy)
		r = windowed(r, opts.Measure, true)
		perVault[v] = r
		t.l.vaultRequests[v] = r.Requests

		agg.Requests += r.Requests
		agg.RowHits += r.RowHits
		agg.RefreshesDroppedSelfRefresh += r.RefreshesDroppedSelfRefresh
		agg.Module = agg.Module.Add(r.Module)
		agg.Policy = agg.Policy.Add(r.Policy)
		agg.Energy = agg.Energy.Add(r.Energy)
	}
	return experiment.RunResult{
		Benchmark:    j.Prof.Name,
		Policy:       j.Policy,
		Config:       j.Cfg.Name,
		Window:       opts.Measure,
		Results:      windowed(agg, opts.Measure, true),
		Vaults:       perVault,
		RetentionErr: va.RetentionErr(),
	}
}

// forEachJob runs fn(0..n-1) on workers goroutines, as the engine's
// worker pool does, and returns once every call has.
func forEachJob(n, workers int, fn func(int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers && w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}
