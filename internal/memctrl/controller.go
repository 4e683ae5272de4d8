package memctrl

import (
	"errors"
	"fmt"
	"math/bits"

	"smartrefresh/internal/config"
	"smartrefresh/internal/core"
	"smartrefresh/internal/dram"
	"smartrefresh/internal/power"
	"smartrefresh/internal/sim"
	"smartrefresh/internal/stats"
	"smartrefresh/internal/telemetry"
)

// Request is one demand memory transaction presented to the controller.
// Addr is a physical byte address; requests must arrive in nondecreasing
// time order.
type Request struct {
	Time  sim.Time
	Addr  uint64
	Write bool
}

// Options tune controller construction.
type Options struct {
	// CheckRetention attaches a retention checker that validates every
	// row's restore deadline during simulation (costs memory proportional
	// to row count; meant for tests and debug runs).
	CheckRetention bool
	// RetentionSlack widens the checked deadline; zero checks the exact
	// refresh interval plus one refresh-op grace (see Controller docs).
	RetentionSlack sim.Duration
	// RetentionMap, when non-nil together with CheckRetention, scales each
	// row's checked deadline by its retention-class multiplier — the
	// invariant the retention-aware policy must satisfy instead of the
	// uniform deadline. New and Reset reject a map of another row count.
	RetentionMap *core.RetentionMap
	// SelfRefreshAfter, when positive, puts a rank into module
	// self-refresh after that much demand-idle time; it must exceed the
	// page-close timeout. The policy's refreshes to that rank are covered
	// internally while it sleeps.
	SelfRefreshAfter sim.Duration
	// PowerStates arms the intermediate power-down rungs of the per-rank
	// power-state ladder (ACT-PDN, PRE-PDN fast/slow, slow-wake SR); see
	// PowerStateConfig. The zero value leaves every rung unarmed and the
	// controller on the historical two-state (idle-close → self-refresh)
	// behaviour, bit for bit.
	PowerStates PowerStateConfig
	// Trace, when non-nil, records every DRAM command (demand ACT/PRE/
	// READ/WRITE, both refresh kinds, idle page-closes and self-refresh
	// residency spans) into the tracer under one scope per controller.
	// Nil — the default — keeps the hot paths at a pointer compare.
	Trace *telemetry.Tracer
	// Metrics, when non-nil, has the controller's counters and latency
	// histogram registered into it under MetricsPrefix; New and Reset
	// fail on a name the registry already holds.
	Metrics *telemetry.Registry
	// MetricsPrefix names the controller's metrics and trace scope (the
	// experiment engine passes the job's identity); empty derives
	// "<config>/<policy>".
	MetricsPrefix string
	// Interrupt, when non-nil, is polled periodically inside the
	// controller's tick/advance event drains; once it reports true the
	// drain returns early. This is the cooperative-cancellation hook for
	// context-aware callers (an aborted drain leaves the controller's
	// statistics partial, so the caller must discard the run). Nil — the
	// default — keeps the drain loop branch-free beyond a pointer
	// compare.
	Interrupt func() bool
}

// DefaultIdleClose is the page-close timeout: the controller precharges
// a bank whose page has been idle this long, so idle ranks can enter
// precharge power-down (the timeout every open-page controller
// implements).
const DefaultIdleClose = 2 * sim.Microsecond

// Latency histogram shape: 2 ns buckets up to 2 us cover every DRAM
// latency of interest; pathological stalls land in the overflow bucket.
// Every controller uses the same shape so per-vault histograms merge.
const (
	latencyHistBuckets = 1024
	latencyHistWidth   = 2
)

// Controller owns one DRAM module and one refresh policy and interleaves
// demand traffic with refresh operations in simulated-time order.
//
// Retention checking note: a refresh command due at tick T starts at T (or
// when its bank frees) and restores cells when it completes, roughly
// T + tRefreshRow later; the checker therefore allows one small grace
// window past the interval (RetentionGrace) exactly as real controllers
// budget command latency inside the retention margin.
type Controller struct {
	cfg    config.DRAM
	module *dram.Module
	policy core.Policy
	mapper *Mapper

	// bankShift is log2 Banks and rankShift log2 Ranks: flat bank b
	// (see dram.RowID) lies in flat rank b >> bankShift, and flat rank ri
	// in channel ri >> rankShift.
	bankShift uint
	rankShift uint

	// bankAware is non-nil when the policy schedules refreshes around
	// per-bank demand pressure (the DARP/SARP family). The controller
	// then acts as a refresh-vs-demand arbiter: every demand access is
	// reported to the policy at issue, after the events before it and
	// *before* the refresh events at the same instant are drained, so a
	// per-bank refresh colliding with a demand access on its bank
	// deterministically yields (is postponed) unless the bank's deficit
	// window forces it. Other policies leave this nil.
	bankAware core.BankAware

	// checker is the retention checker under Options.CheckRetention, nil
	// otherwise. spareChecker keeps the one built first, so a Reset that
	// checks again reuses its table.
	checker      *core.RetentionChecker
	spareChecker *core.RetentionChecker

	cmds  []core.Command
	woken []int // flat ranks a refresh tick woke from power-down

	latency     stats.Sample
	latencyHist *stats.Histogram
	rowHits     stats.Counter
	requests    stats.Counter

	now      sim.Time
	lastbusy sim.Time // completion time of the latest demand access

	// idle holds, per flat bank with an open page, its page-close
	// deadline: the bank's last demand completion plus DefaultIdleClose.
	// A demand sets it; every path that closes the page clears it.
	idle sim.MinIndex

	// ps is the per-rank power-state machine (self-refresh is its
	// deepest rung); armed when SelfRefreshAfter or any PowerStates
	// threshold is positive.
	ps powerStates

	// trace is the controller's telemetry scope (shared with the module);
	// nil when tracing is disabled.
	trace *telemetry.Scope

	// refreshesDroppedSR counts policy refresh commands elided because
	// their rank was in self-refresh.
	refreshesDroppedSR uint64

	// interrupt is Options.Interrupt; nil when cancellation is not wired.
	// interruptIn counts drained events down to the next poll; it lives
	// on the controller so the stride spans Submit and AdvanceTo calls.
	interrupt   func() bool
	interruptIn int
}

// RetentionGrace is the command-latency allowance added to the checked
// retention deadline: queueing behind at most QueueDepth refreshes plus
// the refresh operation itself, rounded up generously.
const RetentionGrace = 2 * sim.Microsecond

// New builds a controller for a configuration and policy.
func New(cfg config.DRAM, policy core.Policy, opts Options) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// A vault controller runs on its own worker during a barrier, so it
	// and its buffers own their cache lines (DESIGN §16).
	g := &cfg.Geometry
	c := sim.OwnLine[Controller]()
	*c = Controller{
		cfg:         cfg,
		module:      dram.NewModule(cfg.Geometry, cfg.Timing),
		mapper:      NewMapper(cfg.Geometry),
		cmds:        sim.OwnLines[core.Command](core.TickCommands)[:0],
		woken:       sim.OwnLines[int](g.Channels * g.Ranks)[:0],
		latencyHist: stats.NewHistogram(latencyHistBuckets, latencyHistWidth),
		idle:        sim.NewMinIndex(g.TotalBanks()),
		bankShift:   uint(bits.TrailingZeros(uint(g.Banks))),
		rankShift:   uint(bits.TrailingZeros(uint(g.Ranks))),
	}
	if err := c.Reset(policy, opts); err != nil {
		return nil, err
	}
	return c, nil
}

// Reset readies the controller for a new run of its configuration with
// policy and opts: the controller New(cfg, policy, opts) returns, built
// on this one's module, histogram and event tables. The policy is Reset
// to time zero, as New does. On an error (a nil policy, a rejected
// option or a metric name opts.Metrics already holds) the controller is
// left as it was.
func (c *Controller) Reset(policy core.Policy, opts Options) error {
	if policy == nil {
		return fmt.Errorf("memctrl: nil policy")
	}
	if err := opts.PowerStates.validate(opts.SelfRefreshAfter); err != nil {
		return err
	}
	if opts.RetentionMap != nil {
		if err := opts.RetentionMap.CheckRows(&c.cfg.Geometry); err != nil {
			return err
		}
	}
	if opts.Metrics != nil {
		// Registered before anything changes, so a name the registry
		// holds already leaves the controller as it was.
		if err := c.registerMetrics(opts.Metrics, opts.prefix(c.cfg, policy)); err != nil {
			return err
		}
	}
	c.module.Reset()
	c.policy = policy
	c.bankAware, _ = policy.(core.BankAware)
	c.checker = nil
	c.cmds = c.cmds[:0]
	c.woken = c.woken[:0]
	c.latency = stats.Sample{}
	c.latencyHist.Reset()
	c.rowHits.Reset()
	c.requests.Reset()
	c.now, c.lastbusy = 0, 0
	c.idle.Reset()
	c.trace = nil
	c.refreshesDroppedSR = 0
	c.interrupt, c.interruptIn = opts.Interrupt, 0

	if opts.CheckRetention {
		deadline := c.cfg.Timing.RefreshInterval + RetentionGrace + opts.RetentionSlack
		if c.spareChecker == nil {
			c.spareChecker = core.NewRetentionChecker(c.cfg.Geometry, deadline, opts.RetentionMap)
		} else {
			c.spareChecker.Reset(deadline, opts.RetentionMap)
		}
		c.checker = c.spareChecker
	}
	if opts.Trace != nil {
		c.trace = opts.Trace.Scope(opts.prefix(c.cfg, policy))
		c.module.SetTraceScope(c.trace)
		// Rank-residency spans (self-refresh) get their own thread rows
		// after the per-bank rows; see rankTid.
		g := c.cfg.Geometry
		for ch := 0; ch < g.Channels; ch++ {
			for rk := 0; rk < g.Ranks; rk++ {
				c.trace.NameThread(c.rankTid(ch*g.Ranks+rk), fmt.Sprintf("ch%d/rk%d (rank)", ch, rk))
			}
		}
	}
	if sp, ok := policy.(interface {
		SetTraceScope(*telemetry.Scope)
	}); ok {
		// A reused policy may still hold an earlier run's scope.
		sp.SetTraceScope(c.trace)
	}
	c.armPowerStates(opts.SelfRefreshAfter, opts.PowerStates)
	if opts.PowerStates.Enabled() {
		// Switch the module to residency-vector accounting. Plain
		// two-state configurations (only SelfRefreshAfter) skip this,
		// which keeps their energy evaluation — and every golden figure
		// and fingerprint — on the historical path.
		c.module.EnablePowerStates()
	}
	policy.Reset(0)
	return nil
}

// MustNew is New for tests and examples where the configuration is a
// vetted preset.
func MustNew(cfg config.DRAM, policy core.Policy, opts Options) *Controller {
	c, err := New(cfg, policy, opts)
	if err != nil {
		panic(err)
	}
	return c
}

// rankTid maps a flat rank index onto the trace thread rows reserved
// after the per-bank rows.
func (c *Controller) rankTid(ri int) int {
	return c.cfg.Geometry.TotalBanks() + ri
}

// prefix names the controller's trace scope and metrics: MetricsPrefix,
// or "<config>/<policy>" when it is empty.
func (o *Options) prefix(cfg config.DRAM, policy core.Policy) string {
	if o.MetricsPrefix != "" {
		return o.MetricsPrefix
	}
	return cfg.Name + "/" + policy.Name()
}

// registerMetrics publishes the controller's counters, the latency
// histogram and snapshot gauges over module/policy statistics under
// prefix. The gauges read live state, so dump metrics only after the run
// has finished. A registry that already holds the first name holds the
// prefix, and that one name is the error.
func (c *Controller) registerMetrics(reg *telemetry.Registry, prefix string) error {
	if err := reg.RegisterCounter(prefix+"/requests", &c.requests); err != nil {
		return err
	}
	return errors.Join(
		reg.RegisterCounter(prefix+"/row_hits", &c.rowHits),
		reg.RegisterHistogram(prefix+"/latency_ns", c.latencyHist),
		reg.RegisterGauge(prefix+"/refresh_ops", func() float64 { return float64(c.module.Stats().RefreshOps) }),
		reg.RegisterGauge(prefix+"/refresh_cbr_ops", func() float64 { return float64(c.module.Stats().RefreshCBROps) }),
		reg.RegisterGauge(prefix+"/refresh_rasonly_ops", func() float64 { return float64(c.module.Stats().RefreshRASOnlyOps) }),
		reg.RegisterGauge(prefix+"/refresh_conflict_ops", func() float64 { return float64(c.module.Stats().RefreshConflictOps) }),
		reg.RegisterGauge(prefix+"/refresh_perbank_ops", func() float64 { return float64(c.module.Stats().RefreshPerBankOps) }),
		reg.RegisterGauge(prefix+"/refresh_overlap_ops", func() float64 { return float64(c.module.Stats().RefreshOverlapOps) }),
		reg.RegisterGauge(prefix+"/policy_refreshes_postponed", func() float64 { return float64(c.policy.Stats().RefreshesPostponed) }),
		reg.RegisterGauge(prefix+"/policy_refreshes_pulledin", func() float64 { return float64(c.policy.Stats().RefreshesPulledIn) }),
		reg.RegisterGauge(prefix+"/policy_refreshes_forced", func() float64 { return float64(c.policy.Stats().RefreshesForced) }),
		reg.RegisterGauge(prefix+"/demand_stall_ns", func() float64 { return c.module.Stats().DemandStall.Nanoseconds() }),
		reg.RegisterGauge(prefix+"/selfrefresh_entries", func() float64 { return float64(c.module.Stats().SelfRefreshEntries) }),
		reg.RegisterGauge(prefix+"/refreshes_dropped_selfrefresh", func() float64 { return float64(c.refreshesDroppedSR) }),
		reg.RegisterGauge(prefix+"/policy_refreshes_requested", func() float64 { return float64(c.policy.Stats().RefreshesRequested) }),
		reg.RegisterGauge(prefix+"/policy_counter_reads", func() float64 { return float64(c.policy.Stats().CounterReads) }),
		reg.RegisterGauge(prefix+"/policy_counter_writes", func() float64 { return float64(c.policy.Stats().CounterWrites) }),
		reg.RegisterGauge(prefix+"/policy_max_pending_per_tick", func() float64 { return float64(c.policy.Stats().MaxPendingPerTick) }),
		reg.RegisterGauge(prefix+"/policy_bloom_lookups", func() float64 { return float64(c.policy.Stats().BloomLookups) }),
		reg.RegisterGauge(prefix+"/policy_bloom_false_positives", func() float64 { return float64(c.policy.Stats().BloomFalsePositives) }),
	)
}

// Module exposes the underlying DRAM model.
func (c *Controller) Module() *dram.Module { return c.module }

// Policy exposes the refresh policy.
func (c *Controller) Policy() core.Policy { return c.policy }

// Mapper exposes the address mapper.
func (c *Controller) Mapper() *Mapper { return c.mapper }

// restore fans a restore of row in flat bank bank out to the policy and
// the checker.
func (c *Controller) restore(t sim.Time, bank, row int) {
	c.policy.OnRowRestore(t, dram.RowInBank(&c.cfg.Geometry, bank, row))
	if c.checker != nil {
		c.checker.OnRestore(t, bank, row)
	}
}

// closeIdleBank precharges one bank at its page-close deadline and
// reports the restored row (a precharge write-back restores cells).
func (c *Controller) closeIdleBank(deadline sim.Time, flat int) {
	ri := flat >> c.bankShift
	woke := c.module.RankState(ri) == PSActPdn
	if woke {
		// The rank dozed off in ACT-PDN with this page open; wake it
		// (not demand — the idle clock keeps running) so the precharge
		// can issue. It pays the tXP exit via the raised bank timings,
		// and settles back down once the page is closed.
		c.wakeRank(deadline, ri)
	}
	if row, closed := c.module.Precharge(deadline, flat); closed {
		c.restore(deadline, flat, row)
		if c.trace != nil {
			c.trace.Command(telemetry.CmdIdleClose, flat, row, deadline, deadline+c.cfg.Timing.TRP)
		}
	}
	// The bank stays precharged until the next demand sets a deadline.
	c.idle.Clear(flat)
	if woke {
		c.settle(ri, deadline)
	}
}

// runRefreshTick advances the policy through one tick at time due and
// dispatches the due refresh commands to the module (Figure 5: pending
// refresh request queue feeding RAS-only refreshes, or plain CBR in
// baseline/disabled mode).
func (c *Controller) runRefreshTick(due sim.Time) {
	cmds := c.policy.Advance(due, c.cmds[:0])
	if cap(cmds) > cap(c.cmds) {
		// The tick outgrew the buffer (coincident Oracle deadlines): the
		// grown one moves onto lines of its own as well.
		cmds = append(sim.OwnLines[core.Command](cap(cmds))[:0], cmds...)
	}
	c.cmds = cmds
	for i := range c.cmds {
		cmd := &c.cmds[i]
		ri := cmd.Bank >> c.bankShift
		switch state := c.module.RankState(ri); {
		case state.SelfRefresh():
			// The rank refreshes itself while asleep.
			c.refreshesDroppedSR++
			continue
		case state != PSAwake:
			// A refresh cannot issue with CKE low: wake a powered-down
			// rank first. The wake is not demand (lastDemand stays), so
			// the rank settles back down once the tick's commands issue.
			c.wakeRank(due, ri)
			c.woken = append(c.woken, ri)
		}
		var res dram.Refreshed
		switch {
		case cmd.Kind == dram.RefreshPerBank:
			res = c.module.RefreshBank(due, cmd.Bank, cmd.Overlap)
		case cmd.Row >= 0:
			res = c.module.RefreshRow(due, cmd.Bank, cmd.Row)
		default:
			res = c.module.RefreshCBR(due, cmd.Bank)
		}
		if res.ClosedRow >= 0 {
			// Closing the open page restored that row too, and leaves
			// the bank no page to close.
			c.idle.Clear(cmd.Bank)
			c.restore(res.Issue, cmd.Bank, res.ClosedRow)
		}
		if c.checker != nil {
			// The policy accounted for its own refresh (and CBR-kind
			// refreshes bypass it); only the checker sees the restore.
			c.checker.OnRestore(res.Done, cmd.Bank, res.Row)
		}
	}
	for _, ri := range c.woken {
		c.settle(ri, due)
	}
	c.woken = c.woken[:0]
}

// interruptCheckStride is how many drained events pass between
// Options.Interrupt polls: a long advance over an idle window processes
// tens of thousands of refresh ticks, so polling every 1024 keeps
// cancellation latency in the microseconds while costing the hot loop
// nothing measurable.
const interruptCheckStride = 1024

// drainRefreshes processes internal events (refresh policy ticks and idle
// page-closes) in time order up to t, so a refresh due just before a
// page-close deadline sees the bank state it would have seen in real
// time. Stepping event by event keeps the timestamps exact even when
// demand traffic is sparse. When Options.Interrupt reports true the
// drain abandons the remaining events — the caller is tearing the run
// down and its statistics will be discarded.
func (c *Controller) drainRefreshes(t sim.Time) {
	for {
		if c.interrupt != nil {
			if c.interruptIn--; c.interruptIn <= 0 {
				c.interruptIn = interruptCheckStride
				if c.interrupt() {
					return
				}
			}
		}
		rt, rok := c.policy.NextTick()
		ct, flat, cok := c.idle.Min()
		pt, ri, pok := c.ps.slots.Min()
		// Same-timestamp tie-break, explicit and deterministic: a
		// refresh tick wins over an idle page-close, which wins over a
		// power-state transition. Within each source the order is also
		// fixed — idle-closes by (deadline, flat bank index), power
		// events by (deadline, rank index) — so simultaneous deadlines
		// replay identically on every run.
		switch {
		case rok && rt <= t && (!cok || rt <= ct) && (!pok || rt <= pt):
			c.runRefreshTick(rt)
		case cok && ct <= t && (!pok || ct <= pt):
			c.closeIdleBank(ct, flat)
		case pok && pt <= t:
			c.runPowerEvent(pt, ri)
		default:
			return
		}
	}
}

// Submit processes one demand request. Requests must be presented in
// nondecreasing time order; Submit panics otherwise, because out-of-order
// submission corrupts every statistic downstream.
func (c *Controller) Submit(req Request) dram.AccessResult {
	if req.Time < c.now {
		panic(fmt.Sprintf("memctrl: request at %v before controller time %v", req.Time, c.now))
	}
	c.now = req.Time
	bank, row := c.mapper.Map(req.Addr)
	if c.bankAware != nil {
		// Arbitration: the events before req.Time run before the policy
		// hears of the demand, so no slot sees a demand from its future;
		// the demand is reported before the events at req.Time, so a
		// per-bank refresh due exactly now on this bank sees the pressure
		// and defers (demand-first tie-break) — unless its deficit window
		// forces it, in which case refresh-first is the correct,
		// retention-safe order.
		c.drainRefreshes(req.Time - 1)
		c.bankAware.OnDemandObserved(req.Time, bank, req.Write)
	}
	c.drainRefreshes(req.Time)

	ri := bank >> c.bankShift
	if c.ps.armed {
		c.wakeRank(req.Time, ri)
	}
	var res dram.AccessResult
	c.module.Access(&res, req.Time, bank, row, req.Write)
	c.idle.Set(bank, res.Done+DefaultIdleClose)
	c.noteDemand(res.Done, ri)

	// A row-buffer hit touches only the sense amplifiers; the cells were
	// already drained by the earlier activate, so a hit restores nothing
	// and must NOT reset the row's counter deadline. (The activate that
	// opened the row did.) Every other access activated the requested
	// row, after a conflict first closed — and so restored — the old one.
	if res.Conflict {
		c.restore(res.Issue, bank, res.ClosedRow)
	}
	if !res.RowHit {
		c.restore(res.Issue, bank, row)
	}

	c.requests.Inc()
	if res.RowHit {
		c.rowHits.Inc()
	}
	lat := res.Latency(req.Time).Nanoseconds()
	c.latency.Observe(lat)
	c.latencyHist.Observe(lat)
	if res.Done > c.lastbusy {
		c.lastbusy = res.Done
	}
	return res
}

// AdvanceTo lets simulated time pass without demand traffic: refreshes
// due up to t are dispatched. Calls made before a request's time leave
// every result as it would be without them; a request at exactly t
// arrives after the events at t have run.
func (c *Controller) AdvanceTo(t sim.Time) {
	if t < c.now {
		return
	}
	c.now = t
	c.drainRefreshes(t)
}

// Finish closes the simulation at time end: outstanding refreshes are
// drained, ranks still asleep have their self-refresh residency reported
// to the retention checker, module background accounting is flushed, and
// the retention checker (if any) performs its end-of-run scan.
func (c *Controller) Finish(end sim.Time) {
	c.AdvanceTo(end)
	c.finishPowerStates(end)
	c.module.Finalize(end)
	if c.checker != nil {
		c.checker.CheckEnd(end)
	}
}

// RefreshesDroppedSelfRefresh returns the number of policy refresh
// commands elided because their rank was in self-refresh (the module's
// internal engine covered them). PolicyStats.RefreshesRequested equals
// ModuleStats.RefreshOps plus this count — an invariant internal/check
// verifies across policies.
func (c *Controller) RefreshesDroppedSelfRefresh() uint64 { return c.refreshesDroppedSR }

// RetentionErr returns the retention checker verdict (nil without a
// checker or without violations).
func (c *Controller) RetentionErr() error {
	if c.checker == nil {
		return nil
	}
	return c.checker.Err()
}

// Results summarises a finished run.
type Results struct {
	Span             sim.Duration
	Requests         uint64
	RowHits          uint64
	AvgLatencyNS     float64
	P50LatencyNS     float64
	P99LatencyNS     float64
	RefreshOps       uint64
	RefreshCBR       uint64
	RefreshRASOnly   uint64
	RefreshPerBank   uint64
	RefreshPerSecond float64
	DemandStall      sim.Duration
	// RefreshesDroppedSelfRefresh counts policy refresh commands elided
	// because their rank was in self-refresh (covered by the module's
	// internal engine). Policy.RefreshesRequested = RefreshOps + this.
	RefreshesDroppedSelfRefresh uint64
	Module                      dram.ModuleStats
	Policy                      core.PolicyStats
	Energy                      power.Breakdown
}

// Results computes the summary as of time end (call Finish(end) first).
func (c *Controller) Results(end sim.Time) Results {
	ms := c.module.Stats()
	ps := c.policy.Stats()
	r := Results{
		Span:         end,
		Requests:     c.requests.Value(),
		RowHits:      c.rowHits.Value(),
		AvgLatencyNS: c.latency.Mean(),
		P50LatencyNS: c.latencyHist.Quantile(0.5),
		P99LatencyNS: c.latencyHist.Quantile(0.99),

		RefreshesDroppedSelfRefresh: c.refreshesDroppedSR,

		Module: ms,
		Policy: ps,
		Energy: c.cfg.Power.Evaluate(ms, ps),
	}
	r.mirrorModule(end)
	return r
}

// Snapshot is a controller's cumulative counters at one instant — the
// warmup boundary a measured window is taken from.
type Snapshot struct {
	Module             dram.ModuleStats
	Policy             core.PolicyStats
	DroppedSelfRefresh uint64
}

// Snapshot finalises the module's time accounting at t (advance the
// controller to t first) and returns the cumulative counters.
func (c *Controller) Snapshot(t sim.Time) Snapshot {
	c.module.Finalize(t)
	return Snapshot{Module: c.module.Stats(), Policy: c.policy.Stats(), DroppedSelfRefresh: c.refreshesDroppedSR}
}

// ResultsSince is Results(end) over the window after s: module and
// policy counters and the self-refresh-dropped count are differenced
// against s, energy is re-evaluated on the difference, and
// RefreshPerSecond is taken over window. Requests, row hits and the
// latency summaries stay whole-run.
func (c *Controller) ResultsSince(end sim.Time, s Snapshot, window sim.Duration) Results {
	r := c.Results(end)
	r.Module = r.Module.Sub(s.Module)
	r.Policy = r.Policy.Sub(s.Policy)
	r.RefreshesDroppedSelfRefresh -= s.DroppedSelfRefresh
	r.Energy = c.cfg.Power.Evaluate(r.Module, r.Policy)
	r.mirrorModule(window)
	return r
}

// mirrorModule derives the refresh fields Results mirrors from Module,
// with RefreshPerSecond over window (zero for an empty window).
func (r *Results) mirrorModule(window sim.Duration) {
	ms := &r.Module
	r.RefreshOps = ms.RefreshOps
	r.RefreshCBR = ms.RefreshCBROps
	r.RefreshRASOnly = ms.RefreshRASOnlyOps
	r.RefreshPerBank = ms.RefreshPerBankOps
	r.DemandStall = ms.DemandStall
	r.RefreshPerSecond = 0
	if window > 0 {
		r.RefreshPerSecond = float64(ms.RefreshOps) / window.Seconds()
	}
}
