package memctrl

import (
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
	// Interleave selects the address mapping (default RowRankBankColumn).
	Interleave Interleave
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
	// uniform deadline.
	RetentionMap *core.RetentionMap
	// IdleClose precharges a bank whose page has been idle this long, so
	// idle ranks can enter precharge power-down (the page-close timeout
	// every open-page controller implements). Zero selects the default
	// (DefaultIdleClose); a negative value disables idle closing.
	IdleClose sim.Duration
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
	// histogram registered into it under MetricsPrefix.
	Metrics *telemetry.Registry
	// MetricsPrefix namespaces this controller's metrics; empty derives
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

// DefaultIdleClose is the default page-close timeout.
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
	// (BankID.Flat) lies in flat rank b >> bankShift, and flat rank ri
	// in channel ri >> rankShift.
	bankShift uint
	rankShift uint

	// bankAware is non-nil when the policy schedules refreshes around
	// per-bank demand pressure (the DARP/SARP family). The controller
	// then acts as a refresh-vs-demand arbiter: every demand access is
	// reported to the policy at issue, *before* refresh events at the
	// same instant are drained, so a per-bank refresh colliding with a
	// demand access on its bank deterministically yields (is postponed)
	// unless the bank's deficit window forces it. Legacy policies leave
	// this nil and see the original, bit-identical event order.
	bankAware core.BankAware

	checker *core.RetentionChecker
	cmds    []core.Command

	latency     stats.Sample
	latencyHist *stats.Histogram
	rowHits     stats.Counter
	requests    stats.Counter

	now      sim.Time
	lastbusy sim.Time // completion time of the latest demand access

	idleClose   sim.Duration // page-close timeout (<0: never)
	bankLastUse []sim.Time   // per flat bank: last demand activity; write via setBankLastUse

	// idleAt/idleFlat cache the earliest page-close deadline
	// (bankLastUse+idleClose) over the banks, (deadline, flat)-ordered;
	// idleOK is false when no candidate is cached. The cache is exact
	// unless idleDirty, which nextIdleClose resolves by rescanning the
	// open banks. See setBankLastUse.
	idleAt    sim.Time
	idleFlat  int
	idleOK    bool
	idleDirty bool

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
	if policy == nil {
		return nil, fmt.Errorf("memctrl: nil policy")
	}
	idleClose := opts.IdleClose
	if idleClose == 0 {
		idleClose = DefaultIdleClose
	}
	c := &Controller{
		cfg:         cfg,
		module:      dram.NewModule(cfg.Geometry, cfg.Timing),
		policy:      policy,
		mapper:      NewMapper(cfg.Geometry, opts.Interleave),
		latencyHist: stats.NewHistogram(latencyHistBuckets, latencyHistWidth),
		idleClose:   idleClose,
		bankLastUse: make([]sim.Time, cfg.Geometry.TotalBanks()),
		interrupt:   opts.Interrupt,
		bankShift:   uint(bits.TrailingZeros(uint(cfg.Geometry.Banks))),
		rankShift:   uint(bits.TrailingZeros(uint(cfg.Geometry.Ranks))),
	}
	if ba, ok := policy.(core.BankAware); ok {
		c.bankAware = ba
	}
	if opts.CheckRetention {
		deadline := cfg.Timing.RefreshInterval + RetentionGrace + opts.RetentionSlack
		if opts.RetentionMap != nil {
			c.checker = core.NewRetentionCheckerWithMap(cfg.Geometry, deadline, 0, opts.RetentionMap)
		} else {
			c.checker = core.NewRetentionChecker(cfg.Geometry, deadline, 0)
		}
	}
	if opts.Trace != nil {
		prefix := opts.MetricsPrefix
		if prefix == "" {
			prefix = cfg.Name + "/" + policy.Name()
		}
		c.trace = opts.Trace.Scope(prefix)
		c.module.SetTraceScope(c.trace)
		// Rank-residency spans (self-refresh) get their own thread rows
		// after the per-bank rows; see rankTid.
		g := cfg.Geometry
		for ch := 0; ch < g.Channels; ch++ {
			for rk := 0; rk < g.Ranks; rk++ {
				c.trace.NameThread(c.rankTid(ch*g.Ranks+rk), fmt.Sprintf("ch%d/rk%d (rank)", ch, rk))
			}
		}
		if sp, ok := policy.(interface {
			SetTraceScope(*telemetry.Scope)
		}); ok {
			sp.SetTraceScope(c.trace)
		}
	}
	if opts.Metrics != nil {
		c.registerMetrics(opts.Metrics, opts.MetricsPrefix)
	}
	if opts.SelfRefreshAfter > 0 {
		if idleClose < 0 {
			// With idle page-closing disabled nothing ever precharges an
			// idle bank, so a rank with an open page would re-arm its
			// self-refresh deadline forever and never sleep.
			return nil, fmt.Errorf("memctrl: SelfRefreshAfter %v requires idle page-closing; IdleClose %v disables it",
				opts.SelfRefreshAfter, opts.IdleClose)
		}
		if opts.SelfRefreshAfter <= idleClose {
			return nil, fmt.Errorf("memctrl: SelfRefreshAfter %v must exceed the page-close timeout %v",
				opts.SelfRefreshAfter, idleClose)
		}
	}
	if err := opts.PowerStates.validate(idleClose, opts.SelfRefreshAfter); err != nil {
		return nil, err
	}
	if opts.SelfRefreshAfter > 0 || opts.PowerStates.Enabled() {
		c.armPowerStates(opts.SelfRefreshAfter, opts.PowerStates)
		if opts.PowerStates.Enabled() {
			// Switch the module to residency-vector accounting. Plain
			// two-state configurations (only SelfRefreshAfter) skip this,
			// which keeps their energy evaluation — and every golden
			// figure and fingerprint — on the historical path.
			c.module.EnablePowerStates()
		}
	}
	policy.Reset(0)
	return c, nil
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

// registerMetrics publishes the controller's counters, the latency
// histogram and snapshot gauges over module/policy statistics under
// prefix (default "<config>/<policy>"). The gauges read live state, so
// dump metrics only after the run has finished.
func (c *Controller) registerMetrics(reg *telemetry.Registry, prefix string) {
	if prefix == "" {
		prefix = c.cfg.Name + "/" + c.policy.Name()
	}
	reg.RegisterCounter(prefix+"/requests", &c.requests)
	reg.RegisterCounter(prefix+"/row_hits", &c.rowHits)
	reg.RegisterHistogram(prefix+"/latency_ns", c.latencyHist)
	reg.RegisterGauge(prefix+"/refresh_ops", func() float64 { return float64(c.module.Stats().RefreshOps) })
	reg.RegisterGauge(prefix+"/refresh_cbr_ops", func() float64 { return float64(c.module.Stats().RefreshCBROps) })
	reg.RegisterGauge(prefix+"/refresh_rasonly_ops", func() float64 { return float64(c.module.Stats().RefreshRASOnlyOps) })
	reg.RegisterGauge(prefix+"/refresh_conflict_ops", func() float64 { return float64(c.module.Stats().RefreshConflictOps) })
	reg.RegisterGauge(prefix+"/refresh_perbank_ops", func() float64 { return float64(c.module.Stats().RefreshPerBankOps) })
	reg.RegisterGauge(prefix+"/refresh_overlap_ops", func() float64 { return float64(c.module.Stats().RefreshOverlapOps) })
	reg.RegisterGauge(prefix+"/policy_refreshes_postponed", func() float64 { return float64(c.policy.Stats().RefreshesPostponed) })
	reg.RegisterGauge(prefix+"/policy_refreshes_pulledin", func() float64 { return float64(c.policy.Stats().RefreshesPulledIn) })
	reg.RegisterGauge(prefix+"/policy_refreshes_forced", func() float64 { return float64(c.policy.Stats().RefreshesForced) })
	reg.RegisterGauge(prefix+"/demand_stall_ns", func() float64 { return c.module.Stats().DemandStall.Nanoseconds() })
	reg.RegisterGauge(prefix+"/selfrefresh_entries", func() float64 { return float64(c.module.Stats().SelfRefreshEntries) })
	reg.RegisterGauge(prefix+"/refreshes_dropped_selfrefresh", func() float64 { return float64(c.refreshesDroppedSR) })
	reg.RegisterGauge(prefix+"/policy_refreshes_requested", func() float64 { return float64(c.policy.Stats().RefreshesRequested) })
	reg.RegisterGauge(prefix+"/policy_counter_reads", func() float64 { return float64(c.policy.Stats().CounterReads) })
	reg.RegisterGauge(prefix+"/policy_counter_writes", func() float64 { return float64(c.policy.Stats().CounterWrites) })
	reg.RegisterGauge(prefix+"/policy_max_pending_per_tick", func() float64 { return float64(c.policy.Stats().MaxPendingPerTick) })
	reg.RegisterGauge(prefix+"/policy_bloom_lookups", func() float64 { return float64(c.policy.Stats().BloomLookups) })
	reg.RegisterGauge(prefix+"/policy_bloom_false_positives", func() float64 { return float64(c.policy.Stats().BloomFalsePositives) })
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
	id := dram.RowInBank(&c.cfg.Geometry, bank, row)
	c.policy.OnRowRestore(t, id)
	if c.checker != nil {
		c.checker.OnRestore(t, id)
	}
}

// setBankLastUse records bank flat's latest activity, which moves its
// page-close deadline to t+idleClose, and keeps the cached earliest
// deadline exact: a deadline ahead of the cache (ties to the lower flat
// index) replaces it, and the cached bank's own deadline moving later
// marks it dirty, since another bank may now be earliest. Every
// bankLastUse write goes through here.
func (c *Controller) setBankLastUse(flat int, t sim.Time) {
	c.bankLastUse[flat] = t
	if c.idleClose < 0 {
		return
	}
	at := t + c.idleClose
	switch {
	case c.idleDirty:
		// A rescan is already due; it will see this bank.
	case !c.idleOK || at < c.idleAt || (at == c.idleAt && flat < c.idleFlat):
		c.idleAt, c.idleFlat, c.idleOK = at, flat, true
	case flat == c.idleFlat && at > c.idleAt:
		c.idleDirty = true
	}
}

// nextIdleClose returns the earliest pending page-close deadline across
// banks with an open page, or ok=false when none is pending. Ties go to
// the lowest flat bank index. Only demand opens a page, and it always
// moves the bank's deadline through setBankLastUse, so every open bank
// is covered by the cache; a page closed by other means (a refresh) is
// noticed here when its bank is the cached one, and the cache is rebuilt
// over the open banks.
func (c *Controller) nextIdleClose() (sim.Time, int, bool) {
	if c.idleClose < 0 {
		return 0, 0, false
	}
	if c.idleDirty || (c.idleOK && c.module.OpenRowFlat(c.idleFlat) == -1) {
		c.idleAt, c.idleFlat, c.idleOK, c.idleDirty = 0, 0, false, false
		for flat, last := range c.bankLastUse {
			if c.module.OpenRowFlat(flat) == -1 {
				continue
			}
			if at := last + c.idleClose; !c.idleOK || at < c.idleAt {
				c.idleAt, c.idleFlat, c.idleOK = at, flat, true
			}
		}
	}
	return c.idleAt, c.idleFlat, c.idleOK
}

// closeIdleBank precharges one bank at its page-close deadline and
// reports the restored row (a precharge write-back restores cells).
func (c *Controller) closeIdleBank(deadline sim.Time, flat int) {
	if ri := flat >> c.bankShift; c.ps.enabled && c.ps.ranks[ri].state == PSActPdn {
		// The rank dozed off in ACT-PDN with this page open; wake it
		// (not demand — the idle clock keeps running) so the precharge
		// can issue. It pays the tXP exit via the raised bank timings.
		c.exitPowerDown(deadline, ri, false)
	}
	if row, closed := c.module.PrechargeFlat(deadline, flat); closed {
		c.restore(deadline, flat, row)
		if c.trace != nil {
			c.trace.Command(telemetry.CmdIdleClose, flat, row, deadline, deadline+c.cfg.Timing.TRP)
		}
		// Re-arm only on an actual close: the bank stays precharged until
		// the next demand access refreshes bankLastUse. Re-arming when the
		// module reports not-closed would invent a future deadline for a
		// bank that was already closed (e.g. by a conflicting refresh) and
		// could mask its rank's self-refresh idleness.
		c.setBankLastUse(flat, deadline)
	}
}

// runRefreshTick advances the policy through one tick at time due and
// dispatches the due refresh commands to the module (Figure 5: pending
// refresh request queue feeding RAS-only refreshes, or plain CBR in
// baseline/disabled mode).
func (c *Controller) runRefreshTick(due sim.Time) {
	c.cmds = c.policy.Advance(due, c.cmds[:0])
	for i := range c.cmds {
		cmd := &c.cmds[i]
		ri := cmd.Bank >> c.bankShift
		if c.selfRefreshActive(ri) {
			// The rank refreshes itself while asleep.
			c.refreshesDroppedSR++
			continue
		}
		if c.ps.enabled {
			// A refresh cannot issue with CKE low: wake a powered-down
			// rank first. The wake is not demand (lastDemand stays), so
			// the rank descends again as soon as the refresh drains.
			switch c.ps.ranks[ri].state {
			case PSActPdn, PSPrePdnFast, PSPrePdnSlow:
				c.exitPowerDown(due, ri, false)
			}
		}
		var res dram.Refreshed
		switch {
		case cmd.Kind == dram.RefreshPerBank:
			res = c.module.RefreshBankFlat(due, cmd.Bank, cmd.Overlap)
		case cmd.Row >= 0:
			res = c.module.RefreshRowFlat(due, cmd.Bank, cmd.Row)
		default:
			res = c.module.RefreshCBRFlat(due, cmd.Bank)
		}
		if res.ClosedRow >= 0 {
			// Closing the open page restored that row too.
			c.restore(res.Issue, cmd.Bank, res.ClosedRow)
		}
		if c.checker != nil {
			// The policy accounted for its own refresh (and CBR-kind
			// refreshes bypass it); only the checker sees the restore.
			c.checker.OnRestore(res.Done, dram.RowInBank(&c.cfg.Geometry, cmd.Bank, res.Row))
		}
	}
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
		ct, flat, cok := c.nextIdleClose()
		pt, ri, pok := c.nextPowerEvent()
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
	bank, row, _ := c.mapper.locate(req.Addr)
	if c.bankAware != nil {
		// Arbitration: report the demand before draining refresh events at
		// or before req.Time, so a per-bank refresh due exactly now on this
		// bank sees the pressure and defers (demand-first tie-break) —
		// unless its deficit window forces it, in which case refresh-first
		// is the correct, retention-safe order.
		c.bankAware.OnDemandObserved(req.Time, bank, req.Write)
	}
	c.drainRefreshes(req.Time)

	ri := bank >> c.bankShift
	if c.ps.armed {
		c.wakeRank(req.Time, ri)
	}
	res := c.module.AccessFlat(req.Time, bank, row, req.Write)
	c.setBankLastUse(bank, res.Done)
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
// due up to t are dispatched.
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
