package memctrl

import (
	"fmt"

	"smartrefresh/internal/dram"
	"smartrefresh/internal/sim"
	"smartrefresh/internal/telemetry"
)

// Per-rank power-state machine. The controller walks each idle rank down
// a ladder of progressively deeper (and slower to wake) low-power modes:
//
//	IDLE-OPEN ──ActPdnAfter──▶ ACT-PDN            (pages open, IDD3P, tXP exit)
//	     │ idle-close (wakes ACT-PDN, precharges)
//	     ▼
//	IDLE-CLOSED ─PrePdnFastAfter─▶ PRE-PDN-fast   (IDD2P,  tXP exit)
//	                                   │ PrePdnSlowAfter
//	                                   ▼
//	                              PRE-PDN-slow    (IDD2P0, tXPDLL exit)
//	                                   │ SelfRefreshAfter
//	                                   ▼
//	                                  SR          (IDD6,  tXSNR exit)
//	                                   │ SRSlowAfter
//	                                   ▼
//	                              SR-slow-wake    (IDD6L, tXSRD exit)
//
// Every rung is armed independently by its threshold; unarmed rungs are
// skipped.
//
// Scheduling. Only the next rung is ever pending, so each rank has at
// most one pending transition: its deadline is the rank's key in
// powerStates.slots and its rung is psState.nextTarget, both overwritten
// in place by every reschedule. The drain fires the earliest deadline,
// ties to the lowest rank.

// PowerState is a rank's rung on the ladder. The module owns each rank's
// state (dram.Module.RankState); the controller keeps no copy.
type PowerState = dram.PowerState

// The ladder's rungs, in descent order (see dram.PowerState).
const (
	PSAwake           = dram.PSAwake
	PSActPdn          = dram.PSActPdn
	PSPrePdnFast      = dram.PSPrePdnFast
	PSPrePdnSlow      = dram.PSPrePdnSlow
	PSSelfRefresh     = dram.PSSelfRefresh
	PSSelfRefreshSlow = dram.PSSelfRefreshSlow
)

// PowerStateConfig arms the power-down rungs of the ladder. Each
// threshold is demand-idle time before the transition; zero leaves the
// rung unarmed. SelfRefreshAfter (Options) remains the SR rung's
// threshold, so existing two-state configurations are untouched.
type PowerStateConfig struct {
	// ActPdnAfter puts a rank with open pages into active power-down
	// after this much demand-idle time. It must undercut the idle-close
	// timeout (otherwise the pages would already be closed).
	ActPdnAfter sim.Duration
	// PrePdnFastAfter puts a fully precharged rank into fast-exit
	// precharge power-down. It must exceed the idle-close timeout, which
	// is what guarantees the banks are closed by then.
	PrePdnFastAfter sim.Duration
	// PrePdnSlowAfter deepens fast-exit precharge power-down to the
	// slow-exit (DLL-frozen) mode; requires PrePdnFastAfter armed.
	PrePdnSlowAfter sim.Duration
	// SRSlowAfter deepens an in-progress self-refresh to the slow-wake
	// (DLL-off) mode that much time after entry; requires
	// Options.SelfRefreshAfter armed.
	SRSlowAfter sim.Duration
}

// Enabled reports whether any power-down rung is armed. Only then does
// the controller switch the module to residency-vector accounting; a
// zero config keeps every existing configuration on the historical
// two-state evaluation, bit for bit.
func (c PowerStateConfig) Enabled() bool {
	return c.ActPdnAfter > 0 || c.PrePdnFastAfter > 0 || c.PrePdnSlowAfter > 0 || c.SRSlowAfter > 0
}

// validate checks the ladder's ordering constraints against the
// page-close timeout and self-refresh threshold it interleaves with.
func (c PowerStateConfig) validate(srAfter sim.Duration) error {
	if c.ActPdnAfter < 0 || c.PrePdnFastAfter < 0 || c.PrePdnSlowAfter < 0 || c.SRSlowAfter < 0 {
		return fmt.Errorf("memctrl: negative power-state threshold %+v", c)
	}
	if c.ActPdnAfter > 0 && c.ActPdnAfter >= DefaultIdleClose {
		return fmt.Errorf("memctrl: ActPdnAfter %v must undercut the page-close timeout %v",
			c.ActPdnAfter, DefaultIdleClose)
	}
	if c.PrePdnFastAfter > 0 && c.PrePdnFastAfter <= DefaultIdleClose {
		return fmt.Errorf("memctrl: PrePdnFastAfter %v must exceed the page-close timeout %v",
			c.PrePdnFastAfter, DefaultIdleClose)
	}
	if c.PrePdnSlowAfter > 0 {
		if c.PrePdnFastAfter <= 0 {
			return fmt.Errorf("memctrl: PrePdnSlowAfter %v requires PrePdnFastAfter", c.PrePdnSlowAfter)
		}
		if c.PrePdnSlowAfter <= c.PrePdnFastAfter {
			return fmt.Errorf("memctrl: PrePdnSlowAfter %v must exceed PrePdnFastAfter %v",
				c.PrePdnSlowAfter, c.PrePdnFastAfter)
		}
	}
	// Self-refresh is the deepest rung: it must come after the page
	// close and after every armed PRE-PDN rung.
	if deepest := max(DefaultIdleClose, c.PrePdnFastAfter, c.PrePdnSlowAfter); srAfter > 0 && srAfter <= deepest {
		return fmt.Errorf("memctrl: SelfRefreshAfter %v must exceed the page-close timeout and every PRE-PDN threshold (%v)",
			srAfter, deepest)
	}
	if c.SRSlowAfter > 0 && srAfter <= 0 {
		return fmt.Errorf("memctrl: SRSlowAfter %v requires SelfRefreshAfter", c.SRSlowAfter)
	}
	return nil
}

// psState is the controller's scheduling view of one rank: the rank's
// power state itself lives in the module.
type psState struct {
	lastDemand sim.Time
	// enteredAt is the current low-power span's effective start (module
	// entry time; the SR entry for SR-slow); it drives trace spans, the
	// SR-slow deadline and checker coverage, and is advanced by
	// finishPowerStates so a repeated Finish extends rather than
	// double-counts.
	enteredAt sim.Time
	// nextTarget is the rung of the rank's pending transition; its
	// deadline is the rank's key in powerStates.slots.
	nextTarget PowerState
}

// powerStates is embedded in Controller when any rung (self-refresh
// included) is armed.
type powerStates struct {
	srAfter sim.Duration // self-refresh threshold; <=0 leaves the SR rung unarmed
	cfg     PowerStateConfig
	armed   bool // any rung armed (srAfter or cfg)
	ranks   []psState
	slots   sim.MinIndex // per rank: the pending transition's deadline
}

// armPowerStates initialises the state machine when any rung is armed;
// every rank starts awake with its first transition scheduled from time
// zero, exactly as the retired scan derived deadlines from zero-valued
// lastDemand. An unarmed controller keeps the zero powerStates. A
// re-armed controller keeps its rank table and slot index.
func (c *Controller) armPowerStates(srAfter sim.Duration, cfg PowerStateConfig) {
	if srAfter <= 0 && !cfg.Enabled() {
		c.ps = powerStates{}
		return
	}
	n := c.cfg.Geometry.Channels * c.cfg.Geometry.Ranks
	ranks, slots := c.ps.ranks, c.ps.slots
	if len(ranks) == n {
		clear(ranks)
		slots.Reset()
	} else {
		ranks, slots = sim.OwnLines[psState](n), sim.NewMinIndex(n)
	}
	c.ps = powerStates{srAfter: srAfter, cfg: cfg, armed: true, ranks: ranks, slots: slots}
	for ri := range c.ps.ranks {
		c.scheduleFrom(ri, PSAwake, 0)
	}
}

// scheduleFrom computes rank ri's next transition, starting strictly
// below rung `from` on the ladder, and stores it in the rank's slot.
func (c *Controller) scheduleFrom(ri int, from PowerState, now sim.Time) {
	target, at, ok := c.nextRung(ri, from, now)
	c.setSlot(ri, target, at, ok)
}

// nextRung returns rank ri's next transition strictly below rung `from`
// on the ladder. Deadlines derive from lastDemand (entry time for the
// SR-slow rung) and are clamped to now so a rung skipped in the past
// fires immediately rather than rewinding the drain. Unarmed rungs are
// passed over; ok is false when no rung remains.
func (c *Controller) nextRung(ri int, from PowerState, now sim.Time) (target PowerState, at sim.Time, ok bool) {
	ps := &c.ps
	st := &ps.ranks[ri]
	cfg := &ps.cfg
	d := st.lastDemand
	switch {
	case from < PSActPdn && cfg.ActPdnAfter > 0:
		target, at = PSActPdn, d+cfg.ActPdnAfter
	case from < PSPrePdnFast && cfg.PrePdnFastAfter > 0:
		target, at = PSPrePdnFast, d+cfg.PrePdnFastAfter
	case from < PSPrePdnSlow && cfg.PrePdnSlowAfter > 0:
		target, at = PSPrePdnSlow, d+cfg.PrePdnSlowAfter
	case from < PSSelfRefresh && ps.srAfter > 0:
		target, at = PSSelfRefresh, d+ps.srAfter
	case from == PSSelfRefresh && cfg.SRSlowAfter > 0:
		target, at = PSSelfRefreshSlow, st.enteredAt+cfg.SRSlowAfter
	default:
		return 0, 0, false
	}
	return target, max(at, now), true
}

// setSlot stores rank ri's pending transition (none when !ok).
func (c *Controller) setSlot(ri int, target PowerState, at sim.Time, ok bool) {
	if !ok {
		c.ps.slots.Clear(ri)
		return
	}
	c.ps.ranks[ri].nextTarget = target
	c.ps.slots.Set(ri, at)
}

// rankHasOpenPage reports whether any bank of flat rank ri has an open
// row.
func (c *Controller) rankHasOpenPage(ri int) bool { return c.module.OpenBanks(ri) > 0 }

// rankCloseDue reports whether an open bank of flat rank ri has its
// page-close deadline at or before t.
func (c *Controller) rankCloseDue(ri int, t sim.Time) bool {
	if !c.rankHasOpenPage(ri) {
		return false
	}
	for b := ri << c.bankShift; b < (ri+1)<<c.bankShift; b++ {
		if at, ok := c.idle.Key(b); ok && at <= t {
			return true
		}
	}
	return false
}

// runPowerEvent executes rank ri's due transition at time t. Every path
// reschedules the rank (with a strictly later deadline, a deeper rung,
// or no rung), overwriting the fired slot, so the drain makes monotone
// progress — at most one firing per rung per instant.
func (c *Controller) runPowerEvent(t sim.Time, ri int) {
	c.scheduleFrom(ri, c.fire(t, ri, c.ps.ranks[ri].nextTarget), t)
}

// fire performs rank ri's transition to target at time t and returns the
// rung its next transition is scheduled from. ACT-PDN needs an open page
// to hold and is skipped without one; every deeper rung needs the banks
// closed and waits for idle-close while a page is open. A rank asleep in
// a power-down state descends without an intermediate wake: the module
// folds the shallower residency at the handoff, and its trace span
// closes there. The SR-slow deepen keeps the SR span and its coverage.
func (c *Controller) fire(t sim.Time, ri int, target PowerState) PowerState {
	st := &c.ps.ranks[ri]
	state := c.module.RankState(ri)
	open := c.rankHasOpenPage(ri)
	switch {
	case state == target || target == PSActPdn && !open:
		return target
	case target != PSActPdn && open:
		// Re-arm the deadline just past the page-close horizon.
		st.lastDemand = t
		return state
	}
	// The module clamps entry behind the rank's in-flight work (queued
	// refreshes can extend past the idle deadline); the effective time
	// drives the trace and checker spans, so they never claim a span the
	// rank spent executing commands.
	entered := c.module.Enter(t, ri, target)
	if target == PSSelfRefreshSlow {
		return target
	}
	if state != PSAwake {
		c.tracePowerDown(ri, state, entered)
	}
	st.enteredAt = entered
	if target == PSSelfRefresh {
		// The internal engine keeps every row fresh; mark the handoff for
		// the checker (see coverSelfRefresh).
		c.restoreRank(entered, ri)
	}
	return target
}

// settle returns flat rank ri, woken at t by a refresh or an idle-close
// rather than by demand, to the rung it would walk back down to. The
// wake left lastDemand alone, so the walk is a function of it, the armed
// thresholds and the rank's open pages: settle enters each rung the walk
// reaches at t, in walk order, so the module's entries and the trace
// spans are those of the walk, and stores the walk's final transition
// in the rank's slot. Two same-instant events would run in the drain
// before the walk — a second policy tick at t, and an idle-close due by
// t on one of the rank's open banks — so then the walk is left to the
// drain, from a slot due at t.
func (c *Controller) settle(ri int, t sim.Time) {
	if rt, ok := c.policy.NextTick(); (ok && rt <= t) || c.rankCloseDue(ri, t) {
		c.scheduleFrom(ri, PSAwake, t)
		return
	}
	from := PSAwake
	for {
		target, at, ok := c.nextRung(ri, from, t)
		if ok && at <= t {
			from = c.fire(t, ri, target)
			continue
		}
		c.setSlot(ri, target, at, ok)
		return
	}
}

// wakeRank wakes flat rank ri at time t if it is asleep, closing the
// state's trace span and, for self-refresh, reporting the span to the
// retention checker. It leaves lastDemand and the rank's slot alone: a
// demand wake reschedules through noteDemand once the access is issued,
// and a refresh or idle-close wake settles the rank back down.
func (c *Controller) wakeRank(t sim.Time, ri int) {
	state := c.module.RankState(ri)
	if state == PSAwake {
		return
	}
	c.module.Exit(t, ri)
	c.closeSpan(ri, state, t)
}

// closeSpan reports rank ri's residency in state from enteredAt to end:
// a PWR-DN trace span for a power-down state; for self-refresh, a
// SELF-REF span and checker coverage (the engine refreshed throughout,
// so rows are at most one interval old).
func (c *Controller) closeSpan(ri int, state PowerState, end sim.Time) {
	if !state.SelfRefresh() {
		c.tracePowerDown(ri, state, end)
		return
	}
	st := &c.ps.ranks[ri]
	if c.trace != nil {
		c.trace.Command(telemetry.CmdSelfRefresh, c.rankTid(ri), -1, st.enteredAt, end)
	}
	c.coverSelfRefresh(st.enteredAt, end, ri)
}

// tracePowerDown emits the closing CmdPowerDown span for rank ri's
// residency in power-down state state, [enteredAt, end], with the state
// as the event argument.
func (c *Controller) tracePowerDown(ri int, state PowerState, end sim.Time) {
	if c.trace == nil {
		return
	}
	st := &c.ps.ranks[ri]
	if end < st.enteredAt {
		// A demand wake can land inside the entry clamp (the module
		// charged zero residency); keep the span non-negative.
		end = st.enteredAt
	}
	c.trace.Command(telemetry.CmdPowerDown, c.rankTid(ri), int(state), st.enteredAt, end)
}

// finishPowerStates reports the still-open residency of every sleeping
// rank up to the end of simulation: self-refresh coverage for the
// retention checker (plus the trace span), and the trace span alone for
// the power-down states. Ranks stay asleep; enteredAt advances to end so
// a repeated Finish extends rather than double-counts.
func (c *Controller) finishPowerStates(end sim.Time) {
	if !c.ps.armed {
		return
	}
	for ri := range c.ps.ranks {
		st := &c.ps.ranks[ri]
		if state := c.module.RankState(ri); state != PSAwake && st.enteredAt < end {
			c.closeSpan(ri, state, end)
			st.enteredAt = end
		}
	}
}
