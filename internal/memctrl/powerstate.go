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
// Scheduling. Only the next rung is ever pending, so each rank keeps its
// one pending transition in a slot of its psState (nextAt, nextTarget,
// hasNext) that every reschedule overwrites in place. The drain takes
// the earliest slot, ordered by (nextAt, rank), from a cached minimum:
// scheduleFrom replaces it when a slot moves ahead of it, and marks it
// dirty when the cached rank's own slot moves later or is cleared; a
// dirty cache is rebuilt by scanning the slots with a strict <, so equal
// deadlines go to the lowest rank. That is the order the retired lazy
// heap produced — its extra target tie-break only ever ordered stale
// duplicates of one rank's slot — and the order of the linear scan
// before it, so the classic two-state configuration (only
// SelfRefreshAfter armed) still replays the historical self-refresh
// controller bit for bit.

// PowerState is a rank's position on the power-state ladder as the
// controller tracks it. The order is the descent order; comparisons in
// the scheduler rely on deeper states having larger values.
type PowerState uint8

const (
	// PSAwake covers both IDLE-OPEN and IDLE-CLOSED: the rank accepts
	// commands immediately.
	PSAwake PowerState = iota
	// PSActPdn is active power-down: pages open, clock stopped.
	PSActPdn
	// PSPrePdnFast is precharge power-down with the DLL running.
	PSPrePdnFast
	// PSPrePdnSlow is precharge power-down with the DLL frozen.
	PSPrePdnSlow
	// PSSelfRefresh is module self-refresh.
	PSSelfRefresh
	// PSSelfRefreshSlow is self-refresh deepened to the DLL-off mode.
	PSSelfRefreshSlow
)

// String names the power state.
func (s PowerState) String() string {
	switch s {
	case PSAwake:
		return "awake"
	case PSActPdn:
		return "act-pdn"
	case PSPrePdnFast:
		return "pre-pdn-fast"
	case PSPrePdnSlow:
		return "pre-pdn-slow"
	case PSSelfRefresh:
		return "sr"
	case PSSelfRefreshSlow:
		return "sr-slow"
	default:
		return fmt.Sprintf("PowerState(%d)", int(s))
	}
}

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
func (c PowerStateConfig) validate(idleClose, srAfter sim.Duration) error {
	if c.ActPdnAfter < 0 || c.PrePdnFastAfter < 0 || c.PrePdnSlowAfter < 0 || c.SRSlowAfter < 0 {
		return fmt.Errorf("memctrl: negative power-state threshold %+v", c)
	}
	if c.ActPdnAfter > 0 && idleClose >= 0 && c.ActPdnAfter >= idleClose {
		return fmt.Errorf("memctrl: ActPdnAfter %v must undercut the page-close timeout %v",
			c.ActPdnAfter, idleClose)
	}
	if c.PrePdnFastAfter > 0 {
		if idleClose < 0 {
			return fmt.Errorf("memctrl: PrePdnFastAfter %v requires idle page-closing", c.PrePdnFastAfter)
		}
		if c.PrePdnFastAfter <= idleClose {
			return fmt.Errorf("memctrl: PrePdnFastAfter %v must exceed the page-close timeout %v",
				c.PrePdnFastAfter, idleClose)
		}
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
	if srAfter > 0 {
		deepest := c.PrePdnSlowAfter
		if deepest == 0 {
			deepest = c.PrePdnFastAfter
		}
		if deepest > 0 && srAfter <= deepest {
			return fmt.Errorf("memctrl: SelfRefreshAfter %v must exceed the deepest PRE-PDN threshold %v",
				srAfter, deepest)
		}
	}
	if c.SRSlowAfter > 0 && srAfter <= 0 {
		return fmt.Errorf("memctrl: SRSlowAfter %v requires SelfRefreshAfter", c.SRSlowAfter)
	}
	return nil
}

// psState tracks one rank's controller-side power state.
type psState struct {
	lastDemand sim.Time
	state      PowerState
	// enteredAt is the current low-power span's effective start (module
	// entry time); it drives trace spans and checker coverage, and is
	// advanced by finishPowerStates so a repeated Finish extends rather
	// than double-counts.
	enteredAt sim.Time
	// nextTarget/nextAt are the rank's deadline slot: the one pending
	// transition, overwritten in place by every reschedule.
	nextTarget PowerState
	nextAt     sim.Time
	hasNext    bool
}

// powerStates is embedded in Controller when any rung (self-refresh
// included) is armed.
type powerStates struct {
	srAfter sim.Duration // self-refresh threshold; <=0 leaves the SR rung unarmed
	cfg     PowerStateConfig
	enabled bool // cfg.Enabled(): some power-down rung armed
	armed   bool // any rung armed (srAfter or cfg)
	ranks   []psState

	// minAt/minRank cache the earliest slot, (nextAt, rank)-ordered;
	// minOK is false when no slot is set. The cache is exact unless
	// minDirty, which nextPowerEvent resolves by rescanning the slots.
	minAt    sim.Time
	minRank  int
	minOK    bool
	minDirty bool
}

// armPowerStates initialises the state machine; every rank starts awake
// with its first transition scheduled from time zero, exactly as the
// retired scan derived deadlines from zero-valued lastDemand.
func (c *Controller) armPowerStates(srAfter sim.Duration, cfg PowerStateConfig) {
	c.ps = powerStates{
		srAfter: srAfter,
		cfg:     cfg,
		enabled: cfg.Enabled(),
		armed:   true,
		ranks:   make([]psState, c.cfg.Geometry.Channels*c.cfg.Geometry.Ranks),
	}
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

// setSlot stores rank ri's pending transition (none when !ok) and keeps
// the cached minimum exact or marks it dirty.
func (c *Controller) setSlot(ri int, target PowerState, at sim.Time, ok bool) {
	ps := &c.ps
	st := &ps.ranks[ri]
	if !ok {
		st.hasNext = false
		if ps.minOK && ri == ps.minRank {
			ps.minDirty = true
		}
		return
	}
	st.nextTarget, st.nextAt, st.hasNext = target, at, true
	switch {
	case ps.minDirty:
		// A rescan is already due; it will see this slot.
	case !ps.minOK || at < ps.minAt || (at == ps.minAt && ri < ps.minRank):
		ps.minAt, ps.minRank, ps.minOK = at, ri, true
	case ri == ps.minRank && at > ps.minAt:
		// The minimum moved later: another rank may now be earliest.
		ps.minDirty = true
	}
}

// nextPowerEvent returns the earliest pending transition deadline and
// its rank, or ok=false when none is pending. Ties go to the lowest rank
// (the strict < of the rescan walks ranks in index order).
func (c *Controller) nextPowerEvent() (sim.Time, int, bool) {
	ps := &c.ps
	if ps.minDirty {
		ps.rescan()
	}
	return ps.minAt, ps.minRank, ps.minOK
}

// rescan rebuilds the cached earliest slot over the ranks' slots.
func (ps *powerStates) rescan() {
	minAt, minRank := never, 0
	for ri := range ps.ranks {
		st := &ps.ranks[ri]
		at := st.nextAt
		if !st.hasNext {
			at = never
		}
		minAt, minRank = earlier(at, ri, minAt, minRank)
	}
	ps.minAt, ps.minRank, ps.minOK = found(minAt, minRank)
	ps.minDirty = false
}

// rankHasOpenPage reports whether any bank of flat rank ri has an open
// row.
func (c *Controller) rankHasOpenPage(ri int) bool { return c.module.OpenBanks(ri) > 0 }

// rankCloseDue reports whether an open bank of flat rank ri has its
// page-close deadline at or before t.
func (c *Controller) rankCloseDue(ri int, t sim.Time) bool {
	if c.idleClose < 0 || !c.rankHasOpenPage(ri) {
		return false
	}
	for b := ri << c.bankShift; b < (ri+1)<<c.bankShift; b++ {
		if c.module.OpenRowFlat(b) != -1 && c.bankLastUse[b]+c.idleClose <= t {
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
// rung its next transition is scheduled from.
func (c *Controller) fire(t sim.Time, ri int, target PowerState) PowerState {
	st := &c.ps.ranks[ri]
	channel, rank := c.rankCoords(ri)
	switch target {
	case PSActPdn:
		// Already there (a deferred deeper rung re-walked the ladder), or
		// no page to hold open: skip to the precharged rungs.
		if st.state != PSActPdn && c.rankHasOpenPage(ri) {
			st.enteredAt = c.module.EnterPowerDown(t, channel, rank, dram.PDActive)
			st.state = PSActPdn
		}
		return PSActPdn
	case PSPrePdnFast, PSPrePdnSlow:
		if st.state == target {
			return target
		}
		if c.rankHasOpenPage(ri) {
			// Pages still open: wait for idle-close, exactly like the
			// deferred self-refresh entry. Re-arm past the close horizon.
			st.lastDemand = t
			return st.state
		}
		kind := dram.PDPrechargeFast
		if target == PSPrePdnSlow {
			kind = dram.PDPrechargeSlow
		}
		entered := c.module.EnterPowerDown(t, channel, rank, kind)
		if st.state == PSPrePdnFast {
			// Deepening fast → slow: close the fast span's trace at the
			// deepen point (the module folded its residency there too).
			c.tracePowerDown(ri, entered)
		}
		st.state = target
		st.enteredAt = entered
		return target
	case PSSelfRefresh:
		return c.enterSelfRefresh(t, ri)
	case PSSelfRefreshSlow:
		if st.state == PSSelfRefresh {
			c.module.SlowSelfRefresh(t, channel, rank)
			st.state = PSSelfRefreshSlow
		}
		return PSSelfRefreshSlow
	default:
		// PSAwake is never a target.
		return st.state
	}
}

// exitPowerDown wakes flat rank ri from an explicit power-down state at
// time t. It leaves lastDemand and the rank's slot alone: a demand wake
// reschedules through noteDemand once the access is issued, and a
// refresh or idle-close wake settles the rank back down.
func (c *Controller) exitPowerDown(t sim.Time, ri int) {
	channel, rank := c.rankCoords(ri)
	c.module.ExitPowerDown(t, channel, rank)
	c.tracePowerDown(ri, t)
	c.ps.ranks[ri].state = PSAwake
}

// settle returns flat rank ri, woken at t by a refresh or an idle-close
// rather than by demand, to the rung it would walk back down to. The
// wake left lastDemand alone, so the walk is a function of it, the armed
// thresholds and the rank's open pages: settle enters each rung the walk
// reaches at t, in walk order, so the module's entries and the trace
// spans are those of the walk, and writes the rank's slot only when the
// walk ends on a transition other than the one the slot holds. When the
// rung is unchanged the slot already holds the walk's final value, so
// the cached minimum stays exact and nothing is rescanned. Two
// same-instant events would run in the drain before the walk — a second
// policy tick at t, and an idle-close due by t on one of the rank's open
// banks — so then the walk is left to the drain, from a slot due at t.
func (c *Controller) settle(ri int, t sim.Time) {
	if rt, ok := c.policy.NextTick(); (ok && rt <= t) || c.rankCloseDue(ri, t) {
		c.scheduleFrom(ri, PSAwake, t)
		return
	}
	st := &c.ps.ranks[ri]
	from := PSAwake
	for {
		target, at, ok := c.nextRung(ri, from, t)
		if ok && at <= t {
			from = c.fire(t, ri, target)
			continue
		}
		if ok != st.hasNext || ok && (target != st.nextTarget || at != st.nextAt) {
			c.setSlot(ri, target, at, ok)
		}
		return
	}
}

// wakeRank wakes flat rank ri from any low-power state for a demand
// access.
func (c *Controller) wakeRank(t sim.Time, ri int) {
	switch c.ps.ranks[ri].state {
	case PSSelfRefresh, PSSelfRefreshSlow:
		c.exitSelfRefresh(t, ri)
	case PSActPdn, PSPrePdnFast, PSPrePdnSlow:
		c.exitPowerDown(t, ri)
	}
}

// tracePowerDown emits the closing CmdPowerDown span for rank ri's
// current power-down residency, [enteredAt, end], with the state as the
// event argument. Call before mutating st.state/enteredAt.
func (c *Controller) tracePowerDown(ri int, end sim.Time) {
	if c.trace == nil {
		return
	}
	st := &c.ps.ranks[ri]
	if end < st.enteredAt {
		// A demand wake can land inside the entry clamp (the module
		// charged zero residency); keep the span non-negative.
		end = st.enteredAt
	}
	c.trace.Command(telemetry.CmdPowerDown, c.rankTid(ri), int(st.state), st.enteredAt, end)
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
		if st.state == PSAwake || st.enteredAt >= end {
			continue
		}
		switch st.state {
		case PSSelfRefresh, PSSelfRefreshSlow:
			if c.trace != nil {
				c.trace.Command(telemetry.CmdSelfRefresh, c.rankTid(ri), -1, st.enteredAt, end)
			}
			c.coverSelfRefresh(st.enteredAt, end, ri)
		default:
			c.tracePowerDown(ri, end)
		}
		st.enteredAt = end
	}
}
