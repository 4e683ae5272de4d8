package memctrl

import (
	"smartrefresh/internal/dram"
	"smartrefresh/internal/sim"
	"smartrefresh/internal/telemetry"
)

// Self-refresh orchestration: when a rank has seen no demand for
// SelfRefreshAfter, the controller closes its pages (the idle-close
// machinery has long since done so), hands retention to the module's
// internal self-refresh engine (IDD6 instead of controller-issued
// refreshes), and wakes the rank on the next demand access, paying tXSNR.
// Self-refresh is the deepest rung of the power-state ladder in
// powerstate.go; this file keeps the SR-specific mechanics (checker
// coverage, residency spans, entry deferral).
//
// While a rank is in self-refresh the controller drops the policy's
// refresh commands for it — they are covered internally. As with the
// section 4.6 disable transitions, the controller cannot see the phase of
// the module-internal refresh walker, so the restore gap across an
// entry/exit transition is bounded by two refresh intervals rather than
// one; the retention checker treats self-refresh residency accordingly by
// recording a whole-rank restore at entry and exit.

func (c *Controller) rankOf(channel, rank int) int {
	return channel*c.cfg.Geometry.Ranks + rank
}

// rankCoords is the inverse of rankOf.
func (c *Controller) rankCoords(ri int) (channel, rank int) {
	b := dram.BankFromFlat(&c.cfg.Geometry, ri*c.cfg.Geometry.Banks)
	return b.Channel, b.Rank
}

// enterSelfRefresh puts rank ri into self-refresh at time t, provided its
// banks are closed (otherwise the entry is deferred: the idle-close
// machinery will close them and the deadline fires again). A rank asleep
// in a PRE-PDN state descends without an intermediate wake — the module
// folds the power-down residency at the handoff.
func (c *Controller) enterSelfRefresh(t sim.Time, ri int) {
	channel, rank := c.rankCoords(ri)
	st := &c.ps.ranks[ri]
	if c.rankHasOpenPage(channel, rank) {
		// Pages still open: wait for idle-close. Re-arm the deadline
		// just past the page-close horizon.
		st.lastDemand = t
		c.scheduleFrom(ri, PSAwake, t)
		return
	}
	// The module clamps entry behind the rank's in-flight work (queued
	// refreshes can extend past the idle deadline); the effective time
	// drives the checker coverage so it never claims a span the rank
	// spent executing commands.
	entered := c.module.EnterSelfRefresh(t, channel, rank)
	if st.state == PSPrePdnFast || st.state == PSPrePdnSlow {
		// Descending from PRE-PDN: close that span's trace at the
		// module-effective handoff point.
		c.tracePowerDown(ri, entered)
	}
	st.state = PSSelfRefresh
	st.enteredAt = entered
	// The internal engine keeps every row fresh; mark the handoff for the
	// checker (see the transition-bound note above).
	c.restoreRank(entered, channel, rank)
	c.scheduleFrom(ri, PSSelfRefresh, t)
}

// exitSelfRefresh wakes a rank for a demand access at time t.
func (c *Controller) exitSelfRefresh(t sim.Time, channel, rank int) {
	ri := c.rankOf(channel, rank)
	st := &c.ps.ranks[ri]
	if st.state != PSSelfRefresh && st.state != PSSelfRefreshSlow {
		return
	}
	c.module.ExitSelfRefresh(t, channel, rank)
	st.state = PSAwake
	st.lastDemand = t
	if c.trace != nil {
		c.trace.Command(telemetry.CmdSelfRefresh, c.rankTid(ri), -1, st.enteredAt, t)
	}
	// The engine refreshed throughout; rows are at most one interval old.
	c.coverSelfRefresh(st.enteredAt, t, channel, rank)
	c.scheduleFrom(ri, PSAwake, t)
}

// coverSelfRefresh reports a rank's self-refresh residency [from, to] to
// the retention checker as one whole-rank restore per refresh interval:
// the module's internal walker refreshes every row once per interval
// while the rank sleeps, so without this coverage any residency longer
// than the checked deadline would be flagged as a (phantom) violation.
// The walker's phase is invisible to the controller, which is why the
// transition bound quoted above is two intervals, not one.
func (c *Controller) coverSelfRefresh(from, to sim.Time, channel, rank int) {
	if c.checker == nil {
		return
	}
	interval := c.cfg.Timing.RefreshInterval
	for t := from; ; t += interval {
		if t > to {
			t = to
		}
		c.restoreRank(t, channel, rank)
		if t >= to {
			return
		}
	}
}

// restoreRank reports a whole-rank restore to the retention checker only.
// The policy is deliberately not notified: its refresh commands keep
// being generated (and dropped) during self-refresh, which resets its
// counters exactly as if it had issued them — so its state stays
// consistent — and whole-rank notifications would flood the section 4.6
// access-density window with phantom accesses.
func (c *Controller) restoreRank(t sim.Time, channel, rank int) {
	if c.checker == nil {
		return
	}
	g := &c.cfg.Geometry
	for b := 0; b < g.Banks; b++ {
		for r := 0; r < g.Rows; r++ {
			c.checker.OnRestore(t, dram.RowID{Channel: channel, Rank: rank, Bank: b, Row: r})
		}
	}
}

// noteDemand records rank activity (defers every downward transition).
func (c *Controller) noteDemand(t sim.Time, channel, rank int) {
	if !c.ps.armed {
		return
	}
	ri := c.rankOf(channel, rank)
	c.ps.ranks[ri].lastDemand = t
	c.scheduleFrom(ri, PSAwake, t)
}

// selfRefreshActive reports whether the rank is in self-refresh.
func (c *Controller) selfRefreshActive(channel, rank int) bool {
	if !c.ps.armed {
		return false
	}
	s := c.ps.ranks[c.rankOf(channel, rank)].state
	return s == PSSelfRefresh || s == PSSelfRefreshSlow
}

// SelfRefreshStats summarises self-refresh behaviour as the module saw
// it: Entries counts module-side mode entries and ResidencyPct is the
// fraction of total rank-time the module spent in self-refresh (IDD6).
// Both come from ModuleStats, so they are only current as of the last
// Finish (or Module().Finalize) call.
type SelfRefreshStats struct {
	Entries      uint64
	ResidencyPct float64 // of total rank-time, as of the last Finish
}

// SelfRefreshStats reports module-side residency (valid after Finish).
func (c *Controller) SelfRefreshStats(end sim.Time) SelfRefreshStats {
	ms := c.module.Stats()
	total := end.Seconds() * float64(c.cfg.Geometry.Channels*c.cfg.Geometry.Ranks)
	pct := 0.0
	if total > 0 {
		pct = 100 * ms.SelfRefreshTime.Seconds() / total
	}
	return SelfRefreshStats{Entries: ms.SelfRefreshEntries, ResidencyPct: pct}
}
