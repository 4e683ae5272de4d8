package memctrl

import (
	"smartrefresh/internal/sim"
)

// Self-refresh orchestration: when a rank has seen no demand for
// SelfRefreshAfter, the controller closes its pages (the idle-close
// machinery has long since done so), hands retention to the module's
// internal self-refresh engine (IDD6 instead of controller-issued
// refreshes), and wakes the rank on the next demand access, paying tXSNR.
// Self-refresh is the deepest rung of the power-state ladder in
// powerstate.go; this file keeps the SR-specific checker coverage.
//
// While a rank is in self-refresh the controller drops the policy's
// refresh commands for it — they are covered internally. As with the
// section 4.6 disable transitions, the controller cannot see the phase of
// the module-internal refresh walker, so the restore gap across an
// entry/exit transition is bounded by two refresh intervals rather than
// one; the retention checker treats self-refresh residency accordingly by
// recording a whole-rank restore at entry and exit.

// coverSelfRefresh reports flat rank ri's self-refresh residency [from, to] to
// the retention checker as one whole-rank restore per refresh interval:
// the module's internal walker refreshes every row once per interval
// while the rank sleeps, so without this coverage any residency longer
// than the checked deadline would be flagged as a (phantom) violation.
// The walker's phase is invisible to the controller, which is why the
// transition bound quoted above is two intervals, not one.
func (c *Controller) coverSelfRefresh(from, to sim.Time, ri int) {
	if c.checker == nil {
		return
	}
	interval := c.cfg.Timing.RefreshInterval
	for t := from; ; t += interval {
		if t > to {
			t = to
		}
		c.restoreRank(t, ri)
		if t >= to {
			return
		}
	}
}

// restoreRank reports a restore of every row of flat rank ri to the
// retention checker only.
// The policy is deliberately not notified: its refresh commands keep
// being generated (and dropped) during self-refresh, which resets its
// counters exactly as if it had issued them — so its state stays
// consistent — and whole-rank notifications would flood the section 4.6
// access-density window with phantom accesses.
func (c *Controller) restoreRank(t sim.Time, ri int) {
	if c.checker == nil {
		return
	}
	for b := ri << c.bankShift; b < (ri+1)<<c.bankShift; b++ {
		for r := 0; r < c.cfg.Geometry.Rows; r++ {
			c.checker.OnRestore(t, b, r)
		}
	}
}

// noteDemand records flat rank ri's activity (defers every downward
// transition).
func (c *Controller) noteDemand(t sim.Time, ri int) {
	if !c.ps.armed {
		return
	}
	c.ps.ranks[ri].lastDemand = t
	c.scheduleFrom(ri, PSAwake, t)
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
