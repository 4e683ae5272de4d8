package dram

import (
	"fmt"

	"smartrefresh/internal/sim"
)

// PowerState is a rank's rung on the power-state ladder. The order is the
// descent order, deeper states having larger values; the values are also
// the argument of the PWR-DN trace spans. The CKE-low rungs map onto the
// DDR2/DDR3 ladder: ACT-PDN keeps pages open at IDD3P with a fast (tXP)
// exit; fast-exit PRE-PDN requires every bank precharged and draws IDD2P
// with the same tXP exit; slow-exit PRE-PDN freezes the DLL for the
// deeper IDD2P0 current but pays tXPDLL on wake. In self-refresh the
// module maintains retention from its internal oscillator (IDD6, tXSNR
// exit) and accepts no commands; slow-wake self-refresh turns the DLL
// off too (IDD6L) and pays the relock latency on exit.
type PowerState uint8

const (
	// PSAwake is a rank that accepts commands immediately, pages open or
	// not.
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

	numPowerStates
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

// SelfRefresh reports whether s is one of the two self-refresh states, in
// which the rank refreshes itself and accepts no commands.
func (s PowerState) SelfRefresh() bool { return s >= PSSelfRefresh }

// EnablePowerStates marks the stats snapshot as tracked by the explicit
// per-rank power-state machine, switching the power model's background
// integration from the two-state active/standby split to the full
// residency vector. The controller calls this once at construction when
// any power-down threshold is armed; configurations that only use
// idle-close and self-refresh leave it off so their energy numbers stay
// bit-identical to the historical two-state evaluation.
func (m *Module) EnablePowerStates() { m.stats.PowerStatesTracked = true }

// RankState reports flat rank ri's (channel*Ranks+rank) power state.
func (m *Module) RankState(ri int) PowerState { return m.ranks[ri].state }

// Enter moves flat rank ri down the ladder to state at time t and returns
// the effective entry time. The entry command queues behind the rank's
// in-flight work, so t is clamped forward past every bank's readyAt and
// the rank's residency clock (otherwise the overlap would be counted both
// as working and as asleep). Leaving a low-power state for a deeper one
// charges the shallower state's span up to the entry and starts the new
// one there. PowerDownEntries counts the entries and deepenings of the
// power-down states and SelfRefreshEntries the self-refresh entries; the
// slow-wake deepening of self-refresh counts as neither. A state no
// deeper than the rank's, slow-wake self-refresh other than from
// self-refresh, or a precharged state with open banks is a controller
// bug and panics.
func (m *Module) Enter(t sim.Time, ri int, state PowerState) sim.Time {
	r := &m.ranks[ri]
	switch {
	case state <= r.state, state == PSSelfRefreshSlow && r.state != PSSelfRefresh:
		panic(fmt.Sprintf("dram: %v entry on rank %s in %v", state, m.rankName(ri), r.state))
	case state >= PSPrePdnFast && r.openBanks != 0:
		panic(fmt.Sprintf("dram: %v entry with %d open banks on rank %s", state, r.openBanks, m.rankName(ri)))
	}
	t = max(m.rankReadyAt(ri, t), r.lastUpdate)
	m.observe(t)
	m.updateRank(ri, t)
	r.fold(t)
	r.state = state
	switch {
	case state == PSSelfRefresh:
		m.stats.SelfRefreshEntries++
	case state < PSSelfRefresh:
		m.stats.PowerDownEntries++
	}
	return t
}

// Exit wakes flat rank ri from its low-power state at time t and returns
// when it accepts its next command: t plus the state's exit latency
// (tXP, tXPDLL, tXSNR or the slow-wake relock), which every bank of the
// rank honours. Exiting an awake rank panics.
func (m *Module) Exit(t sim.Time, ri int) sim.Time {
	r := &m.ranks[ri]
	if r.state == PSAwake {
		panic(fmt.Sprintf("dram: exit of awake rank %s", m.rankName(ri)))
	}
	t = max(t, r.since)
	m.observe(t)
	m.updateRank(ri, t)
	r.fold(t)
	ready := m.clk.Next(t + m.exit[r.state])
	r.state = PSAwake
	m.holdRank(ri, ready)
	m.observe(ready)
	return ready
}

// fold charges the rank's current state with its residency up to t and
// restarts the span there, so repeated folds extend rather than
// double-count.
func (r *rankState) fold(t sim.Time) {
	if t > r.since {
		r.resid[r.state] += t - r.since
		r.since = t
	}
}
