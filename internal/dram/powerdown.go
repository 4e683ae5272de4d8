package dram

import (
	"fmt"

	"smartrefresh/internal/sim"
)

// PowerDownKind names the explicit CKE-low power-down modes a controller
// can drive a rank into between idle-close and self-refresh. The modes
// map onto the DDR2/DDR3 ladder: ACT-PDN keeps pages open at IDD3P with
// a fast (tXP) exit; fast-exit PRE-PDN requires every bank precharged
// and draws IDD2P with the same tXP exit; slow-exit PRE-PDN freezes the
// DLL for the deeper IDD2P0 current but pays tXPDLL on wake.
type PowerDownKind uint8

const (
	// PDNone marks a rank that is not in an explicit power-down mode.
	PDNone PowerDownKind = iota
	// PDActive is active power-down: pages stay open, clock stopped.
	PDActive
	// PDPrechargeFast is precharge power-down with the DLL running.
	PDPrechargeFast
	// PDPrechargeSlow is precharge power-down with the DLL frozen.
	PDPrechargeSlow
)

// String names the power-down kind.
func (k PowerDownKind) String() string {
	switch k {
	case PDNone:
		return "none"
	case PDActive:
		return "act-pdn"
	case PDPrechargeFast:
		return "pre-pdn-fast"
	case PDPrechargeSlow:
		return "pre-pdn-slow"
	default:
		return fmt.Sprintf("PowerDownKind(%d)", int(k))
	}
}

// EnablePowerStates marks the stats snapshot as tracked by the explicit
// per-rank power-state machine, switching the power model's background
// integration from the two-state active/standby split to the full
// residency vector. The controller calls this once at construction when
// any power-down threshold is armed; configurations that only use
// idle-close and self-refresh leave it off so their energy numbers stay
// bit-identical to the historical two-state evaluation.
func (m *Module) EnablePowerStates() { m.stats.PowerStatesTracked = true }

// PowerDownState reports the rank's current explicit power-down mode
// (PDNone when awake or in self-refresh).
func (m *Module) PowerDownState(channel, rank int) PowerDownKind {
	return m.ranks[m.rankIndex(channel, rank)].pdKind
}

// EnterPowerDown puts a rank into the given power-down mode at time t
// and returns the effective entry time. Like self-refresh entry, the
// PDE command queues behind the rank's in-flight work, so t is clamped
// forward past every bank's readyAt (otherwise the overlap would be
// double-counted as both working and powered down). Deepening an
// existing power-down (fast → slow PRE-PDN) folds the shallower span
// and restarts the clock; entering with kind PDNone, from self-refresh,
// or a precharge mode with open banks is a controller bug and panics.
func (m *Module) EnterPowerDown(t sim.Time, channel, rank int, kind PowerDownKind) sim.Time {
	ri := m.rankIndex(channel, rank)
	r := &m.ranks[ri]
	switch {
	case kind == PDNone:
		panic(fmt.Sprintf("dram: power-down entry with kind PDNone on ch%d/rk%d", channel, rank))
	case r.inSelfRefresh:
		panic(fmt.Sprintf("dram: power-down entry on ch%d/rk%d in self-refresh", channel, rank))
	case kind != PDActive && r.openBanks != 0:
		panic(fmt.Sprintf("dram: %v entry with %d open banks on ch%d/rk%d",
			kind, r.openBanks, channel, rank))
	}
	t = m.rankReadyAt(ri, t)
	if r.lastUpdate > t {
		t = r.lastUpdate
	}
	m.observe(t)
	m.updateRank(ri, t)
	if r.pdKind != PDNone {
		m.foldPowerDown(r, t)
	}
	r.pdKind = kind
	r.pdSince = t
	m.stats.PowerDownEntries++
	return t
}

// foldPowerDown folds the rank's open power-down span ending at t into
// its per-kind accumulator and advances pdSince, so repeated folds
// extend rather than double-count.
func (m *Module) foldPowerDown(r *rankState, t sim.Time) {
	if t < r.pdSince {
		t = r.pdSince
	}
	d := t - r.pdSince
	switch r.pdKind {
	case PDActive:
		r.actPdnTime += d
	case PDPrechargeFast:
		r.preFastTime += d
	case PDPrechargeSlow:
		r.preSlowTime += d
	}
	r.pdSince = t
}

// ExitPowerDown wakes a rank from power-down at time t and returns when
// it accepts its next command: t plus the fast exit (tXP) for ACT-PDN
// and fast PRE-PDN, or the slow exit (tXPDLL) for slow PRE-PDN. Exiting
// a rank that is not in power-down panics.
func (m *Module) ExitPowerDown(t sim.Time, channel, rank int) sim.Time {
	ri := m.rankIndex(channel, rank)
	r := &m.ranks[ri]
	if r.pdKind == PDNone {
		panic(fmt.Sprintf("dram: rank ch%d/rk%d not in power-down", channel, rank))
	}
	if t < r.pdSince {
		t = r.pdSince
	}
	m.observe(t)
	m.updateRank(ri, t)
	exit := m.pdExit[r.pdKind]
	m.foldPowerDown(r, t)
	r.pdKind = PDNone
	ready := m.clk.Next(t + exit)
	// Every bank of the rank honours the exit latency.
	m.holdRank(ri, ready)
	m.observe(ready)
	return ready
}

// SlowSelfRefresh deepens an in-progress self-refresh to the slow-wake
// (DLL-off) mode at time t: residency from t draws IDD6L instead of
// IDD6, and the eventual exit pays the DLL relock latency. Calling on a
// rank that is not in self-refresh (or already slow) panics.
func (m *Module) SlowSelfRefresh(t sim.Time, channel, rank int) {
	ri := m.rankIndex(channel, rank)
	r := &m.ranks[ri]
	if !r.inSelfRefresh {
		panic(fmt.Sprintf("dram: slow self-refresh on ch%d/rk%d not in self-refresh", channel, rank))
	}
	if r.srSlow {
		panic(fmt.Sprintf("dram: rank ch%d/rk%d already in slow self-refresh", channel, rank))
	}
	if t < r.srSince {
		t = r.srSince
	}
	m.observe(t)
	r.srSlow = true
	r.srSlowSince = t
}
