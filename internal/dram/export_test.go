package dram

import "smartrefresh/internal/sim"

// CBRCounter exposes flat bank bank's internal refresh counter.
func (m *Module) CBRCounter(bank int) int { return m.cbrCounters[bank] }

// BankReadyAt reports the earliest time flat bank bank accepts another
// command.
func (m *Module) BankReadyAt(bank int) sim.Time { return m.banks[bank].readyAt }

// InSelfRefresh reports whether flat rank ri is in either self-refresh
// state.
func (m *Module) InSelfRefresh(ri int) bool { return m.ranks[ri].state.SelfRefresh() }
