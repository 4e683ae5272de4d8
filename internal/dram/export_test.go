package dram

// CBRCounter exposes a bank's internal refresh counter.
func (m *Module) CBRCounter(bank BankID) int {
	return m.cbrCounters[bank.Flat(&m.geom)]
}

// InSelfRefresh reports whether flat rank ri is in either self-refresh
// state.
func (m *Module) InSelfRefresh(ri int) bool { return m.ranks[ri].state.SelfRefresh() }
