package dram

// CBRCounter exposes a bank's internal refresh counter.
func (m *Module) CBRCounter(bank BankID) int {
	return m.cbrCounters[bank.Flat(&m.geom)]
}

// InSelfRefresh reports whether the rank is in self-refresh mode.
func (m *Module) InSelfRefresh(channel, rank int) bool {
	return m.ranks[m.rankIndex(channel, rank)].inSelfRefresh
}
