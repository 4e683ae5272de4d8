package dram

import (
	"strings"
	"testing"

	"smartrefresh/internal/sim"
)

// mustPanic reports an error unless op panics with a message containing
// want.
func mustPanic(t *testing.T, name, want string, op func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Errorf("%s did not panic", name)
			return
		}
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Errorf("%s panicked with %v, want a message containing %q", name, r, want)
		}
	}()
	op()
}

// flatOp is one flat-indexed command of the module.
type flatOp struct {
	name string
	run  func()
}

// flatOps is every flat-indexed command the module takes, at time t and
// addressed to flat bank bank and row row (the counter forms ignore row).
func flatOps(m *Module, t sim.Time, bank, row int) []flatOp {
	return []flatOp{
		{"AccessFlat", func() { m.AccessFlat(t, bank, row, false) }},
		{"RefreshRowFlat", func() { m.RefreshRowFlat(t, bank, row) }},
		{"RefreshCBRFlat", func() { m.RefreshCBRFlat(t, bank) }},
		{"RefreshBankFlat", func() { m.RefreshBankFlat(t, bank, false) }},
		{"RefreshBankFlat/overlap", func() { m.RefreshBankFlat(t, bank, true) }},
	}
}

// The flat core keeps the bounds checks the struct entry points made: an
// out-of-range flat bank panics on access, precharge and every refresh
// form, and an out-of-range row on access and RAS-only refresh.
func TestFlatCorePanicsOutOfRange(t *testing.T) {
	g := table1Geom2GB()
	banks := g.TotalBanks()
	for _, bank := range []int{-1, banks, banks + 3} {
		for _, op := range flatOps(testModule(), 0, bank, 0) {
			mustPanic(t, op.name, "invalid flat bank", op.run)
		}
		m := testModule()
		mustPanic(t, "PrechargeFlat", "invalid flat bank", func() { m.PrechargeFlat(0, bank) })
	}
	for _, row := range []int{-1, g.Rows} {
		m := testModule()
		mustPanic(t, "AccessFlat", "invalid flat bank", func() { m.AccessFlat(0, 1, row, true) })
		mustPanic(t, "RefreshRowFlat", "invalid flat bank", func() { m.RefreshRowFlat(0, 1, row) })
	}
}

// The struct entry points validate every coordinate before reaching the
// core: a bank or row outside the geometry panics even when its flat
// index would land inside the module.
func TestStructEntryPointsPanicOnInvalidCoordinates(t *testing.T) {
	g := table1Geom2GB()
	m := testModule()
	// Bank g.Banks of rank 0 flattens to rank 1's bank 0.
	wide := BankID{Channel: 0, Rank: 0, Bank: g.Banks}
	mustPanic(t, "RefreshNextCBR", "invalid bank", func() { m.RefreshNextCBR(0, wide) })
	mustPanic(t, "RefreshBank", "invalid bank", func() { m.RefreshBank(0, wide) })
	mustPanic(t, "RefreshBankOverlapped", "invalid bank", func() { m.RefreshBankOverlapped(0, wide) })
	mustPanic(t, "PrechargeBank", "invalid bank", func() { m.PrechargeBank(0, wide) })
	mustPanic(t, "RefreshRow", "invalid row", func() { m.RefreshRow(0, RowID{Rank: g.Ranks, Row: 1}) })
	for name, addr := range map[string]Address{
		"column":  {RowID: RowID{Row: 1}, Column: g.Columns},
		"channel": {RowID: RowID{Channel: -1, Row: 1}},
		"bank":    {RowID: RowID{Bank: g.Banks, Row: 1}},
		"row":     {RowID: RowID{Row: g.Rows}},
	} {
		mustPanic(t, "Access with invalid "+name, "invalid address", func() { m.Access(0, addr, false) })
	}
	if st := m.Stats(); st.Accesses != 0 || st.RefreshOps != 0 || st.Precharges != 0 {
		t.Errorf("rejected commands changed the stats: %+v", st)
	}
}

// A command to a rank in self-refresh panics on every flat form, while
// the other rank keeps serving.
func TestFlatCoreSelfRefreshGuard(t *testing.T) {
	g := table1Geom2GB()
	// Flat bank 1 is rank 0's; flat bank g.Banks is rank 1's bank 0.
	for i := range flatOps(nil, 0, 0, 0) {
		m := testModule()
		m.EnterSelfRefresh(0, 0, 0)
		op := flatOps(m, sim.Microsecond, 1, 2)[i]
		mustPanic(t, op.name, "in self-refresh", op.run)
		if res := m.AccessFlat(2*sim.Microsecond, g.Banks, 2, false); res.Done == 0 {
			t.Errorf("%s: rank 1 blocked by rank 0's self-refresh", op.name)
		}
	}
}
