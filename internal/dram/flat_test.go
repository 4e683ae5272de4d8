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

// flatOp is one command of the module.
type flatOp struct {
	name string
	run  func()
}

// flatOps is every bank command the module takes, at time t and
// addressed to flat bank bank and row row (the counter forms ignore row).
func flatOps(m *Module, t sim.Time, bank, row int) []flatOp {
	return []flatOp{
		{"Access", func() { m.Access(new(AccessResult), t, bank, row, false) }},
		{"RefreshRow", func() { m.RefreshRow(t, bank, row) }},
		{"RefreshCBR", func() { m.RefreshCBR(t, bank) }},
		{"RefreshBank", func() { m.RefreshBank(t, bank, false) }},
		{"RefreshBank/overlap", func() { m.RefreshBank(t, bank, true) }},
	}
}

// Every command bounds-checks its coordinates, so that a controller bug
// cannot reach another bank's state: an out-of-range flat bank panics on
// access, precharge and every refresh form, and an out-of-range row on
// access and RAS-only refresh. A rejected command changes no statistic.
func TestFlatCorePanicsOutOfRange(t *testing.T) {
	g := table1Geom2GB()
	banks := g.TotalBanks()
	for _, bank := range []int{-1, banks, banks + 3} {
		for _, op := range flatOps(testModule(), 0, bank, 0) {
			mustPanic(t, op.name, "invalid flat bank", op.run)
		}
		m := testModule()
		mustPanic(t, "Precharge", "invalid flat bank", func() { m.Precharge(0, bank) })
	}
	m := testModule()
	for _, row := range []int{-1, g.Rows} {
		mustPanic(t, "Access", "invalid flat bank", func() { m.Access(new(AccessResult), 0, 1, row, true) })
		mustPanic(t, "RefreshRow", "invalid flat bank", func() { m.RefreshRow(0, 1, row) })
	}
	if st := m.Stats(); st.Accesses != 0 || st.RefreshOps != 0 || st.Precharges != 0 {
		t.Errorf("rejected commands changed the stats: %+v", st)
	}
}

// A command to a rank in self-refresh panics on every form, while the
// other rank keeps serving.
func TestFlatCoreSelfRefreshGuard(t *testing.T) {
	g := table1Geom2GB()
	// Flat bank 1 is rank 0's; flat bank g.Banks is rank 1's bank 0.
	for i := range flatOps(nil, 0, 0, 0) {
		m := testModule()
		m.Enter(0, 0, PSSelfRefresh)
		op := flatOps(m, sim.Microsecond, 1, 2)[i]
		mustPanic(t, op.name, "in self-refresh", op.run)
		var res AccessResult
		if m.Access(&res, 2*sim.Microsecond, g.Banks, 2, false); res.Done == 0 {
			t.Errorf("%s: rank 1 blocked by rank 0's self-refresh", op.name)
		}
	}
}
