package dram

import (
	"testing"
	"testing/quick"

	"smartrefresh/internal/sim"
)

func testModule() *Module {
	return NewModule(table1Geom2GB(), DDR2_667(64*sim.Millisecond))
}

// access is Module.Access returning the result it fills.
func access(m *Module, t sim.Time, bank, row int, write bool) AccessResult {
	var res AccessResult
	m.Access(&res, t, bank, row, write)
	return res
}

func TestTimingPresetValid(t *testing.T) {
	if err := DDR2_667(64 * sim.Millisecond).Validate(); err != nil {
		t.Fatalf("DDR2_667 invalid: %v", err)
	}
	if err := DDR2_667(32 * sim.Millisecond).Validate(); err != nil {
		t.Fatalf("DDR2_667 32ms invalid: %v", err)
	}
}

func TestTimingValidateRejects(t *testing.T) {
	tt := DDR2_667(64 * sim.Millisecond)
	tt.TRC = tt.TRAS // < TRAS+TRP
	if err := tt.Validate(); err == nil {
		t.Error("TRC < TRAS+TRP accepted")
	}
	tt = DDR2_667(64 * sim.Millisecond)
	tt.TCL = 0
	if err := tt.Validate(); err == nil {
		t.Error("zero TCL accepted")
	}
	tt = DDR2_667(64 * sim.Millisecond)
	tt.RefreshInterval = tt.TRC
	if err := tt.Validate(); err == nil {
		t.Error("implausibly short refresh interval accepted")
	}
}

func TestBurstDuration(t *testing.T) {
	tt := DDR2_667(64 * sim.Millisecond)
	// 4 beats at 2 beats/clock = 2 clocks = 6 ns.
	if got := tt.BurstDuration(4); got != 6*sim.Nanosecond {
		t.Fatalf("BurstDuration(4) = %v", got)
	}
}

func TestAccessRowMissThenHit(t *testing.T) {
	m := testModule()
	r1 := access(m, 0, 0, 5, false)
	if r1.RowHit {
		t.Error("first access reported row hit")
	}
	if r1.Conflict || r1.ActivateAt != r1.Issue {
		t.Errorf("first access: conflict=%v activate at %v, want a plain activate at issue %v",
			r1.Conflict, r1.ActivateAt, r1.Issue)
	}
	// Activate + tRCD + tCL + burst.
	tt := m.Timing()
	wantDone := sim.NewClock(tt.TCK).Next(tt.TRCD) + tt.TCL + tt.BurstDuration(4)
	if r1.Done < wantDone {
		t.Errorf("miss Done = %v, want >= %v", r1.Done, wantDone)
	}

	r2 := access(m, r1.Done, 0, 5, false)
	if !r2.RowHit {
		t.Error("second access to same row not a hit")
	}
	if r2.Conflict {
		t.Error("row hit should not close rows")
	}
	if r2.Done-r2.Issue > tt.TCL+tt.BurstDuration(4)+2*tt.TCK {
		t.Errorf("hit latency %v too large", r2.Done-r2.Issue)
	}
	st := m.Stats()
	if st.RowHits != 1 || st.RowMisses != 1 || st.Accesses != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestAccessConflictClosesRow(t *testing.T) {
	m := testModule()
	r1 := access(m, 0, 0, 5, false)
	r2 := access(m, r1.Done, 0, 9, false)
	if !r2.Conflict {
		t.Fatal("conflict not reported")
	}
	if r2.ClosedRow != 5 {
		t.Errorf("closed row = %d, want 5", r2.ClosedRow)
	}
	if r2.RowHit || m.OpenRow(0) != 9 {
		t.Error("conflict did not open the requested row")
	}
	if m.Stats().RowConflicts != 1 {
		t.Errorf("RowConflicts = %d", m.Stats().RowConflicts)
	}
	// Conflict latency must exceed miss latency (extra precharge).
	if r2.Done-r2.Issue <= r1.Done-r1.Issue {
		t.Errorf("conflict latency %v not greater than miss latency %v",
			r2.Done-r2.Issue, r1.Done-r1.Issue)
	}
}

func TestAccessDifferentBanksIndependent(t *testing.T) {
	m := testModule()
	access(m, 0, 0, 5, false)
	r2 := access(m, 0, 1, 9, false)
	if r2.Conflict || r2.RowHit {
		t.Error("access to different bank should be a plain miss")
	}
	if m.OpenRow(0) != 5 || m.OpenRow(1) != 9 {
		t.Error("open rows per bank wrong")
	}
}

func TestWriteRecoveryDelaysPrecharge(t *testing.T) {
	m := testModule()
	w := access(m, 0, 0, 5, true)
	conflictAfterWrite := access(m, w.Done, 0, 9, false)

	m2 := testModule()
	r := access(m2, 0, 0, 5, false)
	conflictAfterRead := access(m2, r.Done, 0, 9, false)

	if conflictAfterWrite.Done-conflictAfterWrite.Issue <= conflictAfterRead.Done-conflictAfterRead.Issue {
		t.Errorf("write recovery did not lengthen conflict: write %v, read %v",
			conflictAfterWrite.Done-conflictAfterWrite.Issue,
			conflictAfterRead.Done-conflictAfterRead.Issue)
	}
}

func TestRefreshRowBasic(t *testing.T) {
	m := testModule()
	res := m.RefreshRow(1000, 2, 77)
	if res.Row != 77 {
		t.Errorf("refreshed row %d, want 77", res.Row)
	}
	if res.ClosedRow != -1 {
		t.Error("refresh of idle bank reported closed page")
	}
	tt := m.Timing()
	if res.Done-res.Issue < tt.TRefreshRow {
		t.Errorf("refresh duration %v < TRefreshRow %v", res.Done-res.Issue, tt.TRefreshRow)
	}
	if m.OpenRow(2) != -1 {
		t.Error("bank not precharged after refresh")
	}
	st := m.Stats()
	if st.RefreshOps != 1 || st.RefreshRASOnlyOps != 1 || st.RefreshCBROps != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRefreshClosesOpenPage(t *testing.T) {
	m := testModule()
	r := access(m, 0, 0, 5, false)
	res := m.RefreshRow(r.Done, 0, 9)
	if res.ClosedRow != 5 {
		t.Errorf("refresh did not close open page: %+v", res)
	}
	if m.Stats().RefreshConflictOps != 1 {
		t.Errorf("RefreshConflictOps = %d", m.Stats().RefreshConflictOps)
	}
}

func TestRefreshCBRCounterWraps(t *testing.T) {
	g := Geometry{Channels: 1, Ranks: 1, Banks: 2, Rows: 4, Columns: 8,
		DataWidthBits: 72, BurstLength: 4, DevicesPerRank: 2}
	tt := DDR2_667(64 * sim.Millisecond)
	tt.RefreshInterval = 64 * sim.Millisecond
	m := NewModule(g, tt)
	var rows []int
	var t0 sim.Time
	for i := 0; i < 6; i++ {
		res := m.RefreshCBR(t0, 0)
		rows = append(rows, res.Row)
		t0 = res.Done
	}
	if st := m.Stats(); st.RefreshCBROps != 6 {
		t.Errorf("RefreshCBROps = %d, want 6", st.RefreshCBROps)
	}
	want := []int{0, 1, 2, 3, 0, 1}
	for i := range want {
		if rows[i] != want[i] {
			t.Fatalf("CBR rows = %v, want %v", rows, want)
		}
	}
	// Other bank's counter must be independent.
	if m.CBRCounter(1) != 0 {
		t.Error("CBR counters not per bank")
	}
}

func TestRefreshDelaysDemandAccess(t *testing.T) {
	m := testModule()
	res := m.RefreshRow(0, 0, 7)
	// Demand access arriving mid-refresh must stall.
	acc := access(m, res.Issue+1, 0, 3, false)
	if acc.Issue < res.Done {
		t.Errorf("demand access issued at %v before refresh done %v", acc.Issue, res.Done)
	}
	if m.Stats().DemandStall == 0 {
		t.Error("demand stall not recorded")
	}
}

func TestBackgroundAccounting(t *testing.T) {
	m := testModule()
	r := access(m, 1000, 0, 5, false)
	// Close the page via a conflict access long after.
	gap := sim.Time(1 * sim.Microsecond)
	access(m, r.Done+gap, 0, 9, false)
	m.Finalize(2 * sim.Microsecond)
	st := m.Stats()
	if st.ActiveTime == 0 {
		t.Error("no active time accumulated")
	}
	if st.IdleTime == 0 {
		t.Error("no idle time accumulated")
	}
	// Two ranks: rank 1 was never touched, so idle dominates overall.
	if st.IdleTime <= st.ActiveTime {
		t.Errorf("idle %v should exceed active %v here", st.IdleTime, st.ActiveTime)
	}
}

func TestFinalizeExtendsWindow(t *testing.T) {
	m := testModule()
	m.Finalize(1 * sim.Millisecond)
	st := m.Stats()
	total := st.ActiveTime + st.IdleTime
	// 2 ranks * 1 ms.
	if total != 2*sim.Millisecond {
		t.Errorf("residency total = %v, want 2ms", total)
	}
}

func TestAccessPanicsOnBadAddress(t *testing.T) {
	m := testModule()
	defer func() {
		if recover() == nil {
			t.Error("invalid address did not panic")
		}
	}()
	access(m, 0, 0, 1<<20, false)
}

func TestRefreshPanicsOnBadRow(t *testing.T) {
	m := testModule()
	defer func() {
		if recover() == nil {
			t.Error("invalid row did not panic")
		}
	}()
	m.RefreshRow(0, 9, 0)
}

// Property: command times never move backwards for a monotone request
// stream, and every result has Issue <= DataStart <= Done.
func TestAccessMonotoneProperty(t *testing.T) {
	g := Geometry{Channels: 1, Ranks: 2, Banks: 4, Rows: 64, Columns: 64,
		DataWidthBits: 72, BurstLength: 4, DevicesPerRank: 18}
	f := func(seed uint64, n uint8) bool {
		m := NewModule(g, DDR2_667(64*sim.Millisecond))
		rng := sim.NewRNG(seed)
		var t0 sim.Time
		var lastDone sim.Time
		for i := 0; i < int(n); i++ {
			bank, row := rng.Intn(g.TotalBanks()), rng.Intn(g.Rows)
			t0 += sim.Time(rng.Intn(100)) * sim.Nanosecond
			res := access(m, t0, bank, row, rng.Bool(0.3))
			if res.Issue < t0 || res.DataStart < res.Issue || res.Done < res.DataStart {
				return false
			}
			if res.Done < lastDone && false {
				// Different banks may complete out of order; only the bus
				// is ordered. Bus ordering checked below via DataStart.
				return false
			}
			lastDone = res.Done
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: the shared data bus never carries two bursts at once.
func TestBusSerialisationProperty(t *testing.T) {
	g := Geometry{Channels: 1, Ranks: 2, Banks: 4, Rows: 64, Columns: 64,
		DataWidthBits: 72, BurstLength: 4, DevicesPerRank: 18}
	f := func(seed uint64) bool {
		m := NewModule(g, DDR2_667(64*sim.Millisecond))
		rng := sim.NewRNG(seed)
		var t0 sim.Time
		var busBusyUntil sim.Time
		for i := 0; i < 100; i++ {
			res := access(m, t0, rng.Intn(g.TotalBanks()), rng.Intn(g.Rows), false)
			if res.DataStart < busBusyUntil {
				return false
			}
			busBusyUntil = res.Done
			t0 += sim.Time(rng.Intn(20)) * sim.Nanosecond
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: accesses and refreshes to the same bank never overlap in time.
func TestBankExclusionProperty(t *testing.T) {
	g := Geometry{Channels: 1, Ranks: 1, Banks: 1, Rows: 32, Columns: 16,
		DataWidthBits: 72, BurstLength: 4, DevicesPerRank: 18}
	f := func(seed uint64) bool {
		m := NewModule(g, DDR2_667(64*sim.Millisecond))
		rng := sim.NewRNG(seed)
		var t0 sim.Time
		var busyUntil sim.Time
		for i := 0; i < 80; i++ {
			if rng.Bool(0.4) {
				res := m.RefreshRow(t0, 0, rng.Intn(g.Rows))
				if res.Issue < busyUntil-m.Timing().TCK {
					return false
				}
				busyUntil = res.Done
			} else {
				res := access(m, t0, 0, rng.Intn(g.Rows), false)
				_ = res
			}
			t0 += sim.Time(rng.Intn(50)) * sim.Nanosecond
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestActivateRateLimits: tRRD spaces activates to different banks of a
// rank, and tFAW bounds any four-activate window.
func TestActivateRateLimits(t *testing.T) {
	m := testModule()
	tt := m.Timing()
	var acts []sim.Time
	// Five back-to-back misses to five banks of one rank... the geometry
	// has 4 banks, so use 4 banks then the first again with another row.
	// Flat banks 0-3 are rank 0's, 4 is rank 1's bank 0: unconstrained.
	for bank := 0; bank < 5; bank++ {
		res := access(m, 0, bank, 1, false)
		if res.RowHit {
			t.Fatal("expected a row miss")
		}
		acts = append(acts, res.ActivateAt)
	}
	// Same-rank activates must be spaced by at least tRRD.
	for i := 1; i < 4; i++ {
		gap := acts[i] - acts[i-1]
		if gap < tt.TRRD {
			t.Errorf("activates %d and %d spaced %v < tRRD %v", i-1, i, gap, tt.TRRD)
		}
	}
	// The other rank's first activate must not be delayed by rank 0's
	// tFAW window.
	if acts[4] > acts[0]+tt.TRRD {
		t.Errorf("cross-rank activate delayed to %v", acts[4])
	}
}

func TestFourActivateWindow(t *testing.T) {
	g := Geometry{Channels: 1, Ranks: 1, Banks: 8, Rows: 16, Columns: 16,
		DataWidthBits: 72, BurstLength: 4, DevicesPerRank: 18}
	m := NewModule(g, DDR2_667(64*sim.Millisecond))
	tt := m.Timing()
	var acts []sim.Time
	for b := 0; b < 5; b++ {
		res := access(m, 0, b, 1, false)
		acts = append(acts, res.ActivateAt)
	}
	// The fifth activate must wait for tFAW after the first.
	if acts[4] < acts[0]+tt.TFAW {
		t.Errorf("fifth activate at %v violates tFAW window starting %v", acts[4], acts[0])
	}
}

func TestPrechargeBank(t *testing.T) {
	m := testModule()
	res := access(m, 0, 0, 5, false)
	row, closed := m.Precharge(res.Done+sim.Microsecond, 0)
	if !closed || row != 5 {
		t.Fatalf("Precharge = %v, %v", row, closed)
	}
	if m.OpenRow(0) != -1 {
		t.Error("bank still open")
	}
	// Idempotent on a closed bank.
	if _, closed := m.Precharge(res.Done+2*sim.Microsecond, 0); closed {
		t.Error("precharge of closed bank reported a row")
	}
}

func TestPrechargeBankHonoursTRAS(t *testing.T) {
	m := testModule()
	res := access(m, 0, 0, 5, false)
	// Request the precharge immediately; it must not complete before
	// tRAS after the activate.
	m.Precharge(res.Issue, 0)
	if m.BankReadyAt(0) < res.Issue+m.Timing().TRAS {
		t.Errorf("precharge completed before tRAS")
	}
}

// PowerDownTime is always zero: power-down residency is reported per
// ladder state. The field stays only for the shape of the fingerprinted
// Results JSON.
func TestPowerDownDisabledByDefault(t *testing.T) {
	m := testModule()
	m.Finalize(10 * sim.Microsecond)
	if m.Stats().PowerDownTime != 0 {
		t.Error("PowerDownTime is non-zero")
	}
}

func TestSelfRefreshResidency(t *testing.T) {
	m := testModule()
	m.Enter(sim.Millisecond, 0, PSSelfRefresh)
	if !m.InSelfRefresh(0) {
		t.Fatal("rank not in self-refresh")
	}
	ready := m.Exit(5*sim.Millisecond, 0)
	if m.InSelfRefresh(0) {
		t.Fatal("rank still in self-refresh")
	}
	if ready < 5*sim.Millisecond+m.Timing().TXSNR {
		t.Errorf("exit ready %v before tXSNR", ready)
	}
	m.Finalize(6 * sim.Millisecond)
	st := m.Stats()
	if st.SelfRefreshTime != 4*sim.Millisecond {
		t.Errorf("SR time = %v, want 4ms", st.SelfRefreshTime)
	}
	if st.SelfRefreshEntries != 1 {
		t.Errorf("entries = %d", st.SelfRefreshEntries)
	}
	// Post-exit access honours the exit latency.
	res := access(m, 5*sim.Millisecond, 0, 1, false)
	if res.Issue < ready {
		t.Errorf("access issued at %v before exit ready %v", res.Issue, ready)
	}
}

func TestSelfRefreshGuards(t *testing.T) {
	m := testModule()
	// Access to a rank in self-refresh panics.
	m.Enter(0, 0, PSSelfRefresh)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("access to SR rank did not panic")
			}
		}()
		access(m, 1, 0, 1, false)
	}()
	// Double entry panics.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double SR entry did not panic")
			}
		}()
		m.Enter(1, 0, PSSelfRefresh)
	}()
	// Exit of a rank not in SR panics.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("exit of non-SR rank did not panic")
			}
		}()
		m.Exit(1, 1)
	}()
	// Entry with an open page panics.
	m2 := testModule()
	access(m2, 0, 0, 1, false)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SR entry with open page did not panic")
			}
		}()
		m2.Enter(sim.Microsecond, 0, PSSelfRefresh)
	}()
	// The other rank can still operate during rank 0's self-refresh.
	if res := access(m, 2, 4, 1, false); res.Done == 0 {
		t.Error("rank 1 blocked by rank 0 self-refresh")
	}
}

// A self-refresh entry decided on a wall-clock idle deadline can land
// while queued refreshes are still chaining through the rank's banks;
// the module must clamp the entry behind the busy horizon, or the
// overlap is double-counted as both active and self-refresh residency.
func TestSelfRefreshEntryClampedBehindBusyRank(t *testing.T) {
	m := testModule()
	// Queue a burst of back-to-back CBR refreshes on one bank: each
	// occupies the bank for TRefreshRow, pushing its ready horizon far
	// past the submission time.
	const ops = 1000
	var horizon sim.Time
	for i := 0; i < ops; i++ {
		res := m.RefreshCBR(0, 0)
		horizon = res.Done
	}
	if horizon < sim.Time(ops)*sim.Time(m.Timing().TRefreshRow) {
		t.Fatalf("refresh chain ends at %v, expected at least %v serialised",
			horizon, sim.Time(ops)*sim.Time(m.Timing().TRefreshRow))
	}

	// Entry requested mid-chain: must be deferred to the busy horizon.
	entered := m.Enter(sim.Microsecond, 0, PSSelfRefresh)
	if entered < horizon {
		t.Errorf("entry at %v predates the rank's busy horizon %v", entered, horizon)
	}

	end := 2 * horizon
	m.Finalize(end)
	st := m.Stats()
	if want := sim.Duration(end - entered); st.SelfRefreshTime != want {
		t.Errorf("SR time = %v, want %v (entry clamped to %v)", st.SelfRefreshTime, want, entered)
	}
	if st.SelfRefreshTime > st.IdleTime {
		t.Errorf("SR time %v exceeds idle time %v", st.SelfRefreshTime, st.IdleTime)
	}
}

func TestRefreshKindString(t *testing.T) {
	if RefreshCBR.String() != "CBR" || RefreshRASOnly.String() != "RAS-only" {
		t.Error("RefreshKind strings wrong")
	}
	if RefreshKind(9).String() == "" {
		t.Error("unknown kind should still render")
	}
}

func TestAccessLatencyHelper(t *testing.T) {
	m := testModule()
	res := access(m, 100, 0, 0, false)
	if res.Latency(100) != res.Done-100 {
		t.Error("Latency helper wrong")
	}
}

// refModule replays the module's command timing the way it was computed
// before the clock-rounded delay table: every derived time quantised with
// Clock.Next and every constraint added unrounded. It tracks only timing
// state (no stats, trace or power-down), so it covers the streams
// TestDelayTableMatchesReference drives: demand accesses, blocking
// refreshes of every kind, and page-close precharges.
type refModule struct {
	geom      Geometry
	tim       Timing
	clk       sim.Clock
	burst     sim.Duration
	banks     []bankState
	ranks     []rankState
	busFreeAt []sim.Time
	counters  []int
}

func newRefModule(g Geometry, t Timing) *refModule {
	m := &refModule{
		geom:      g,
		tim:       t,
		clk:       sim.NewClock(t.TCK),
		burst:     t.BurstDuration(g.BurstLength),
		banks:     make([]bankState, g.TotalBanks()),
		ranks:     make([]rankState, g.Channels*g.Ranks),
		busFreeAt: make([]sim.Time, g.Channels),
		counters:  make([]int, g.TotalBanks()),
	}
	for i := range m.banks {
		m.banks[i].openRow = -1
	}
	const farPast = sim.Time(-1) << 40
	for i := range m.ranks {
		m.ranks[i].lastActivate = farPast
		for j := range m.ranks[i].actWindow {
			m.ranks[i].actWindow[j] = farPast
		}
	}
	return m
}

// refActivateOKAt is the rank's tRRD/tFAW bound on unrounded constraints.
func refActivateOKAt(r *rankState, t *Timing) sim.Time {
	earliest := r.lastActivate + t.TRRD
	oldest := r.actWindow[r.actWindowPos]
	if faw := oldest + t.TFAW; faw > earliest {
		earliest = faw
	}
	return earliest
}

func (m *refModule) access(t sim.Time, bank, row int, write bool) AccessResult {
	ri := bank / m.geom.Banks
	b := &m.banks[bank]
	busFreeAt := &m.busFreeAt[ri/m.geom.Ranks]

	res := AccessResult{}
	issue := m.clk.Next(sim.Max(t, b.readyAt))
	res.Issue = issue

	cas := issue
	switch {
	case b.openRow == row:
		res.RowHit = true
	case b.openRow == -1:
		act := sim.Max(issue, b.activateOKAt)
		act = sim.Max(act, refActivateOKAt(&m.ranks[ri], &m.tim))
		act = m.clk.Next(act)
		b.openRow = row
		m.ranks[ri].recordActivate(act)
		b.activateOKAt = act + m.tim.TRC
		b.prechargeOKAt = act + m.tim.TRAS
		cas = m.clk.Next(act + m.tim.TRCD)
		res.ActivateAt = act
	default:
		res.Conflict = true
		pre := m.clk.Next(sim.Max(issue, b.prechargeOKAt))
		res.ClosedRow = b.openRow
		act := sim.Max(pre+m.tim.TRP, b.activateOKAt)
		act = sim.Max(act, refActivateOKAt(&m.ranks[ri], &m.tim))
		act = m.clk.Next(act)
		b.openRow = row
		m.ranks[ri].recordActivate(act)
		b.activateOKAt = act + m.tim.TRC
		b.prechargeOKAt = act + m.tim.TRAS
		cas = m.clk.Next(act + m.tim.TRCD)
		res.ActivateAt = act
	}

	dataStart := m.clk.Next(sim.Max(cas+m.tim.TCL, *busFreeAt))
	dataDone := dataStart + m.burst
	*busFreeAt = dataDone
	res.DataStart = dataStart
	res.Done = dataDone

	b.readyAt = m.clk.Next(sim.Max(cas+m.tim.TCCD, dataStart))
	if write {
		b.prechargeOKAt = sim.Max(b.prechargeOKAt, dataDone+m.tim.TWR)
	} else {
		b.prechargeOKAt = sim.Max(b.prechargeOKAt, cas+m.tim.TRTP)
	}
	return res
}

func (m *refModule) refreshDur(t sim.Time, bank, row int, dur sim.Duration) Refreshed {
	ri := bank / m.geom.Banks
	b := &m.banks[bank]

	res := Refreshed{Row: row, ClosedRow: -1}
	issue := m.clk.Next(sim.Max(t, b.readyAt))
	res.Issue = issue

	start := issue
	if b.openRow != -1 {
		res.ClosedRow = b.openRow
		pre := m.clk.Next(sim.Max(issue, b.prechargeOKAt))
		b.openRow = -1
		start = m.clk.Next(pre + m.tim.TRP)
	}
	start = sim.Max(start, b.activateOKAt)
	start = m.clk.Next(sim.Max(start, refActivateOKAt(&m.ranks[ri], &m.tim)))
	m.ranks[ri].recordActivate(start)
	done := m.clk.Next(start + dur)
	b.readyAt = done
	b.activateOKAt = sim.Max(b.activateOKAt, start+m.tim.TRC)
	b.prechargeOKAt = done
	res.Done = done
	return res
}

func (m *refModule) counterRow(bank int) int {
	row := m.counters[bank]
	m.counters[bank] = (row + 1) % m.geom.Rows
	return row
}

func (m *refModule) precharge(t sim.Time, bank int) bool {
	b := &m.banks[bank]
	if b.openRow == -1 {
		return false
	}
	pre := m.clk.Next(sim.Max(t, b.prechargeOKAt))
	b.openRow = -1
	done := m.clk.Next(pre + m.tim.TRP)
	b.readyAt = sim.Max(b.readyAt, done)
	b.prechargeOKAt = done
	return true
}

// offGridTiming is a DDR-class timing set in which no constraint is a
// whole number of clocks, so every rounded delay differs from its
// unrounded value. tCCD exceeds tCL, unlike any real part, so that the
// column-to-column term of a bank's ready time binds too.
func offGridTiming() Timing {
	return Timing{
		TCK:             2500 * sim.Picosecond,
		TRCD:            13100 * sim.Picosecond,
		TRP:             13300 * sim.Picosecond,
		TCL:             12700 * sim.Picosecond,
		TRAS:            36100 * sim.Picosecond,
		TRC:             49900 * sim.Picosecond,
		TWR:             14300 * sim.Picosecond,
		TRTP:            7700 * sim.Picosecond,
		TCCD:            16100 * sim.Picosecond,
		TRRD:            6700 * sim.Picosecond,
		TFAW:            31100 * sim.Picosecond,
		TRefreshRow:     71300 * sim.Picosecond,
		TRFCpb:          73900 * sim.Picosecond,
		TXSNR:           81100 * sim.Picosecond,
		RefreshInterval: 64 * sim.Millisecond,
	}
}

// The delay table must reproduce the quantise-everything arithmetic bit
// for bit: on seeded streams mixing row hits, misses and conflicts with
// every blocking refresh kind and page-close precharges, arriving both
// before and after their bank frees, every result must match the
// reference, and every stored horizon must equal the reference's rounded
// up to the clock.
func TestDelayTableMatchesReference(t *testing.T) {
	hmc := Geometry{
		Channels: 8, Ranks: 4, Banks: 2, Rows: 4096, Columns: 128,
		DataWidthBits: 72, BurstLength: 4, DevicesPerRank: 2,
		Vaults: 8, Layers: 4,
	}
	// Eight banks per rank let five activates fall inside one tFAW
	// window (with four, tRC > tFAW keeps the window from binding).
	offGrid := table1Geom2GB()
	offGrid.Banks = 8
	offGrid.BurstLength = 8
	cases := []struct {
		name string
		geom Geometry
		tim  Timing
	}{
		{"table1-2gb", table1Geom2GB(), DDR2_667(64 * sim.Millisecond)},
		{"hmc-8v-vault", hmc.PerVault(), DDR2_667(32 * sim.Millisecond)},
		{"off-grid-bl8", offGrid, offGridTiming()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 4; seed++ {
				checkDelayTableStream(t, tc.geom, tc.tim, seed)
			}
		})
	}
}

func checkDelayTableStream(t *testing.T, g Geometry, tim Timing, seed uint64) {
	t.Helper()
	m := NewModule(g, tim)
	ref := newRefModule(g, tim)
	rng := sim.NewRNG(seed)
	var hits, misses, conflicts, closes int
	now := sim.Time(0)
	for step := 0; step < 20000; step++ {
		// Gaps from zero (back-to-back, usually before the bank frees)
		// through sub-clock offsets to whole idle stretches.
		switch rng.Intn(4) {
		case 0:
		case 1:
			now += sim.Time(rng.Intn(int(3 * tim.TCK)))
		case 2:
			now += sim.Time(rng.Intn(int(30 * sim.Nanosecond)))
		default:
			now += sim.Time(rng.Intn(int(300 * sim.Nanosecond)))
		}
		bank := rng.Intn(g.TotalBanks())
		row := rng.Intn(3) // few rows per bank: hits and conflicts both common
		if rng.Bool(0.1) {
			row = rng.Intn(g.Rows)
		}

		var got, want any
		switch op := rng.Intn(20); {
		case op < 14:
			write := rng.Bool(0.3)
			r := access(m, now, bank, row, write)
			got, want = r, ref.access(now, bank, row, write)
			switch {
			case r.RowHit:
				hits++
			case r.Conflict:
				conflicts++
			default:
				misses++
			}
		case op < 16:
			got, want = m.RefreshRow(now, bank, row), ref.refreshDur(now, bank, row, tim.TRefreshRow)
		case op < 17:
			got = m.RefreshCBR(now, bank)
			want = ref.refreshDur(now, bank, ref.counterRow(bank), tim.TRefreshRow)
		case op < 18:
			got = m.RefreshBank(now, bank, false)
			want = ref.refreshDur(now, bank, ref.counterRow(bank), tim.PerBankRefreshDuration())
		default:
			_, closed := m.Precharge(now, bank)
			got, want = closed, ref.precharge(now, bank)
			if closed {
				closes++
			}
		}
		if got != want {
			t.Fatalf("seed %d step %d at %v: got %+v, reference %+v", seed, step, now, got, want)
		}
		for i := range m.banks {
			b, r := &m.banks[i], &ref.banks[i]
			if b.openRow != r.openRow ||
				b.readyAt != ref.clk.Next(r.readyAt) ||
				b.activateOKAt != ref.clk.Next(r.activateOKAt) ||
				b.prechargeOKAt != ref.clk.Next(r.prechargeOKAt) {
				t.Fatalf("seed %d step %d bank %d: open %d ready %v act %v pre %v; reference rounded open %d ready %v act %v pre %v",
					seed, step, i, b.openRow, b.readyAt, b.activateOKAt, b.prechargeOKAt,
					r.openRow, ref.clk.Next(r.readyAt), ref.clk.Next(r.activateOKAt), ref.clk.Next(r.prechargeOKAt))
			}
		}
		for i := range m.ranks {
			a, r := &m.ranks[i], &ref.ranks[i]
			if a.lastActivate != r.lastActivate || a.actWindow != r.actWindow || a.actWindowPos != r.actWindowPos {
				t.Fatalf("seed %d step %d rank %d: activate history diverged", seed, step, i)
			}
		}
		for i := range m.channels {
			if got, want := m.channels[i].busFreeAt, ref.clk.Next(ref.busFreeAt[i]); got != want {
				t.Fatalf("seed %d step %d channel %d: bus free at %v, reference rounded %v", seed, step, i, got, want)
			}
		}
	}
	if hits == 0 || misses == 0 || conflicts == 0 || closes == 0 {
		t.Fatalf("seed %d: stream not mixed: %d hits, %d misses, %d conflicts, %d closes",
			seed, hits, misses, conflicts, closes)
	}
}
