package dram

import (
	"fmt"
	"math/bits"

	"smartrefresh/internal/sim"
	"smartrefresh/internal/stats"
	"smartrefresh/internal/telemetry"
)

// RefreshKind distinguishes the two refresh command styles (section 3 of
// the paper).
type RefreshKind int

const (
	// RefreshCBR is CAS-before-RAS refresh: the module-internal counter
	// supplies the row address, so nothing is driven on the address bus.
	// The paper's baseline uses distributed CBR.
	RefreshCBR RefreshKind = iota
	// RefreshRASOnly is RAS-only refresh: the controller drives the row
	// address, which Smart Refresh requires (it refreshes specific rows out
	// of order) and which costs extra bus energy.
	RefreshRASOnly
	// RefreshPerBank is a bank-granular refresh command (REFpb): the
	// bank's internal counter supplies the row (no address-bus energy,
	// like CBR), but only the addressed bank is occupied — the other
	// banks of the rank keep serving demand. This is the LPDDR/HBM-style
	// command the refresh-access-parallelism policies (DARP, SARP) build
	// on.
	RefreshPerBank
	// RefreshAllBank is the conventional all-bank refresh command
	// (REFab): one counter row per bank, every bank of the rank frozen
	// for tRFCab. It exists as the contrast case for REFpb.
	RefreshAllBank
)

// String names the refresh kind.
func (k RefreshKind) String() string {
	switch k {
	case RefreshCBR:
		return "CBR"
	case RefreshRASOnly:
		return "RAS-only"
	case RefreshPerBank:
		return "per-bank"
	case RefreshAllBank:
		return "all-bank"
	default:
		return fmt.Sprintf("RefreshKind(%d)", int(k))
	}
}

// AccessResult describes the outcome of one demand read or write. The
// accessed bank's coordinates are the caller's address, so the result
// carries only what the access decided: every access that is not a
// RowHit activated the requested row at ActivateAt, and a Conflict first
// precharged ClosedRow of the same bank.
type AccessResult struct {
	Issue     sim.Time // when the first command issued (after bank ready)
	DataStart sim.Time // first data beat on the bus
	Done      sim.Time // last data beat on the bus
	RowHit    bool     // open-page hit: no activate needed
	Conflict  bool     // another row was open and had to be closed

	// ClosedRow is the row index, in the accessed bank, of the page a
	// Conflict precharged (undefined otherwise). Closing a page restores
	// the cells, which resets that row's Smart Refresh counter.
	ClosedRow int

	// ActivateAt is the activate command time of a miss or conflict
	// (after bank, tRRD and tFAW constraints).
	ActivateAt sim.Time
}

// Latency returns the demand latency from request to last data beat.
func (r AccessResult) Latency(requested sim.Time) sim.Duration {
	return r.Done - requested
}

// RefreshResult describes the outcome of one refresh operation.
type RefreshResult struct {
	Row  RowID
	Kind RefreshKind
	// Issue..Done is the bank occupancy of the refresh.
	Issue sim.Time
	Done  sim.Time
	// ClosedOpenRow is true when the refresh found the bank with an open
	// page and had to close it first — the extra-energy case the paper
	// calls out when explaining why refresh-count and refresh-energy
	// reductions are not linearly related. ClosedRow is then the closed
	// page's row index in Row's bank.
	ClosedOpenRow bool
	ClosedRow     int
}

// ModuleStats aggregates the activity counts and state-residency times the
// power model consumes.
type ModuleStats struct {
	Accesses     uint64
	Reads        uint64
	Writes       uint64
	RowHits      uint64
	RowMisses    uint64 // bank precharged, activate needed
	RowConflicts uint64 // other row open, precharge + activate needed
	Activates    uint64
	Precharges   uint64

	// RefreshOps counts row-refresh operations of every kind; the
	// invariant RefreshOps == RefreshCBROps + RefreshRASOnlyOps +
	// RefreshPerBankOps + Banks×RefreshAllBankOps holds (one REFab
	// restores one counter row in each bank of the rank).
	RefreshOps         uint64
	RefreshCBROps      uint64
	RefreshRASOnlyOps  uint64
	RefreshPerBankOps  uint64 // REFpb row refreshes
	RefreshOverlapOps  uint64 // subset of RefreshPerBankOps issued overlapped (SARP)
	RefreshAllBankOps  uint64 // REFab commands (each restores Banks rows)
	RefreshConflictOps uint64 // refreshes that had to close an open page

	// Background state residency summed over all ranks: a rank is active
	// while any of its banks has an open row, idle otherwise.
	ActiveTime sim.Duration
	IdleTime   sim.Duration

	// PowerDownTime is always zero: power-down residency is reported
	// per ladder state (ActPdnTime, PrePdnFastTime, PrePdnSlowTime).
	// The field is kept only so the fingerprinted Results JSON keeps
	// its shape.
	PowerDownTime sim.Duration

	// SelfRefreshTime is the part of IdleTime spent in self-refresh mode
	// (the module refreshes itself from its internal oscillator at IDD6);
	// SelfRefreshEntries counts mode entries.
	SelfRefreshTime    sim.Duration
	SelfRefreshEntries uint64

	// Explicit power-state residencies, tracked when the controller runs
	// the per-rank power-state machine (EnablePowerStates). ActPdnTime is
	// a subset of ActiveTime (pages stay open in ACT-PDN); the PRE-PDN
	// residencies are subsets of IdleTime, disjoint from SelfRefreshTime;
	// SelfRefreshSlowTime is the slow-wake (DLL-off) subset of
	// SelfRefreshTime. PowerDownEntries counts CKE-low mode entries of
	// every power-down kind (deepenings included).
	ActPdnTime          sim.Duration
	PrePdnFastTime      sim.Duration
	PrePdnSlowTime      sim.Duration
	SelfRefreshSlowTime sim.Duration
	PowerDownEntries    uint64

	// PowerStatesTracked marks the snapshot as produced under the
	// explicit power-state machine: the power model then integrates
	// background energy over the residency vector above instead of the
	// two-state active/standby split. Sub preserves the flag and Add ORs
	// it, so windowed and folded snapshots keep the evaluation mode.
	PowerStatesTracked bool

	// DemandStall accumulates time demand accesses spent waiting for a
	// bank that was busy (including refresh occupancy); this drives the
	// Figure 18 performance comparison.
	DemandStall sim.Duration
}

var moduleStatsRule = stats.RuleFor[ModuleStats]()

// Sub returns s over the window after earlier (stats.Rule); the
// experiment harness uses it to exclude warmup from measured windows.
func (s ModuleStats) Sub(earlier ModuleStats) ModuleStats { return moduleStatsRule.Window(s, earlier) }

// Add returns s and o folded (stats.Rule), used to aggregate per-vault
// modules into stack-level totals.
func (s ModuleStats) Add(o ModuleStats) ModuleStats { return moduleStatsRule.Fold(s, o) }

type bankState struct {
	openRow       int // -1 when precharged
	readyAt       sim.Time
	prechargeOKAt sim.Time // tRAS / write-recovery constraint
	activateOKAt  sim.Time // tRC constraint

	// Overlapped (SARP-style) refresh in flight: until srefUntil, demand
	// to the refreshing subarray (srefSub) must wait, while the rest of
	// the bank keeps serving. Zero when no overlapped refresh is active.
	srefUntil sim.Time
	srefSub   int
}

type rankState struct {
	openBanks  int
	lastUpdate sim.Time
	activeTime sim.Duration
	idleTime   sim.Duration

	// Activate-rate limits: lastActivate enforces tRRD (activate to
	// activate, different banks of one rank); actWindow holds the last
	// four activate times for the rolling-four-activate window tFAW.
	lastActivate sim.Time
	actWindow    [4]sim.Time
	actWindowPos int

	// Self-refresh state: while inSelfRefresh, the module maintains
	// retention internally and accepts no commands for this rank.
	inSelfRefresh   bool
	srSince         sim.Time
	selfRefreshTime sim.Duration

	// Slow-wake self-refresh: set when the controller deepens an
	// in-progress self-refresh to the DLL-off mode; exit then pays the
	// relock latency and the [srSlowSince, exit] span draws IDD6L.
	srSlow      bool
	srSlowSince sim.Time
	srSlowTime  sim.Duration

	// Explicit controller-driven power-down (EnterPowerDown): the rank
	// has been in pdKind since pdSince; per-kind accumulators fold at
	// exit and Finalize.
	pdKind      PowerDownKind
	pdSince     sim.Time
	actPdnTime  sim.Duration
	preFastTime sim.Duration
	preSlowTime sim.Duration
}

// activateOKAt returns the earliest time a new activate may issue in the
// rank under tRRD and tFAW. The recorded activates are clock edges, so
// with the clock-rounded delays the result is an edge too.
func (r *rankState) activateOKAt(d *delays) sim.Time {
	earliest := r.lastActivate + d.rrd
	// The oldest of the last four activates bounds the fifth.
	oldest := r.actWindow[r.actWindowPos]
	if faw := oldest + d.faw; faw > earliest {
		earliest = faw
	}
	return earliest
}

// recordActivate notes an activate at time at.
func (r *rankState) recordActivate(at sim.Time) {
	r.lastActivate = at
	r.actWindow[r.actWindowPos] = at
	r.actWindowPos = (r.actWindowPos + 1) % len(r.actWindow)
}

type channelState struct {
	busFreeAt sim.Time
}

// delays is the timing set resolved once at NewModule into the offsets
// the command paths add: each JEDEC constraint rounded up to whole
// command clocks. Rounding is exact, not an approximation. Every time the
// module stores (bank and channel horizons, activate history) is a clock
// edge, and for an edge e, Next(e+x) == e+ceil(x) and Next(max(a, b)) ==
// max(Next(a), Next(b)); so an edge plus a rounded delay is the edge the
// unrounded sum would have been quantised to, and only an incoming
// request time ever needs Clock.Next.
type delays struct {
	rcd, cl, ccd, rtp, rp, ras, rc, rrd, faw sim.Duration

	burst   sim.Duration // data-bus occupancy of one access
	burstWR sim.Duration // first data beat to precharge after a write: burst + tWR

	rfc   sim.Duration // Timing.TRefreshRow (CBR and RAS-only)
	rfcPB sim.Duration // Timing.PerBankRefreshDuration (REFpb)
	rfcAB sim.Duration // Timing.AllBankRefreshDuration over the rank's banks (REFab)
}

// newDelays rounds the timing set onto its command clock for a
// geometry's burst length and bank count.
func newDelays(t *Timing, g *Geometry) delays {
	clk := sim.NewClock(t.TCK)
	up := func(d sim.Duration) sim.Duration { return clk.Next(d) }
	burst := t.BurstDuration(g.BurstLength)
	return delays{
		rcd: up(t.TRCD), cl: up(t.TCL), ccd: up(t.TCCD), rtp: up(t.TRTP),
		rp: up(t.TRP), ras: up(t.TRAS), rc: up(t.TRC), rrd: up(t.TRRD), faw: up(t.TFAW),
		burst:   up(burst),
		burstWR: up(burst + t.TWR),
		rfc:     up(t.TRefreshRow),
		rfcPB:   up(t.PerBankRefreshDuration()),
		rfcAB:   up(t.AllBankRefreshDuration(g.Banks)),
	}
}

// Module is a DRAM module with open-page row-buffer policy. It is not safe
// for concurrent use; the simulator is single-threaded by design.
type Module struct {
	geom Geometry
	tim  Timing
	clk  sim.Clock
	// burst is the data-bus occupancy of one access, fixed by the
	// geometry's burst length and the timing: the unrounded span
	// AccessResult.Done reports. d holds the clock-rounded offsets the
	// command paths add to stored times.
	burst sim.Duration
	d     delays

	// banks, ranks and channels are indexed flat: bank BankID.Flat, rank
	// channel*Ranks+rank. A flat bank's rank is bank >> bankShift and a
	// flat rank's channel is rank >> rankShift (log2 Banks and log2
	// Ranks; Validate makes both dimensions powers of two).
	banks     []bankState
	ranks     []rankState
	channels  []channelState
	bankShift uint
	rankShift uint

	// cbrCounters holds the module-internal CBR row counter per bank. The
	// counter initialises to zero at power-up and wraps at Rows; it cannot
	// be reset (section 3). Per-bank refresh (REFpb) and all-bank refresh
	// (REFab) walk the same counters — JEDEC specifies a single internal
	// refresh pointer per bank regardless of command style.
	cbrCounters []int

	// subRows is the number of rows per subarray, used by the overlapped
	// (SARP-style) per-bank refresh to decide which demand rows conflict
	// with an in-flight refresh. Fixed at Rows/subarraysPerBank.
	subRows int

	stats ModuleStats
	now   sim.Time // latest time observed, for Finalize

	// trace, when non-nil, receives one timeline event per DRAM command
	// (ACT/PRE/READ/WRITE and both refresh kinds) on the flat-bank
	// thread. The nil check is the entire disabled-path cost.
	trace *telemetry.Scope
}

// NewModule constructs a module; it panics on invalid configuration
// because a bad configuration is a programming error, not a runtime
// condition.
func NewModule(g Geometry, t Timing) *Module {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	if err := t.Validate(); err != nil {
		panic(err)
	}
	m := &Module{
		geom:        g,
		tim:         t,
		clk:         sim.NewClock(t.TCK),
		burst:       t.BurstDuration(g.BurstLength),
		d:           newDelays(&t, &g),
		banks:       make([]bankState, g.TotalBanks()),
		ranks:       make([]rankState, g.Channels*g.Ranks),
		channels:    make([]channelState, g.Channels),
		cbrCounters: make([]int, g.TotalBanks()),
		subRows:     subarrayRows(g.Rows),
		bankShift:   uint(bits.TrailingZeros(uint(g.Banks))),
		rankShift:   uint(bits.TrailingZeros(uint(g.Ranks))),
	}
	for i := range m.banks {
		m.banks[i].openRow = -1
	}
	// Seed the activate-rate trackers far in the past so the first
	// activates are not rate-limited by the zero value.
	const farPast = sim.Time(-1) << 40
	for i := range m.ranks {
		m.ranks[i].lastActivate = farPast
		for j := range m.ranks[i].actWindow {
			m.ranks[i].actWindow[j] = farPast
		}
	}
	return m
}

// SetTraceScope attaches a command tracer to the module and labels one
// trace thread per flat bank. A nil scope disables tracing (the
// default). Call before simulation starts.
func (m *Module) SetTraceScope(s *telemetry.Scope) {
	m.trace = s
	if s == nil {
		return
	}
	for flat := range m.banks {
		id := BankFromFlat(&m.geom, flat)
		s.NameThread(flat, fmt.Sprintf("ch%d/rk%d/bk%d", id.Channel, id.Rank, id.Bank))
	}
}

// TraceScope returns the attached command tracer scope (nil when
// tracing is disabled), so the owning controller can emit its own
// events onto the same process.
func (m *Module) TraceScope() *telemetry.Scope { return m.trace }

// Geometry returns the module geometry.
func (m *Module) Geometry() Geometry { return m.geom }

// Timing returns the module timing.
func (m *Module) Timing() Timing { return m.tim }

// Stats returns a snapshot of the accumulated statistics. Call Finalize
// first to flush background-state residency up to the end of simulation.
func (m *Module) Stats() ModuleStats { return m.stats }

func (m *Module) rankIndex(ch, rank int) int { return ch<<m.rankShift | rank }

func (m *Module) observe(t sim.Time) {
	if t > m.now {
		m.now = t
	}
}

// updateRank accumulates background residency for a rank up to time t.
func (m *Module) updateRank(ri int, t sim.Time) {
	r := &m.ranks[ri]
	if t <= r.lastUpdate {
		return
	}
	d := t - r.lastUpdate
	if r.openBanks > 0 {
		r.activeTime += d
	} else {
		r.idleTime += d
	}
	r.lastUpdate = t
}

// openBank transitions a bank to open at time t.
func (m *Module) openBank(b *bankState, ri int, row int, t sim.Time) {
	m.updateRank(ri, t)
	if b.openRow == -1 {
		m.ranks[ri].openBanks++
	}
	b.openRow = row
}

// closeBank transitions a bank to precharged at time t.
func (m *Module) closeBank(b *bankState, ri int, t sim.Time) {
	m.updateRank(ri, t)
	if b.openRow != -1 {
		m.ranks[ri].openBanks--
	}
	b.openRow = -1
}

// Access performs one demand read or write under the open-page policy and
// returns the command/data timing plus which row, if any, was closed.
// The request is presented at time t; if the bank is busy the access
// stalls until it is ready. An address outside the geometry panics.
func (m *Module) Access(t sim.Time, addr Address, write bool) AccessResult {
	if !addr.Valid(&m.geom) {
		badAddress(addr)
	}
	var res AccessResult
	m.access(&res, t, addr.BankOf().Flat(&m.geom), addr.Row, write)
	return res
}

// badAddress is Access's panic, out of line like badIndex.
func badAddress(addr Address) {
	panic(fmt.Sprintf("dram: access to invalid address %+v", addr))
}

// AccessFlat is Access addressed by flat bank index (BankID.Flat) and row
// within that bank; the column does not affect timing, so it is not an
// argument. An out-of-range bank or row, or a rank in self-refresh,
// panics.
func (m *Module) AccessFlat(t sim.Time, bank, row int, write bool) AccessResult {
	if uint(bank) >= uint(len(m.banks)) || uint(row) >= uint(m.geom.Rows) {
		badIndex("access", bank, row)
	}
	var res AccessResult
	m.access(&res, t, bank, row, write)
	return res
}

// access is the one demand-access core, behind Access and AccessFlat:
// it fills res, which the caller has zeroed, for a bank and row already
// checked. Filling the caller's result, rather than returning one that
// both wrappers would copy again, keeps Access as cheap as before
// (DESIGN §15).
func (m *Module) access(res *AccessResult, t sim.Time, bank, row int, write bool) {
	m.observe(t)
	ri := bank >> m.bankShift
	r := &m.ranks[ri]
	if r.inSelfRefresh {
		panic(fmt.Sprintf("dram: access to rank %s in self-refresh", m.rankName(ri)))
	}
	b := &m.banks[bank]
	ch := &m.channels[ri>>m.rankShift]
	d := &m.d

	ready := b.readyAt
	if b.srefUntil > t && row/m.subRows == b.srefSub && b.srefUntil > ready {
		// An overlapped refresh is restoring this row's subarray: demand
		// to it serializes behind the refresh (other subarrays proceed).
		ready = b.srefUntil
	}
	issue := m.issueAt(t, ready)
	if issue > t {
		m.stats.DemandStall += issue - t
	}
	res.Issue = issue

	cas := issue // when the column command can go
	if b.openRow == row {
		// Row hit: column command straight away.
		res.RowHit = true
		m.stats.RowHits++
	} else {
		act := issue
		if b.openRow == -1 {
			// Bank precharged: activate then column command.
			m.stats.RowMisses++
		} else {
			// Conflict: close the open page (restoring its cells), then
			// activate the requested row.
			m.stats.RowConflicts++
			res.Conflict = true
			res.ClosedRow = b.openRow
			pre := sim.Max(issue, b.prechargeOKAt)
			if m.trace != nil {
				m.trace.Command(telemetry.CmdPrecharge, bank, b.openRow, pre, pre+m.tim.TRP)
			}
			m.closeBank(b, ri, pre)
			m.stats.Precharges++
			act = pre + d.rp
		}
		act = sim.Max(act, b.activateOKAt)
		act = sim.Max(act, r.activateOKAt(d))
		m.openBank(b, ri, row, act)
		r.recordActivate(act)
		m.stats.Activates++
		b.activateOKAt = act + d.rc
		b.prechargeOKAt = act + d.ras
		cas = act + d.rcd
		res.ActivateAt = act
		if m.trace != nil {
			m.trace.Command(telemetry.CmdActivate, bank, row, act, cas)
		}
	}

	dataStart := sim.Max(cas+d.cl, ch.busFreeAt)
	dataDone := dataStart + m.burst
	ch.busFreeAt = dataStart + d.burst
	res.DataStart = dataStart
	res.Done = dataDone

	// Next column command to this bank.
	b.readyAt = sim.Max(cas+d.ccd, dataStart)
	// Write recovery / read-to-precharge constraints.
	if write {
		m.stats.Writes++
		b.prechargeOKAt = sim.Max(b.prechargeOKAt, dataStart+d.burstWR)
		if m.trace != nil {
			m.trace.Command(telemetry.CmdWrite, bank, row, dataStart, dataDone)
		}
	} else {
		m.stats.Reads++
		b.prechargeOKAt = sim.Max(b.prechargeOKAt, cas+d.rtp)
		if m.trace != nil {
			m.trace.Command(telemetry.CmdRead, bank, row, dataStart, dataDone)
		}
	}
	m.stats.Accesses++
	m.observe(dataDone)
}

// badIndex is the panic of the flat core's bounds checks, out of line so
// that they cost a compare and a branch: a flat bank outside the module,
// or a row outside the bank, is a controller bug.
func badIndex(op string, bank, row int) {
	panic(fmt.Sprintf("dram: %s of invalid flat bank %d row %d", op, bank, row))
}

// validBank returns bank's flat index, panicking when bank lies outside
// the geometry; op names the command in the message.
func (m *Module) validBank(op string, bank BankID) int {
	if !bank.Valid(&m.geom) {
		panic(fmt.Sprintf("dram: %s of invalid bank %+v", op, bank))
	}
	return bank.Flat(&m.geom)
}

// rankName renders flat rank ri as ch<channel>/rk<rank> for messages.
func (m *Module) rankName(ri int) string {
	return fmt.Sprintf("ch%d/rk%d", ri>>m.rankShift, ri&(m.geom.Ranks-1))
}

// issueAt returns the first clock edge at or after both the request time
// t and ready, a stored bank horizon. Every stored horizon is a clock
// edge (see delays), so only a t past ready needs quantising.
func (m *Module) issueAt(t, ready sim.Time) sim.Time {
	if t > ready {
		return m.clk.Next(t)
	}
	return ready
}

// Refreshed is the outcome of one refresh on the flat-indexed core: the
// bank was occupied from Issue to Done restoring Row, after first
// closing the open page ClosedRow (-1 when the bank was precharged or an
// overlapped refresh left the page open). Both are rows of the refreshed
// bank.
type Refreshed struct {
	Issue, Done    sim.Time
	Row, ClosedRow int
}

// result expands a core refresh of flat bank bank into the RefreshResult
// the BankID/RowID entry points return.
func (m *Module) result(bank int, kind RefreshKind, r Refreshed) RefreshResult {
	res := RefreshResult{Row: RowInBank(&m.geom, bank, r.Row), Kind: kind, Issue: r.Issue, Done: r.Done}
	if r.ClosedRow >= 0 {
		res.ClosedOpenRow, res.ClosedRow = true, r.ClosedRow
	}
	return res
}

// RefreshRow performs a RAS-only refresh of the addressed row: the
// controller supplies the row address. If the bank has an open page it is
// closed first (counted as a conflict refresh; this is the higher-energy
// case the paper describes). A row outside the geometry panics.
func (m *Module) RefreshRow(t sim.Time, row RowID) RefreshResult {
	if !row.Valid(&m.geom) {
		panic(fmt.Sprintf("dram: refresh of invalid row %+v", row))
	}
	bank := row.BankOf().Flat(&m.geom)
	return m.result(bank, RefreshRASOnly, m.RefreshRowFlat(t, bank, row.Row))
}

// RefreshRowFlat is RefreshRow addressed by flat bank index and row
// within that bank.
func (m *Module) RefreshRowFlat(t sim.Time, bank, row int) Refreshed {
	if uint(bank) >= uint(len(m.banks)) || uint(row) >= uint(m.geom.Rows) {
		badIndex("refresh", bank, row)
	}
	return m.refreshBlocking(t, bank, row, RefreshRASOnly, m.d.rfc)
}

// RefreshNextCBR performs a CBR refresh on the given bank: the module's
// internal counter supplies the row and then increments, wrapping at the
// row count (section 3: "There is no way to reset the counter once set").
func (m *Module) RefreshNextCBR(t sim.Time, bank BankID) RefreshResult {
	bi := m.validBank("refresh", bank)
	return m.result(bi, RefreshCBR, m.RefreshCBRFlat(t, bi))
}

// RefreshCBRFlat is RefreshNextCBR addressed by flat bank index.
func (m *Module) RefreshCBRFlat(t sim.Time, bank int) Refreshed {
	if uint(bank) >= uint(len(m.banks)) {
		badIndex("refresh", bank, 0)
	}
	return m.refreshBlocking(t, bank, m.counterRow(bank), RefreshCBR, m.d.rfc)
}

// counterRow reads and advances flat bank bank's internal refresh
// counter.
func (m *Module) counterRow(bank int) int {
	row := m.cbrCounters[bank]
	m.cbrCounters[bank] = (row + 1) & (m.geom.Rows - 1)
	return row
}

// subarraysPerBank is the fixed subarray count the overlapped refresh
// model assumes; commodity banks are built from tens of subarrays, so 8
// is a conservative (pessimistic-conflict) choice.
const subarraysPerBank = 8

// subarrayRows returns the rows per subarray for a bank of rows rows.
func subarrayRows(rows int) int {
	n := rows / subarraysPerBank
	if n < 1 {
		n = 1
	}
	return n
}

// RefreshBank performs a per-bank refresh (REFpb) on the given bank: the
// bank's internal counter supplies the row, only this bank is occupied
// (for Timing.PerBankRefreshDuration), and the rank's other banks keep
// serving demand. An open page is closed first, as with the other
// refresh styles.
func (m *Module) RefreshBank(t sim.Time, bank BankID) RefreshResult {
	bi := m.validBank("refresh", bank)
	return m.result(bi, RefreshPerBank, m.RefreshBankFlat(t, bi, false))
}

// RefreshBankOverlapped performs a per-bank refresh that parallelizes
// with demand to the same bank, approximating SARP (Chang et al.): the
// refresh restores its counter row's subarray for the full
// PerBankRefreshDuration and charges full refresh energy, but the bank
// only blocks demand to the refreshing subarray — accesses to the other
// subarrays proceed, and an open page in another subarray stays open.
// The rank-level activate-rate limits (tRRD, tFAW) still apply, since
// the hidden activate draws real current.
func (m *Module) RefreshBankOverlapped(t sim.Time, bank BankID) RefreshResult {
	bi := m.validBank("refresh", bank)
	return m.result(bi, RefreshPerBank, m.RefreshBankFlat(t, bi, true))
}

// RefreshBankFlat is RefreshBank, or RefreshBankOverlapped when overlap
// is set, addressed by flat bank index.
func (m *Module) RefreshBankFlat(t sim.Time, bank int, overlap bool) Refreshed {
	if uint(bank) >= uint(len(m.banks)) {
		badIndex("refresh", bank, 0)
	}
	row := m.counterRow(bank)
	if overlap {
		return m.refreshOverlapped(t, bank, row)
	}
	return m.refreshBlocking(t, bank, row, RefreshPerBank, m.d.rfcPB)
}

// refreshOverlapped is the overlapped per-bank refresh of row in flat
// bank bank (see RefreshBankOverlapped).
func (m *Module) refreshOverlapped(t sim.Time, bank, row int) Refreshed {
	m.observe(t)
	ri := bank >> m.bankShift
	if m.ranks[ri].inSelfRefresh {
		panic(fmt.Sprintf("dram: refresh to rank %s in self-refresh", m.rankName(ri)))
	}
	b := &m.banks[bank]

	res := Refreshed{Row: row, ClosedRow: -1}
	issue := m.issueAt(t, b.readyAt)
	res.Issue = issue
	start := issue

	sameSub := b.openRow != -1 && b.openRow/m.subRows == row/m.subRows
	if sameSub {
		// The open page lives in the refreshing subarray: it must close
		// first — the same conflict case as a blocking refresh.
		res.ClosedRow = b.openRow
		pre := sim.Max(issue, b.prechargeOKAt)
		if m.trace != nil {
			m.trace.Command(telemetry.CmdPrecharge, bank, b.openRow, pre, pre+m.tim.TRP)
		}
		m.closeBank(b, ri, pre)
		m.stats.Precharges++
		m.stats.RefreshConflictOps++
		start = pre + m.d.rp
	}
	start = sim.Max(start, m.ranks[ri].activateOKAt(&m.d))
	m.ranks[ri].recordActivate(start)
	done := start + m.d.rfcPB

	if b.openRow == -1 {
		// Bank precharged: the refresh is the only activity; count the
		// rank active for its duration, bank commandable again almost
		// immediately (two clocks of command-bus turnaround).
		m.openBank(b, ri, row, start)
		m.closeBank(b, ri, done)
		b.readyAt = sim.Max(b.readyAt, start+2*m.tim.TCK)
		b.prechargeOKAt = sim.Max(b.prechargeOKAt, b.readyAt)
	}
	// With a surviving open page in another subarray the bank state is
	// untouched: demand row hits keep streaming during the refresh.
	b.srefUntil = done
	b.srefSub = row / m.subRows
	res.Done = done

	m.stats.RefreshOps++
	m.stats.RefreshPerBankOps++
	m.stats.RefreshOverlapOps++
	if m.trace != nil {
		m.trace.Command(telemetry.CmdRefreshPB, bank, row, start, done)
	}
	m.observe(done)
	return res
}

// RefreshAllBanks performs one all-bank refresh (REFab) on a rank: every
// bank's counter row is restored, and the whole rank is frozen for
// Timing.AllBankRefreshDuration. Open pages are closed first (each a
// conflict refresh). Results are returned in bank order.
func (m *Module) RefreshAllBanks(t sim.Time, channel, rank int) []RefreshResult {
	ri := m.rankIndex(channel, rank)
	if m.ranks[ri].inSelfRefresh {
		panic(fmt.Sprintf("dram: refresh to rank %s in self-refresh", m.rankName(ri)))
	}
	m.observe(t)
	results := make([]RefreshResult, m.geom.Banks)
	base := ri << m.bankShift
	banks := m.rankBanks(ri)

	// Close any open pages and find when the whole rank is quiet.
	start := t
	for bk := range banks {
		b := &banks[bk]
		res := &results[bk]
		res.Kind = RefreshAllBank
		res.Issue = m.issueAt(t, b.readyAt)
		if b.openRow != -1 {
			res.ClosedOpenRow = true
			res.ClosedRow = b.openRow
			pre := sim.Max(res.Issue, b.prechargeOKAt)
			if m.trace != nil {
				m.trace.Command(telemetry.CmdPrecharge, base+bk, b.openRow, pre, pre+m.tim.TRP)
			}
			m.closeBank(b, ri, pre)
			m.stats.Precharges++
			m.stats.RefreshConflictOps++
			start = sim.Max(start, pre+m.d.rp)
		}
		start = sim.Max(start, sim.Max(res.Issue, b.activateOKAt))
	}
	// start began at the incoming t; every other term is an edge.
	start = m.clk.Next(sim.Max(start, m.ranks[ri].activateOKAt(&m.d)))
	m.ranks[ri].recordActivate(start)
	done := start + m.d.rfcAB

	for bk := range banks {
		b := &banks[bk]
		row := m.counterRow(base + bk)
		results[bk].Row = RowID{Channel: channel, Rank: rank, Bank: bk, Row: row}
		results[bk].Done = done
		m.openBank(b, ri, row, start)
		m.closeBank(b, ri, done)
		b.readyAt = done
		b.activateOKAt = sim.Max(b.activateOKAt, start+m.d.rc)
		b.prechargeOKAt = done
		m.stats.RefreshOps++
		if m.trace != nil {
			m.trace.Command(telemetry.CmdRefreshAB, base+bk, row, start, done)
		}
	}
	m.stats.RefreshAllBankOps++
	m.observe(done)
	return results
}

// refreshBlocking is the blocking refresh of row in flat bank bank: the
// bank is fully occupied for dur, a whole number of clocks.
func (m *Module) refreshBlocking(t sim.Time, bank, row int, kind RefreshKind, dur sim.Duration) Refreshed {
	m.observe(t)
	ri := bank >> m.bankShift
	if m.ranks[ri].inSelfRefresh {
		panic(fmt.Sprintf("dram: refresh to rank %s in self-refresh", m.rankName(ri)))
	}
	b := &m.banks[bank]

	res := Refreshed{Row: row, ClosedRow: -1}
	issue := m.issueAt(t, b.readyAt)
	res.Issue = issue

	start := issue
	if b.openRow != -1 {
		// Close the open page first; its cells are restored by the
		// precharge write-back.
		res.ClosedRow = b.openRow
		pre := sim.Max(issue, b.prechargeOKAt)
		if m.trace != nil {
			m.trace.Command(telemetry.CmdPrecharge, bank, b.openRow, pre, pre+m.tim.TRP)
		}
		m.closeBank(b, ri, pre)
		m.stats.Precharges++
		m.stats.RefreshConflictOps++
		start = pre + m.d.rp
	}
	start = sim.Max(start, b.activateOKAt)
	start = sim.Max(start, m.ranks[ri].activateOKAt(&m.d))

	// The refresh itself: internal activate + restore + precharge (the
	// paper's 70 ns row refresh, or tRFCpb for a per-bank command). The
	// bank ends precharged. Count the rank as active for the duration.
	m.openBank(b, ri, row, start)
	m.ranks[ri].recordActivate(start)
	done := start + dur
	m.closeBank(b, ri, done)
	b.readyAt = done
	b.activateOKAt = sim.Max(b.activateOKAt, start+m.d.rc)
	b.prechargeOKAt = done
	res.Done = done

	m.stats.RefreshOps++
	switch kind {
	case RefreshCBR:
		m.stats.RefreshCBROps++
		if m.trace != nil {
			m.trace.Command(telemetry.CmdRefreshCBR, bank, row, start, done)
		}
	case RefreshRASOnly:
		m.stats.RefreshRASOnlyOps++
		if m.trace != nil {
			m.trace.Command(telemetry.CmdRefreshRASOnly, bank, row, start, done)
		}
	case RefreshPerBank:
		m.stats.RefreshPerBankOps++
		if m.trace != nil {
			m.trace.Command(telemetry.CmdRefreshPB, bank, row, start, done)
		}
	}
	m.observe(done)
	return res
}

// OpenRow reports the row currently open in a bank, or -1 if precharged.
func (m *Module) OpenRow(bank BankID) int {
	return m.OpenRowFlat(bank.Flat(&m.geom))
}

// OpenRowFlat is OpenRow addressed by flat bank index.
func (m *Module) OpenRowFlat(flat int) int {
	return m.banks[flat].openRow
}

// PrechargeBank closes the bank's open page at time t (no earlier than the
// bank's tRAS/write-recovery constraints allow) and returns the restored
// row. The second return is false if the bank was already precharged.
// Memory controllers use this to close idle pages so ranks can enter
// precharge power-down.
func (m *Module) PrechargeBank(t sim.Time, bank BankID) (RowID, bool) {
	row, closed := m.PrechargeFlat(t, m.validBank("precharge", bank))
	if !closed {
		return RowID{}, false
	}
	return RowID{Channel: bank.Channel, Rank: bank.Rank, Bank: bank.Bank, Row: row}, true
}

// PrechargeFlat is PrechargeBank addressed by flat bank index; it returns
// the restored row within the bank.
func (m *Module) PrechargeFlat(t sim.Time, bank int) (int, bool) {
	if uint(bank) >= uint(len(m.banks)) {
		badIndex("precharge", bank, 0)
	}
	b := &m.banks[bank]
	if b.openRow == -1 {
		return -1, false
	}
	pre := m.clk.Next(sim.Max(t, b.prechargeOKAt))
	row := b.openRow
	m.closeBank(b, bank>>m.bankShift, pre)
	m.stats.Precharges++
	done := pre + m.d.rp
	b.readyAt = sim.Max(b.readyAt, done)
	b.prechargeOKAt = done
	m.observe(done)
	return row, true
}

// BankReadyAt reports the earliest time the bank accepts another command.
func (m *Module) BankReadyAt(bank BankID) sim.Time {
	return m.banks[bank.Flat(&m.geom)].readyAt
}

// rankBanks returns flat rank ri's banks, which BankID.Flat lays out
// contiguously.
func (m *Module) rankBanks(ri int) []bankState {
	return m.banks[ri<<m.bankShift : (ri+1)<<m.bankShift]
}

// EnterSelfRefresh puts a rank into self-refresh at time t: the module
// maintains retention from its internal oscillator and draws IDD6. All
// banks of the rank must be precharged, and the rank accepts no commands
// until ExitSelfRefresh. Entering twice is a controller bug and panics.
//
// Self-refresh entry cannot precede the rank's in-flight work: the SRE
// command queues behind the rank's last scheduled operation, so a t
// before that horizon (a controller deciding on a wall-clock idle
// deadline while queued refreshes are still completing) is clamped
// forward — otherwise the overlap would be double-counted as both
// active and self-refresh residency. The effective entry time is
// returned.
func (m *Module) EnterSelfRefresh(t sim.Time, channel, rank int) sim.Time {
	ri := m.rankIndex(channel, rank)
	r := &m.ranks[ri]
	if r.inSelfRefresh {
		panic(fmt.Sprintf("dram: rank ch%d/rk%d already in self-refresh", channel, rank))
	}
	if r.openBanks != 0 {
		panic(fmt.Sprintf("dram: self-refresh entry with %d open banks on ch%d/rk%d",
			r.openBanks, channel, rank))
	}
	t = m.rankReadyAt(ri, t)
	if r.lastUpdate > t {
		t = r.lastUpdate
	}
	m.observe(t)
	m.updateRank(ri, t)
	if r.pdKind != PDNone {
		// Descending from an explicit power-down state straight into
		// self-refresh: fold the power-down residency up to the entry
		// point (the SRE transition itself is not charged a wake).
		m.foldPowerDown(r, t)
		r.pdKind = PDNone
	}
	r.inSelfRefresh = true
	r.srSince = t
	m.stats.SelfRefreshEntries++
	return t
}

// ExitSelfRefresh leaves self-refresh at time t and returns when the rank
// accepts its next command (t + TXSNR). Exiting a rank that is not in
// self-refresh panics.
func (m *Module) ExitSelfRefresh(t sim.Time, channel, rank int) sim.Time {
	ri := m.rankIndex(channel, rank)
	r := &m.ranks[ri]
	if !r.inSelfRefresh {
		panic(fmt.Sprintf("dram: rank ch%d/rk%d not in self-refresh", channel, rank))
	}
	if t < r.srSince {
		t = r.srSince
	}
	m.observe(t)
	m.updateRank(ri, t)
	r.selfRefreshTime += t - r.srSince
	r.inSelfRefresh = false
	exitLat := m.tim.TXSNR
	if r.srSlow {
		// Slow-wake residency [srSlowSince, t] drew IDD6L; the exit pays
		// the DLL relock instead of the plain TXSNR.
		r.srSlowTime += t - r.srSlowSince
		r.srSlow = false
		exitLat = m.tim.SelfRefreshSlowExit()
	}
	ready := m.clk.Next(t + exitLat)
	// Every bank of the rank honours the exit latency.
	m.holdRank(ri, ready)
	m.observe(ready)
	return ready
}

// rankReadyAt returns the later of t and the time every bank of flat rank
// ri has finished its scheduled work.
func (m *Module) rankReadyAt(ri int, t sim.Time) sim.Time {
	banks := m.rankBanks(ri)
	for i := range banks {
		if ready := banks[i].readyAt; ready > t {
			t = ready
		}
	}
	return t
}

// holdRank makes every bank of flat rank ri wait for ready, the end of a
// low-power exit.
func (m *Module) holdRank(ri int, ready sim.Time) {
	banks := m.rankBanks(ri)
	for i := range banks {
		bk := &banks[i]
		bk.readyAt = sim.Max(bk.readyAt, ready)
		bk.activateOKAt = sim.Max(bk.activateOKAt, ready)
		bk.prechargeOKAt = sim.Max(bk.prechargeOKAt, ready)
	}
}

// Finalize flushes background-state accounting up to time end and folds the
// per-rank residencies into the stats snapshot. Call once at the end of a
// simulation (calling again extends the accounting window).
func (m *Module) Finalize(end sim.Time) {
	m.observe(end)
	m.stats.ActiveTime = 0
	m.stats.IdleTime = 0
	m.stats.SelfRefreshTime = 0
	m.stats.ActPdnTime = 0
	m.stats.PrePdnFastTime = 0
	m.stats.PrePdnSlowTime = 0
	m.stats.SelfRefreshSlowTime = 0
	for i := range m.ranks {
		m.updateRank(i, m.now)
		if m.ranks[i].inSelfRefresh {
			// Extend the open self-refresh span; advance srSince so a
			// repeated Finalize does not double-count.
			m.ranks[i].selfRefreshTime += m.now - m.ranks[i].srSince
			m.ranks[i].srSince = m.now
			if m.ranks[i].srSlow {
				m.ranks[i].srSlowTime += m.now - m.ranks[i].srSlowSince
				m.ranks[i].srSlowSince = m.now
			}
		}
		if m.ranks[i].pdKind != PDNone {
			// Extend the open power-down span; foldPowerDown advances
			// pdSince, so a repeated Finalize extends, never
			// double-counts.
			m.foldPowerDown(&m.ranks[i], m.now)
		}
		m.stats.ActiveTime += m.ranks[i].activeTime
		m.stats.IdleTime += m.ranks[i].idleTime
		m.stats.SelfRefreshTime += m.ranks[i].selfRefreshTime
		m.stats.ActPdnTime += m.ranks[i].actPdnTime
		m.stats.PrePdnFastTime += m.ranks[i].preFastTime
		m.stats.PrePdnSlowTime += m.ranks[i].preSlowTime
		m.stats.SelfRefreshSlowTime += m.ranks[i].srSlowTime
	}
}

// Horizon reports the latest time the module has observed — the end of
// the residency accounting window Finalize folds. It can exceed the
// nominal simulation end when an in-flight operation ran past it, and is
// the exact wall the residency-conservation invariant checks against:
// after Finalize, ActiveTime + IdleTime == ranks × Horizon.
func (m *Module) Horizon() sim.Time { return m.now }
