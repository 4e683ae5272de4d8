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
	// RefreshPerBankOps holds. RefreshAllBankOps is always zero: the
	// module issues no all-bank refresh (REFab), and the field is kept,
	// in place, only so the fingerprinted Results JSON keeps its shape.
	RefreshOps         uint64
	RefreshCBROps      uint64
	RefreshRASOnlyOps  uint64
	RefreshPerBankOps  uint64 // REFpb row refreshes
	RefreshOverlapOps  uint64 // subset of RefreshPerBankOps issued overlapped (SARP)
	RefreshAllBankOps  uint64 // always zero (see above)
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

	// state is the rank's power state, entered at since (Enter, Exit);
	// resid holds each state's residency up to since, folded by Enter,
	// Exit and Finalize.
	state PowerState
	since sim.Time
	resid [numPowerStates]sim.Duration
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
	// exit is the wake latency by power state (Exit).
	exit [numPowerStates]sim.Duration

	// banks, ranks and channels are indexed flat: bank
	// (channel*Ranks+rank)*Banks+bank, rank channel*Ranks+rank. A flat bank's rank is bank >> bankShift and a
	// flat rank's channel is rank >> rankShift (log2 Banks and log2
	// Ranks; Validate makes both dimensions powers of two).
	banks     []bankState
	ranks     []rankState
	channels  []channelState
	bankShift uint
	rankShift uint

	// cbrCounters holds the module-internal CBR row counter per bank. The
	// counter initialises to zero at power-up and wraps at Rows; it cannot
	// be reset (section 3). Per-bank refresh (REFpb) walks the same
	// counters — JEDEC specifies a single internal refresh pointer per
	// bank regardless of command style.
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
	// A vault's module and tables own their cache lines (DESIGN §16).
	m := sim.OwnLine[Module]()
	*m = Module{
		geom:  g,
		tim:   t,
		clk:   sim.NewClock(t.TCK),
		burst: t.BurstDuration(g.BurstLength),
		d:     newDelays(&t, &g),
		exit: [numPowerStates]sim.Duration{
			PSActPdn:          t.PowerDownExitFast(),
			PSPrePdnFast:      t.PowerDownExitFast(),
			PSPrePdnSlow:      t.PowerDownExitSlow(),
			PSSelfRefresh:     t.TXSNR,
			PSSelfRefreshSlow: t.SelfRefreshSlowExit(),
		},
		banks:       sim.OwnLines[bankState](g.TotalBanks()),
		ranks:       sim.OwnLines[rankState](g.Channels * g.Ranks),
		channels:    sim.OwnLines[channelState](g.Channels),
		cbrCounters: sim.OwnLines[int](g.TotalBanks()),
		subRows:     subarrayRows(g.Rows),
		bankShift:   uint(bits.TrailingZeros(uint(g.Banks))),
		rankShift:   uint(bits.TrailingZeros(uint(g.Ranks))),
	}
	m.Reset()
	return m
}

// Reset returns the module to power-up, keeping its tables: every bank
// precharged, every rank awake with no activate history, the internal
// refresh counters at row zero, the statistics zero and tracing off —
// the module NewModule returns.
func (m *Module) Reset() {
	for i := range m.banks {
		m.banks[i] = bankState{openRow: -1}
	}
	// Seed the activate-rate trackers far in the past so the first
	// activates are not rate-limited by the zero value.
	const farPast = sim.Time(-1) << 40
	for i := range m.ranks {
		m.ranks[i] = rankState{lastActivate: farPast, actWindow: [4]sim.Time{farPast, farPast, farPast, farPast}}
	}
	clear(m.channels)
	clear(m.cbrCounters)
	m.stats = ModuleStats{}
	m.now = 0
	m.trace = nil
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
		id := RowInBank(&m.geom, flat, 0)
		s.NameThread(flat, fmt.Sprintf("ch%d/rk%d/bk%d", id.Channel, id.Rank, id.Bank))
	}
}

// Geometry returns the module geometry.
func (m *Module) Geometry() Geometry { return m.geom }

// Timing returns the module timing.
func (m *Module) Timing() Timing { return m.tim }

// Stats returns a snapshot of the accumulated statistics. Call Finalize
// first to flush background-state residency up to the end of simulation.
func (m *Module) Stats() ModuleStats { return m.stats }

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

// Access performs one demand read or write to row of flat bank bank
// under the open-page policy, filling the caller's res with the
// command/data timing and which row, if any, was closed. Every field is
// written, so res need not be zeroed. The request is presented at time t;
// if the bank is busy the access stalls until it is ready. The column
// does not affect timing, so it is not an argument. An out-of-range bank
// or row, or a rank in self-refresh, panics.
//
// Filling the caller's result, rather than returning one by value, spares
// the hot path a copy of the struct and the store-forwarding stall of
// reading back fields just written (DESIGN §15).
func (m *Module) Access(res *AccessResult, t sim.Time, bank, row int, write bool) {
	if uint(bank) >= uint(len(m.banks)) || uint(row) >= uint(m.geom.Rows) {
		badIndex("access", bank, row)
	}
	m.observe(t)
	ri := bank >> m.bankShift
	r := &m.ranks[ri]
	if r.state.SelfRefresh() {
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
	*res = AccessResult{Issue: issue, RowHit: b.openRow == row}

	cas := issue // when the column command can go
	if res.RowHit {
		// Row hit: column command straight away.
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

// badIndex is the panic of the commands' bounds checks, out of line so
// that they cost a compare and a branch: a flat bank outside the module,
// or a row outside the bank, is a controller bug.
func badIndex(op string, bank, row int) {
	panic(fmt.Sprintf("dram: %s of invalid flat bank %d row %d", op, bank, row))
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

// Refreshed is the outcome of one refresh command: the
// bank was occupied from Issue to Done restoring Row, after first
// closing the open page ClosedRow (-1 when the bank was precharged or an
// overlapped refresh left the page open). Both are rows of the refreshed
// bank.
type Refreshed struct {
	Issue, Done    sim.Time
	Row, ClosedRow int
}

// RefreshRow performs a RAS-only refresh of row in flat bank bank: the
// controller supplies the row address. If the bank has an open page it is
// closed first (counted as a conflict refresh; this is the higher-energy
// case the paper describes). An out-of-range bank or row panics.
func (m *Module) RefreshRow(t sim.Time, bank, row int) Refreshed {
	if uint(bank) >= uint(len(m.banks)) || uint(row) >= uint(m.geom.Rows) {
		badIndex("refresh", bank, row)
	}
	return m.refreshBlocking(t, bank, row, RefreshRASOnly, m.d.rfc)
}

// RefreshCBR performs a CBR refresh on flat bank bank: the module's
// internal counter supplies the row and then increments, wrapping at the
// row count (section 3: "There is no way to reset the counter once set").
func (m *Module) RefreshCBR(t sim.Time, bank int) Refreshed {
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

// RefreshBank performs a per-bank refresh (REFpb) on flat bank bank: the
// bank's internal counter supplies the row, only this bank is occupied
// (for Timing.PerBankRefreshDuration), and the rank's other banks keep
// serving demand. An open page is closed first, as with the other
// refresh styles.
//
// With overlap set the refresh parallelizes with demand to the same bank,
// approximating SARP (Chang et al.): it restores its counter row's
// subarray for the full PerBankRefreshDuration and charges full refresh
// energy, but the bank only blocks demand to the refreshing subarray —
// accesses to the other subarrays proceed, and an open page in another
// subarray stays open. The rank-level activate-rate limits (tRRD, tFAW)
// still apply, since the hidden activate draws real current.
func (m *Module) RefreshBank(t sim.Time, bank int, overlap bool) Refreshed {
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
// bank bank (see RefreshBank).
func (m *Module) refreshOverlapped(t sim.Time, bank, row int) Refreshed {
	m.observe(t)
	ri := bank >> m.bankShift
	if m.ranks[ri].state.SelfRefresh() {
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

// refreshBlocking is the blocking refresh of row in flat bank bank: the
// bank is fully occupied for dur, a whole number of clocks.
func (m *Module) refreshBlocking(t sim.Time, bank, row int, kind RefreshKind, dur sim.Duration) Refreshed {
	m.observe(t)
	ri := bank >> m.bankShift
	if m.ranks[ri].state.SelfRefresh() {
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

// OpenRow reports the row currently open in flat bank bank, or -1 if
// precharged.
func (m *Module) OpenRow(bank int) int {
	return m.banks[bank].openRow
}

// OpenBanks reports how many banks of flat rank ri (channel*Ranks+rank)
// hold an open row.
func (m *Module) OpenBanks(ri int) int { return m.ranks[ri].openBanks }

// Precharge closes flat bank bank's open page at time t (no earlier than
// the bank's tRAS/write-recovery constraints allow) and returns the
// restored row within the bank. The second return is false if the bank
// was already precharged. Memory controllers use this to close idle
// pages so ranks can enter precharge power-down. An out-of-range bank
// panics.
func (m *Module) Precharge(t sim.Time, bank int) (int, bool) {
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

// rankBanks returns flat rank ri's banks, which the flat bank index lays
// out contiguously.
func (m *Module) rankBanks(ri int) []bankState {
	return m.banks[ri<<m.bankShift : (ri+1)<<m.bankShift]
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
	var active, idle sim.Duration
	var resid [numPowerStates]sim.Duration
	for i := range m.ranks {
		r := &m.ranks[i]
		m.updateRank(i, m.now)
		r.fold(m.now)
		active += r.activeTime
		idle += r.idleTime
		for s, d := range r.resid {
			resid[s] += d
		}
	}
	m.stats.ActiveTime, m.stats.IdleTime = active, idle
	m.stats.ActPdnTime = resid[PSActPdn]
	m.stats.PrePdnFastTime = resid[PSPrePdnFast]
	m.stats.PrePdnSlowTime = resid[PSPrePdnSlow]
	m.stats.SelfRefreshTime = resid[PSSelfRefresh] + resid[PSSelfRefreshSlow]
	m.stats.SelfRefreshSlowTime = resid[PSSelfRefreshSlow]
}
