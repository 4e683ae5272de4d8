package dram

import (
	"fmt"

	"smartrefresh/internal/sim"
)

// Timing holds the DDR2 command timing constraints used by the module
// model. All values are durations; commands are quantised to the command
// clock (TCK).
type Timing struct {
	TCK  sim.Duration // command clock period (DDR2-667: 3 ns, 333 MHz)
	TRCD sim.Duration // activate to column command
	TRP  sim.Duration // precharge to activate
	TCL  sim.Duration // column command to first data
	TRAS sim.Duration // activate to precharge (minimum row open time)
	TRC  sim.Duration // activate to activate, same bank (>= TRAS+TRP)
	TWR  sim.Duration // write recovery before precharge
	TRTP sim.Duration // read to precharge
	TCCD sim.Duration // column command to column command, same rank
	TRRD sim.Duration // activate to activate, different bank same rank
	TFAW sim.Duration // rolling window for four activates, same rank

	// TRefreshRow is the full cost of refreshing one row with a dedicated
	// refresh operation (RAS-only or CBR). The paper uses 70 ns ("a typical
	// time taken to refresh a row is 70ns").
	TRefreshRow sim.Duration

	// TRFCpb is the bank occupancy of one per-bank refresh command
	// (REFpb). In this row-granular model a REFpb restores exactly one
	// counter row, so the field defaults to TRefreshRow when zero; it may
	// be set independently to study devices (LPDDR4, HBM) where the
	// per-bank command is cheaper than its all-bank counterpart but dearer
	// than a bare row cycle. Optional: zero means "derive".
	TRFCpb sim.Duration

	// TXSNR is the self-refresh exit latency before the next command
	// (DDR2: tRFC + 10 ns).
	TXSNR sim.Duration

	// TXP is the fast power-down exit latency (ACT-PDN and fast-exit
	// PRE-PDN: clock enable high to first command). Optional: zero
	// derives two clocks, the DDR2 tXARD/tXP figure.
	TXP sim.Duration

	// TXPDLL is the slow power-down exit latency (PRE-PDN entered with
	// the DLL frozen). Optional: zero derives eight clocks.
	TXPDLL sim.Duration

	// TXSRD is the slow-wake self-refresh exit latency (self-refresh
	// with the DLL off; exit pays the DLL relock, tDLLK-class). Optional:
	// zero derives 200 clocks. Must not undercut TXSNR when set.
	TXSRD sim.Duration

	// RefreshInterval is the retention deadline (tREFW): every row must be
	// restored at least once per interval. 64 ms for conventional DRAM,
	// 32 ms for the 3D DRAM above 85 degC.
	RefreshInterval sim.Duration
}

// Validate reports an error for inconsistent timing.
func (t Timing) Validate() error {
	type f struct {
		name string
		v    sim.Duration
	}
	for _, x := range []f{
		{"TCK", t.TCK}, {"TRCD", t.TRCD}, {"TRP", t.TRP}, {"TCL", t.TCL},
		{"TRAS", t.TRAS}, {"TRC", t.TRC}, {"TWR", t.TWR}, {"TRTP", t.TRTP},
		{"TCCD", t.TCCD}, {"TRRD", t.TRRD}, {"TFAW", t.TFAW},
		{"TRefreshRow", t.TRefreshRow}, {"TXSNR", t.TXSNR},
		{"RefreshInterval", t.RefreshInterval},
	} {
		if x.v <= 0 {
			return fmt.Errorf("dram: timing field %s = %d, must be positive", x.name, int64(x.v))
		}
	}
	if t.TRC < t.TRAS+t.TRP {
		return fmt.Errorf("dram: TRC (%v) < TRAS+TRP (%v)", t.TRC, t.TRAS+t.TRP)
	}
	if t.TFAW < t.TRRD {
		return fmt.Errorf("dram: TFAW (%v) < TRRD (%v)", t.TFAW, t.TRRD)
	}
	if t.RefreshInterval < 100*t.TRC {
		return fmt.Errorf("dram: refresh interval %v implausibly short", t.RefreshInterval)
	}
	// The per-bank refresh occupancy is optional (zero = derived) but
	// must cover one row refresh when set.
	if t.TRFCpb < 0 {
		return fmt.Errorf("dram: negative refresh occupancy TRFCpb %v", t.TRFCpb)
	}
	if t.TRFCpb > 0 && t.TRFCpb < t.TRefreshRow {
		return fmt.Errorf("dram: TRFCpb (%v) < TRefreshRow (%v)", t.TRFCpb, t.TRefreshRow)
	}
	// The power-down exit latencies are optional (zero = derived from
	// TCK) but must be self-consistent when set: slow exits cannot be
	// faster than fast ones, and the slow-wake self-refresh exit cannot
	// undercut the plain one.
	if t.TXP < 0 || t.TXPDLL < 0 || t.TXSRD < 0 {
		return fmt.Errorf("dram: negative power-down exit latency (TXP %v, TXPDLL %v, TXSRD %v)",
			t.TXP, t.TXPDLL, t.TXSRD)
	}
	if t.TXP > 0 && t.TXPDLL > 0 && t.TXPDLL < t.TXP {
		return fmt.Errorf("dram: TXPDLL (%v) < TXP (%v)", t.TXPDLL, t.TXP)
	}
	if t.TXSRD > 0 && t.TXSRD < t.TXSNR {
		return fmt.Errorf("dram: TXSRD (%v) < TXSNR (%v)", t.TXSRD, t.TXSNR)
	}
	return nil
}

// PowerDownExitFast returns the fast power-down exit latency: TXP when
// set, else two command clocks (the DDR2 tXARD/tXP figure).
func (t Timing) PowerDownExitFast() sim.Duration {
	if t.TXP > 0 {
		return t.TXP
	}
	return 2 * t.TCK
}

// PowerDownExitSlow returns the slow (DLL-frozen) power-down exit
// latency: TXPDLL when set, else eight command clocks.
func (t Timing) PowerDownExitSlow() sim.Duration {
	if t.TXPDLL > 0 {
		return t.TXPDLL
	}
	return 8 * t.TCK
}

// SelfRefreshSlowExit returns the slow-wake self-refresh exit latency:
// TXSRD when set, else 200 command clocks (tDLLK-class), never below the
// plain TXSNR exit.
func (t Timing) SelfRefreshSlowExit() sim.Duration {
	d := t.TXSRD
	if d == 0 {
		d = 200 * t.TCK
	}
	if d < t.TXSNR {
		return t.TXSNR
	}
	return d
}

// PerBankRefreshDuration returns the bank occupancy of one REFpb command:
// TRFCpb when set, else the per-row refresh cost (the derived default —
// one REFpb restores one counter row in this model).
func (t Timing) PerBankRefreshDuration() sim.Duration {
	if t.TRFCpb > 0 {
		return t.TRFCpb
	}
	return t.TRefreshRow
}

// BurstDuration returns the data-bus occupancy of one burst of length bl
// beats at double data rate (two beats per clock).
func (t Timing) BurstDuration(bl int) sim.Duration {
	return sim.Duration(bl) * t.TCK / 2
}

// DDR2_667 returns the DDR2-667 timing set used for every configuration in
// the paper (Tables 1 and 2 both specify "DDR2 ... 667 MHz"). Values follow
// the Micron DDR2-667 (-3E) speed grade; the per-row refresh cost is the
// paper's 70 ns.
func DDR2_667(refreshInterval sim.Duration) Timing {
	return Timing{
		TCK:             3000 * sim.Picosecond, // 333 MHz command clock, 667 MT/s
		TRCD:            15 * sim.Nanosecond,
		TRP:             15 * sim.Nanosecond,
		TCL:             15 * sim.Nanosecond,
		TRAS:            45 * sim.Nanosecond,
		TRC:             60 * sim.Nanosecond,
		TWR:             15 * sim.Nanosecond,
		TRTP:            7500 * sim.Picosecond,
		TCCD:            6 * sim.Nanosecond,
		TRRD:            7500 * sim.Picosecond,
		TFAW:            37500 * sim.Picosecond,
		TRefreshRow:     70 * sim.Nanosecond,
		TRFCpb:          70 * sim.Nanosecond, // one counter row per REFpb
		TXSNR:           80 * sim.Nanosecond,
		TXP:             6 * sim.Nanosecond,   // 2 tCK fast power-down exit
		TXPDLL:          24 * sim.Nanosecond,  // 8 tCK slow power-down exit
		TXSRD:           600 * sim.Nanosecond, // 200 tCK DLL relock
		RefreshInterval: refreshInterval,
	}
}
