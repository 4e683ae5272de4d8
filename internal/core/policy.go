// Package core implements the paper's primary contribution: the Smart
// Refresh policy (per-row time-out counters with staggered countdown and a
// pending refresh request queue, sections 4 and 5), together with the
// baseline refresh policies it is evaluated against (distributed CBR,
// burst, an ideal no-refresh bound and an oracle), a retention-deadline
// checker used to validate the section 4.3 correctness argument, and the
// section 4.4/4.7 optimality and area-overhead formulas.
package core

import (
	"smartrefresh/internal/dram"
	"smartrefresh/internal/sim"
	"smartrefresh/internal/stats"
)

// Command is one refresh operation requested by a policy.
type Command struct {
	// Bank is the flat bank index (see dram.RowID): its rank is
	// Bank >> log2 Banks and that rank's channel rank >> log2 Ranks.
	Bank int
	// Row is the explicit row for RAS-only refresh. It is -1 for CBR and
	// per-bank refresh, where the module's internal counter supplies the
	// row.
	Row  int
	Kind dram.RefreshKind
	// Overlap asks the controller to issue a per-bank refresh in the
	// overlapped (SARP-style) form, which parallelizes with demand to the
	// bank's other subarrays. Only meaningful for RefreshPerBank.
	Overlap bool
}

// Policy is a refresh scheduling policy. The memory controller drives it:
// it reports row restores (activates and page-close precharges) from
// demand traffic, asks when the policy next needs to run, and collects the
// refresh commands that became due.
//
// Policies are not safe for concurrent use.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string

	// Reset re-initialises internal state as of time start.
	Reset(start sim.Time)

	// OnRowRestore tells the policy that a row's cells were restored by
	// normal traffic at time t (an activate, or the write-back when an
	// open page is closed). Section 4.1: such a row needs no refresh for
	// another full interval.
	OnRowRestore(t sim.Time, row dram.RowID)

	// NextTick returns the next time the policy has internal work, or
	// ok=false if it never fires again (e.g. the no-refresh policy).
	NextTick() (t sim.Time, ok bool)

	// Advance runs internal machinery for ticks at or before t, appending
	// refresh commands that became due to dst. Commands are returned in
	// issue order. A policy may return early while it still has due work
	// (e.g. Burst emits at most a bounded chunk per call) provided each
	// call makes progress and NextTick keeps reporting a time <= t until
	// the work is drained; callers must therefore loop until
	// NextTick() > t (or ok=false) rather than assume one call per tick.
	Advance(t sim.Time, dst []Command) []Command

	// Stats returns the accumulated policy statistics.
	Stats() PolicyStats
}

// TickCommands is a command capacity that holds one Advance of every
// policy at one tick: Burst's chunk is the largest. Only Oracle can emit
// more, when that many row deadlines coincide.
const TickCommands = burstChunk

// PolicyStats aggregates policy-side activity for reporting and for the
// counter-array energy model.
type PolicyStats struct {
	// RefreshesRequested counts refresh commands emitted.
	RefreshesRequested uint64

	// CounterReads and CounterWrites count SRAM counter-array accesses
	// (section 6: reads when indexing/checking, writes when decrementing
	// or resetting). Zero for policies without counters.
	CounterReads  uint64
	CounterWrites uint64

	// AccessResets counts counter resets caused by demand traffic.
	AccessResets uint64

	// SkippedIndexings counts counter indexings that found a non-zero
	// counter and therefore did not refresh.
	SkippedIndexings uint64

	// MaxPendingPerTick is the largest number of refresh requests a single
	// counter-indexing tick generated (bounded by the segment count; this
	// is the section 5 queue-overflow argument).
	MaxPendingPerTick int `stat:"max"`

	// Disable/enable telemetry for the section 4.6 self-configuration.
	DisableSwitches uint64
	EnableSwitches  uint64
	TimeDisabled    sim.Duration

	// Per-bank refresh arbitration telemetry (DARP/SARP family; zero for
	// the other policies). RefreshesPostponed counts slot decisions
	// deferred under demand pressure, RefreshesPulledIn counts refreshes
	// issued ahead of schedule into idle banks, and RefreshesForced counts
	// refreshes issued at the postponement cap regardless of pressure.
	RefreshesPostponed uint64
	RefreshesPulledIn  uint64
	RefreshesForced    uint64

	// MaxRefreshDeficit is the high-water per-bank refresh deficit (owed,
	// unissued refreshes) after each slot decision; the JEDEC-style
	// postponement window bounds it by PerBankConfig.MaxPostpone.
	MaxRefreshDeficit int `stat:"max"`

	// Bloom-filter bin telemetry (RAIDR; zero for the other policies).
	// BloomLookups counts wheel-slot bin resolutions through the filter
	// chain; BloomFalsePositives counts resolutions where a filter
	// misreported the row into a weaker bin than its profiled class —
	// the safe direction (extra refreshes, never missed ones).
	BloomLookups        uint64
	BloomFalsePositives uint64
}

var policyStatsRule = stats.RuleFor[PolicyStats]()

// Sub returns s over the window after earlier (stats.Rule): counters
// difference and the high-water marks keep s's full-run value. The
// experiment harness uses it to exclude warmup from measured windows.
func (s PolicyStats) Sub(earlier PolicyStats) PolicyStats { return policyStatsRule.Window(s, earlier) }

// Add returns s and o folded (stats.Rule) for aggregating per-vault
// policies into stack-level totals: counters sum and high-water marks
// take the maximum, since each vault's policy ticks independently.
func (s PolicyStats) Add(o PolicyStats) PolicyStats { return policyStatsRule.Fold(s, o) }

// BankAware is implemented by policies that schedule refreshes around
// per-bank demand pressure (the DARP/SARP family). The memory controller
// type-asserts for it and, when present, reports every demand access at
// issue, so the policy can postpone refreshes to contended banks and pull
// them into idle ones.
type BankAware interface {
	Policy

	// OnDemandObserved tells the policy that a demand access to bank was
	// observed at time t. Writes are reported with write=true; the DARP
	// write-refresh parallelization treats them as non-blocking (a bank
	// absorbing writes can refresh without hurting read latency).
	// Observations may repeat; only the latest time per bank matters.
	OnDemandObserved(t sim.Time, bank int, write bool)
}
