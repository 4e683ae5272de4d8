package core

import (
	"fmt"

	"smartrefresh/internal/dram"
	"smartrefresh/internal/sim"
)

// This file implements the refresh-access-parallelism policy family built
// on the per-bank refresh command (dram.RefreshPerBank): a DARP-style
// dynamic out-of-order per-bank scheduler and a SARP-style overlap
// approximation, after Chang et al., "Improving DRAM Performance by
// Parallelizing Refreshes with Accesses" (HPCA 2014).
//
// Both policies walk each bank's internal refresh counter at the nominal
// per-bank cadence of Rows slots per refresh interval, staggered across
// banks so slots never collide. DARP additionally arbitrates each slot
// against demand pressure reported by the controller: a slot whose bank
// has seen recent read traffic is postponed (up to the JEDEC-style
// postponement window of MaxPostpone owed refreshes), an idle bank's
// future refreshes are pulled in ahead of schedule (up to MaxPullIn), and
// at the cap a refresh is forced regardless of pressure, which bounds
// staleness: a row's refresh is never later than its nominal slot plus
// MaxPostpone slot periods.

// PerBankConfig parameterises the refresh-access-parallelism policies.
// The zero value of any field selects its default.
type PerBankConfig struct {
	// MaxPostpone is the largest per-bank refresh deficit (owed, unissued
	// refreshes) DARP may accumulate before slots are forced. JEDEC
	// per-bank refresh permits 8 postponements.
	MaxPostpone int
	// MaxPullIn is the largest per-bank refresh credit (refreshes issued
	// ahead of schedule) DARP may bank while a bank idles. JEDEC permits
	// 8 pulled-in refreshes.
	MaxPullIn int
	// IdleWindow is the demand-quiet window before a slot: a slot with
	// read demand within this distance before its nominal time is
	// considered busy and postponed. It should match the traffic's
	// row-burst clustering scale — much shorter than a slot period; zero
	// selects a quarter of the per-bank slot period at construction.
	IdleWindow sim.Duration
}

// DefaultPerBankConfig returns the JEDEC-flavoured defaults (8×/9×
// window; the quiet window defaults per-geometry at construction).
func DefaultPerBankConfig() PerBankConfig {
	return PerBankConfig{MaxPostpone: 8, MaxPullIn: 8}
}

// withDefaults fills zero fields (IdleWindow resolves against the slot
// period in newPerBank, where the geometry is known).
func (c PerBankConfig) withDefaults() PerBankConfig {
	d := DefaultPerBankConfig()
	if c.MaxPostpone <= 0 {
		c.MaxPostpone = d.MaxPostpone
	}
	if c.MaxPullIn <= 0 {
		c.MaxPullIn = d.MaxPullIn
	}
	return c
}

// pbBank is one bank's scheduling state.
type pbBank struct {
	// clock walks the bank's slots: Rows per interval, offset from the
	// policy start by the bank's stagger.
	clock slotClock
	// credit is the bank's refresh deficit: positive = owed (postponed)
	// refreshes, negative = refreshes issued ahead of schedule. Bounded
	// by [-MaxPullIn, MaxPostpone].
	credit int
	// lastDemand is the latest observed read-demand time. The controller
	// reports a request after the slots due before it and before those
	// due at its time, so it never postdates the slot being decided.
	lastDemand sim.Time
}

// PerBank is the shared machinery of the DARP/SARP policy pair; construct
// with NewDARP or NewSARP.
type PerBank struct {
	geom     dram.Geometry
	interval sim.Duration
	cfg      PerBankConfig

	// dodge selects DARP's demand arbitration; overlap marks emitted
	// commands for the SARP-style overlapped issue form.
	dodge   bool
	overlap bool
	name    string

	banks []pbBank
	// slots holds each bank's clock.at, so its minimum is the next slot
	// due (lowest flat index on ties, for determinism).
	slots sim.MinIndex

	idleWindow sim.Duration // resolved PerBankConfig.IdleWindow
	stats      PolicyStats
}

// NewDARP constructs the DARP-style policy: per-bank refresh at nominal
// cadence, postponed at read-busy banks, pulled into idle ones, forced at
// the window cap. Write-only pressure does not postpone (write-refresh
// parallelization).
func NewDARP(g dram.Geometry, interval sim.Duration, cfg PerBankConfig) *PerBank {
	return newPerBank(g, interval, cfg, "darp", true, false)
}

// NewSARP constructs the SARP-style policy: per-bank refresh at nominal
// cadence, every command issued in the overlapped form so demand to the
// bank's other subarrays proceeds underneath the refresh.
func NewSARP(g dram.Geometry, interval sim.Duration, cfg PerBankConfig) *PerBank {
	return newPerBank(g, interval, cfg, "sarp", false, true)
}

func newPerBank(g dram.Geometry, interval sim.Duration, cfg PerBankConfig, name string, dodge, overlap bool) *PerBank {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	if interval <= 0 {
		panic(fmt.Sprintf("core: non-positive refresh interval %v", interval))
	}
	p := sim.OwnLine[PerBank]()
	*p = PerBank{
		geom:     g,
		interval: interval,
		cfg:      cfg.withDefaults(),
		dodge:    dodge,
		overlap:  overlap,
		name:     name,
		banks:    sim.OwnLines[pbBank](g.TotalBanks()),
		slots:    sim.NewMinIndex(g.TotalBanks()),
	}
	p.idleWindow = p.cfg.IdleWindow
	if p.idleWindow <= 0 {
		p.idleWindow = interval / sim.Duration(g.Rows) / 4
	}
	p.Reset(0)
	return p
}

// Name implements Policy.
func (p *PerBank) Name() string { return p.name }

// farPast seeds demand trackers so every bank starts idle.
const farPast = sim.Time(-1) << 40

// Reset implements Policy.
func (p *PerBank) Reset(start sim.Time) {
	for i := range p.banks {
		p.banks[i] = pbBank{clock: newSlotClock(p.interval, int64(p.geom.Rows)), lastDemand: farPast}
		// Banks are staggered by a fraction of a slot so the nominal
		// schedules never collide.
		p.banks[i].clock.reset(start + sim.Time(i)*p.interval/sim.Time(p.geom.Rows*len(p.banks)))
		p.slots.Set(i, p.banks[i].clock.at)
	}
	p.stats = PolicyStats{}
}

// OnRowRestore implements Policy. The per-bank family is row-oblivious —
// the module's internal counter picks rows — so demand restores do not
// change the schedule (that is Smart Refresh's trick, not DARP's).
func (p *PerBank) OnRowRestore(sim.Time, dram.RowID) {}

// OnDemandObserved implements BankAware: read demand raises the bank's
// pressure; writes are deliberately ignored (write-refresh
// parallelization — refreshing under a write burst does not lengthen any
// read's critical path).
func (p *PerBank) OnDemandObserved(t sim.Time, bank int, write bool) {
	if write {
		return
	}
	b := &p.banks[bank]
	b.lastDemand = max(b.lastDemand, t)
}

// NextTick implements Policy.
func (p *PerBank) NextTick() (sim.Time, bool) {
	at, _, ok := p.slots.Min()
	return at, ok
}

// emit appends one per-bank refresh command for flat bank b.
func (p *PerBank) emit(b int, dst []Command) []Command {
	p.banks[b].credit--
	p.stats.RefreshesRequested++
	return append(dst, Command{Bank: b, Row: -1, Kind: dram.RefreshPerBank, Overlap: p.overlap})
}

// slotBusy reports whether a slot at time at has read demand within the
// quiet window before it (a row burst likely still in flight), a demand
// at the slot's own time included.
func (p *PerBank) slotBusy(b *pbBank, at sim.Time) bool {
	return at-b.lastDemand < sim.Time(p.idleWindow)
}

// Advance implements Policy: processes every bank slot due at or before
// t in global time order (earliest slot first, lowest bank on ties).
func (p *PerBank) Advance(t sim.Time, dst []Command) []Command {
	for {
		at, b, _ := p.slots.Min()
		if at > t {
			return dst
		}
		bank := &p.banks[b]
		bank.clock.next()
		p.slots.Set(b, bank.clock.at)
		bank.credit++ // this slot's refresh is now owed

		emitted := len(dst)
		switch {
		case !p.dodge:
			// SARP: fixed cadence, overlapped issue; drain everything owed
			// (credit only exceeds one after a Reset race, but draining
			// keeps the invariant unconditional).
			for bank.credit > 0 {
				dst = p.emit(b, dst)
			}
		case p.slotBusy(bank, at):
			// Recent read demand: postpone inside the window, force at the
			// cap. Idleness is checked before the cap so a bank pinned at
			// the cap under load still catches up the moment it goes quiet
			// — otherwise it would force every slot forever and never
			// regain postponement headroom.
			if bank.credit > p.cfg.MaxPostpone {
				for bank.credit > p.cfg.MaxPostpone {
					dst = p.emit(b, dst)
					p.stats.RefreshesForced++
				}
			} else {
				p.stats.RefreshesPostponed++
			}
		default:
			// Idle bank: this slot's refresh plus at most two extras —
			// working off the deficit first, then pulling future refreshes
			// in ahead of schedule. The extras must outpace postponement
			// (busy slots owe one each) without becoming an occupancy wall
			// that stalls the very demand the dodging exists to protect.
			for n := 0; n < 3 && bank.credit > -p.cfg.MaxPullIn; n++ {
				pulled := bank.credit <= 0
				dst = p.emit(b, dst)
				if pulled {
					p.stats.RefreshesPulledIn++
				}
			}
		}
		if n := len(dst) - emitted; n > p.stats.MaxPendingPerTick {
			p.stats.MaxPendingPerTick = n
		}
		if bank.credit > p.stats.MaxRefreshDeficit {
			p.stats.MaxRefreshDeficit = bank.credit
		}
	}
}

// Stats implements Policy.
func (p *PerBank) Stats() PolicyStats { return p.stats }
