// Package power implements the energy model of section 6: a Micron-style
// IDD-current model for the DRAM module (the method DRAMsim uses), the
// Catthoor bus-energy model with the Table 3 parameters for the extra
// address-bus activity of RAS-only refresh, and the Artisan-style SRAM
// access energy for the Smart Refresh counter array.
package power

import (
	"fmt"

	"smartrefresh/internal/core"
	"smartrefresh/internal/dram"
	"smartrefresh/internal/sim"
	"smartrefresh/internal/stats"
)

// Energy is an amount of energy in picojoules. (1 mA * 1 V * 1 ns = 1 pJ,
// which makes the IDD arithmetic exact in these units.)
type Energy float64

// Millijoules reports the energy in mJ.
func (e Energy) Millijoules() float64 { return float64(e) / 1e9 }

// Joules reports the energy in J.
func (e Energy) Joules() float64 { return float64(e) / 1e12 }

// PowerOver returns the average power in watts over the given duration.
func (e Energy) PowerOver(d sim.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return e.Joules() / d.Seconds()
}

// DDR2Currents is the per-device IDD current set from the vendor
// datasheet, in milliamps, plus the supply voltage.
type DDR2Currents struct {
	VDD   float64 // supply voltage, volts
	IDD0  float64 // one-bank activate-precharge current
	IDD2P float64 // precharge power-down standby, fast exit (tXP)
	IDD2N float64 // precharge standby
	IDD3N float64 // active standby
	IDD4R float64 // burst read
	IDD4W float64 // burst write
	IDD5  float64 // refresh current
	IDD6  float64 // self-refresh current

	// IDD3P is the active power-down current (ACT-PDN: clock enable low
	// with pages open).
	IDD3P float64
	// IDD2P0 is the slow-exit precharge power-down current (PRE-PDN with
	// the DLL frozen, woken over tXPDLL).
	IDD2P0 float64
	// IDD6L is the low-power self-refresh current of the slow-wake mode
	// (DLL off, exit pays a relock).
	IDD6L float64
}

// Validate reports an error for physically inconsistent currents.
func (c DDR2Currents) Validate() error {
	if c.VDD <= 0 {
		return fmt.Errorf("power: VDD = %v", c.VDD)
	}
	if c.IDD2P <= 0 || c.IDD2N < c.IDD2P || c.IDD3N < c.IDD2N {
		return fmt.Errorf("power: standby currents must satisfy 0 < IDD2P <= IDD2N <= IDD3N (got %v/%v/%v)",
			c.IDD2P, c.IDD2N, c.IDD3N)
	}
	if c.IDD0 <= c.IDD3N || c.IDD4R <= c.IDD3N || c.IDD4W <= c.IDD3N || c.IDD5 <= c.IDD2N {
		return fmt.Errorf("power: operation currents must exceed standby")
	}
	if c.IDD6 <= 0 || c.IDD6 > c.IDD2P {
		return fmt.Errorf("power: IDD6 (%v) must be positive and at most IDD2P (%v)", c.IDD6, c.IDD2P)
	}
	// The power-down currents slot into the same monotone ladder:
	// deeper states draw less.
	if c.IDD3P < c.IDD2P || c.IDD3P > c.IDD3N {
		return fmt.Errorf("power: IDD3P (%v) must lie in [IDD2P, IDD3N] = [%v, %v]", c.IDD3P, c.IDD2P, c.IDD3N)
	}
	if c.IDD2P0 < c.IDD6 || c.IDD2P0 > c.IDD2P {
		return fmt.Errorf("power: IDD2P0 (%v) must lie in [IDD6, IDD2P] = [%v, %v]", c.IDD2P0, c.IDD6, c.IDD2P)
	}
	if c.IDD6L <= 0 || c.IDD6L > c.IDD6 {
		return fmt.Errorf("power: IDD6L (%v) must be positive and at most IDD6 (%v)", c.IDD6L, c.IDD6)
	}
	return nil
}

// MicronDDR2_667 returns the datasheet current set for the Micron DDR2-667
// registered DIMM family the paper configures from [7]. The power-down
// entries follow the same speed grade's low-power columns.
func MicronDDR2_667() DDR2Currents {
	return DDR2Currents{
		VDD:    1.8,
		IDD0:   85,
		IDD2P:  7,
		IDD2N:  35,
		IDD3N:  45,
		IDD4R:  150,
		IDD4W:  155,
		IDD5:   190,
		IDD6:   6,
		IDD3P:  20,
		IDD2P0: 6.5,
		IDD6L:  4,
	}
}

// BusParams is the Table 3 parameter set for the Catthoor [16] bus energy
// model used to charge RAS-only refresh for driving the row address.
type BusParams struct {
	OnChipLengthMM    float64 // semi-perimeter estimate of the MCH die
	OffChipLengthMM   float64 // board trace to the DIMM
	OnChipCapPFPerMM  float64
	OffChipCapPFPerMM float64
	ModuleInputCapPF  float64 // input capacitance per memory module (rank)
	Modules           int     // number of ranks sharing the address bus
	VDD               float64 // bus swing voltage
	// DriverFraction is the driver capacitance as a fraction of the load
	// (impedance matching per [16]: 30%).
	DriverFraction float64
}

// Table3Bus returns the exact Table 3 values, with the paper's 30% driver
// fraction and the DDR2 1.8 V swing.
func Table3Bus(modules int) BusParams {
	return BusParams{
		OnChipLengthMM:    36,
		OffChipLengthMM:   102,
		OnChipCapPFPerMM:  0.21,
		OffChipCapPFPerMM: 0.1,
		ModuleInputCapPF:  3,
		Modules:           modules,
		VDD:               1.8,
		DriverFraction:    0.3,
	}
}

// LoadCapacitancePF returns Cload = Lon*Con + Loff*Coff + sum Cin(m).
func (b BusParams) LoadCapacitancePF() float64 {
	return b.OnChipLengthMM*b.OnChipCapPFPerMM +
		b.OffChipLengthMM*b.OffChipCapPFPerMM +
		float64(b.Modules)*b.ModuleInputCapPF
}

// WireCapacitancePF returns C = (1 + DriverFraction) * Cload.
func (b BusParams) WireCapacitancePF() float64 {
	return (1 + b.DriverFraction) * b.LoadCapacitancePF()
}

// EnergyPerAccess returns E = C * VDD^2 * width for one bus transfer of
// the given width in bits. (pF * V^2 = pJ.)
func (b BusParams) EnergyPerAccess(widthBits int) Energy {
	return Energy(b.WireCapacitancePF() * b.VDD * b.VDD * float64(widthBits))
}

// CounterArrayParams models the SRAM array holding the Smart Refresh
// time-out counters (section 6: an Artisan 90 nm SRAM estimate; the
// decrement logic is an order of magnitude smaller and neglected).
type CounterArrayParams struct {
	ReadEnergyPJ  float64 // per counter read
	WriteEnergyPJ float64 // per counter write
}

// Artisan90nm returns the per-access energy estimate for a 48 KB 90 nm
// SRAM macro of the kind the Artisan generator produces.
func Artisan90nm() CounterArrayParams {
	return CounterArrayParams{ReadEnergyPJ: 25, WriteEnergyPJ: 28}
}

// Model evaluates module activity into energy. Configure one per
// simulated DRAM module.
type Model struct {
	Currents DDR2Currents
	Geometry dram.Geometry
	Timing   dram.Timing
	Bus      BusParams
	Counter  CounterArrayParams

	// PowerDownFraction is the fraction of all-banks-precharged time the
	// controller keeps the module in precharge power-down (IDD2P instead
	// of IDD2N). DRAMsim's power-down policy corresponds to a high value
	// for idle ranks; 0 disables power-down.
	PowerDownFraction float64

	// BackgroundScale scales background (standby) energy; 1 is the plain
	// datasheet model. The 3D die-stacked preset uses a reduced value:
	// the stacked device has no DIMM interface circuitry, which is where
	// much of a conventional module's standby current goes.
	BackgroundScale float64
}

// Validate reports an error for inconsistent model configuration.
func (m Model) Validate() error {
	if err := m.Currents.Validate(); err != nil {
		return err
	}
	if err := m.Geometry.Validate(); err != nil {
		return err
	}
	if err := m.Timing.Validate(); err != nil {
		return err
	}
	if m.PowerDownFraction < 0 || m.PowerDownFraction > 1 {
		return fmt.Errorf("power: PowerDownFraction = %v outside [0,1]", m.PowerDownFraction)
	}
	if m.BackgroundScale < 0 {
		return fmt.Errorf("power: negative BackgroundScale")
	}
	return nil
}

// rowAddressBits is the width of the address transfer charged to each
// RAS-only refresh: the geometry's row bits plus bank bits.
func (m Model) rowAddressBits() int {
	bits := 0
	for v := m.Geometry.Rows; v > 1; v >>= 1 {
		bits++
	}
	for v := m.Geometry.Banks; v > 1; v >>= 1 {
		bits++
	}
	return bits
}

// Per-operation energies, all scaled to the full rank width
// (DevicesPerRank devices operate together on one row).

// ActivatePrechargeEnergy returns the energy of one activate-precharge
// pair beyond the standby baseline (Micron power-calculation method).
func (m Model) ActivatePrechargeEnergy() Energy {
	c := m.Currents
	tRCns := m.Timing.TRC.Nanoseconds()
	tRASns := m.Timing.TRAS.Nanoseconds()
	base := (c.IDD3N*tRASns + c.IDD2N*(tRCns-tRASns)) / tRCns
	perDevice := (c.IDD0 - base) * c.VDD * tRCns
	return Energy(perDevice * float64(m.Geometry.DevicesPerRank))
}

// ReadBurstEnergy returns the incremental energy of one read burst.
func (m Model) ReadBurstEnergy() Energy {
	c := m.Currents
	t := m.Timing.BurstDuration(m.Geometry.BurstLength).Nanoseconds()
	return Energy((c.IDD4R - c.IDD3N) * c.VDD * t * float64(m.Geometry.DevicesPerRank))
}

// WriteBurstEnergy returns the incremental energy of one write burst.
func (m Model) WriteBurstEnergy() Energy {
	c := m.Currents
	t := m.Timing.BurstDuration(m.Geometry.BurstLength).Nanoseconds()
	return Energy((c.IDD4W - c.IDD3N) * c.VDD * t * float64(m.Geometry.DevicesPerRank))
}

// RefreshRowEnergy returns the DRAM-array energy of refreshing one row
// (either refresh kind; the bus overhead of RAS-only refresh is separate).
func (m Model) RefreshRowEnergy() Energy {
	c := m.Currents
	t := m.Timing.TRefreshRow.Nanoseconds()
	return Energy((c.IDD5 - c.IDD2N) * c.VDD * t * float64(m.Geometry.DevicesPerRank))
}

// RefreshConflictExtraEnergy is the additional cost when a refresh finds
// the bank with an open page: the page must be written back and
// precharged first. Modelled as the precharge share of an
// activate-precharge pair (the paper only states this case "clearly
// consumes more energy").
func (m Model) RefreshConflictExtraEnergy() Energy {
	frac := float64(m.Timing.TRP) / float64(m.Timing.TRC)
	return Energy(float64(m.ActivatePrechargeEnergy()) * frac)
}

// RASOnlyBusEnergy is the address-bus energy charged to each RAS-only
// refresh (the CBR baseline pays nothing: the row address never leaves
// the module).
func (m Model) RASOnlyBusEnergy() Energy {
	return m.Bus.EnergyPerAccess(m.rowAddressBits())
}

// Breakdown is the per-component energy attribution for one simulation.
type Breakdown struct {
	Background     Energy // standby energy over the whole run
	ActPre         Energy // demand activate-precharge pairs
	Read           Energy // read bursts
	Write          Energy // write bursts
	RefreshArray   Energy // DRAM-array energy of refresh operations
	RefreshBus     Energy // RAS-only address-bus overhead
	RefreshCounter Energy // Smart Refresh counter-array accesses
}

var breakdownRule = stats.RuleFor[Breakdown]()

// Add returns the component-wise sum of two breakdowns (stats.Rule),
// used to aggregate per-vault energy into stack totals.
func (b Breakdown) Add(o Breakdown) Breakdown { return breakdownRule.Fold(b, o) }

// RefreshRelated returns the refresh-side energy the paper's Figures 7,
// 10, 13 and 16 compare: the refresh operations themselves plus every
// overhead Smart Refresh adds (RAS-only bus activity and the counter
// array).
func (b Breakdown) RefreshRelated() Energy {
	return b.RefreshArray + b.RefreshBus + b.RefreshCounter
}

// Total returns the total DRAM energy (Figures 8, 11, 14, 17).
func (b Breakdown) Total() Energy {
	return b.Background + b.ActPre + b.Read + b.Write + b.RefreshRelated()
}

// Evaluate converts module statistics plus policy statistics into an
// energy breakdown.
func (m Model) Evaluate(ms dram.ModuleStats, ps core.PolicyStats) Breakdown {
	var b Breakdown
	b.ActPre = Energy(float64(ms.Activates)) * m.ActivatePrechargeEnergy()
	b.Read = Energy(float64(ms.Reads)) * m.ReadBurstEnergy()
	b.Write = Energy(float64(ms.Writes)) * m.WriteBurstEnergy()
	b.RefreshArray = Energy(float64(ms.RefreshOps))*m.RefreshRowEnergy() +
		Energy(float64(ms.RefreshConflictOps))*m.RefreshConflictExtraEnergy()
	b.RefreshBus = Energy(float64(ms.RefreshRASOnlyOps)) * m.RASOnlyBusEnergy()
	b.RefreshCounter = Energy(float64(ps.CounterReads)*m.Counter.ReadEnergyPJ +
		float64(ps.CounterWrites)*m.Counter.WriteEnergyPJ)

	// Background: mW * ms = µJ = 1e6 pJ. Self-refresh residency (IDD6) is
	// carved out of idle time first. The rest takes one of two paths:
	// the ladder's residency vector when the controller tracked power
	// states, otherwise the calibrated PowerDownFraction.
	activeMS := ms.ActiveTime.Milliseconds()
	srMS := ms.SelfRefreshTime.Milliseconds()
	idleMS := ms.IdleTime.Milliseconds() - srMS
	if idleMS < 0 {
		idleMS = 0
	}
	var bg float64
	if ms.PowerStatesTracked {
		// The controller ran the explicit per-rank power-state machine:
		// integrate background energy over the full residency vector —
		// each state's standby power times its tracked residency, with
		// the awake shares as the remainders. The PowerDownFraction
		// calibration does not apply; the machine measured the real
		// split.
		cur := m.Currents
		actPdnMS := ms.ActPdnTime.Milliseconds()
		fastMS := ms.PrePdnFastTime.Milliseconds()
		slowMS := ms.PrePdnSlowTime.Milliseconds()
		srSlowMS := ms.SelfRefreshSlowTime.Milliseconds()
		awakeActiveMS := activeMS - actPdnMS // ACT-PDN is part of ActiveTime
		if awakeActiveMS < 0 {
			awakeActiveMS = 0
		}
		awakeIdleMS := idleMS - fastMS - slowMS // idleMS already excludes SR
		if awakeIdleMS < 0 {
			awakeIdleMS = 0
		}
		srFastMS := srMS - srSlowMS // slow-wake is part of SelfRefreshTime
		if srFastMS < 0 {
			srFastMS = 0
		}
		bg = m.standbyPowerMW(cur.IDD3N)*awakeActiveMS +
			m.standbyPowerMW(cur.IDD3P)*actPdnMS +
			m.standbyPowerMW(cur.IDD2N)*awakeIdleMS +
			m.standbyPowerMW(cur.IDD2P)*fastMS +
			m.standbyPowerMW(cur.IDD2P0)*slowMS +
			m.standbyPowerMW(cur.IDD6)*srFastMS +
			m.standbyPowerMW(cur.IDD6L)*srSlowMS
	} else {
		cur := m.Currents
		idleMA := m.PowerDownFraction*cur.IDD2P + (1-m.PowerDownFraction)*cur.IDD2N
		bg = m.standbyPowerMW(cur.IDD3N)*activeMS + m.standbyPowerMW(cur.IDD6)*srMS
		bg += m.standbyPowerMW(idleMA) * idleMS
	}
	b.Background = Energy(bg * 1e6)
	return b
}

// standbyPowerMW returns the module standby power at the given per-device
// current, honouring BackgroundScale.
func (m Model) standbyPowerMW(currentMA float64) float64 {
	scale := m.BackgroundScale
	if scale == 0 {
		scale = 1
	}
	return currentMA * m.Currents.VDD * float64(m.Geometry.DevicesPerRank) * scale
}
