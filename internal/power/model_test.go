package power

import (
	"math"
	"testing"
	"testing/quick"

	"smartrefresh/internal/core"
	"smartrefresh/internal/dram"
	"smartrefresh/internal/sim"
)

func paperGeom() dram.Geometry {
	return dram.Geometry{
		Channels: 1, Ranks: 2, Banks: 4, Rows: 16384, Columns: 2048,
		DataWidthBits: 72, BurstLength: 4, DevicesPerRank: 18,
	}
}

func paperModel() Model {
	return Model{
		Currents:          MicronDDR2_667(),
		Geometry:          paperGeom(),
		Timing:            dram.DDR2_667(64 * sim.Millisecond),
		Bus:               Table3Bus(2),
		Counter:           Artisan90nm(),
		PowerDownFraction: 0.3,
	}
}

func TestCurrentsValidate(t *testing.T) {
	if err := MicronDDR2_667().Validate(); err != nil {
		t.Fatalf("datasheet currents invalid: %v", err)
	}
	bad := MicronDDR2_667()
	bad.IDD2P = bad.IDD2N + 1
	if bad.Validate() == nil {
		t.Error("IDD2P > IDD2N accepted")
	}
	bad = MicronDDR2_667()
	bad.IDD0 = bad.IDD3N
	if bad.Validate() == nil {
		t.Error("IDD0 <= IDD3N accepted")
	}
	bad = MicronDDR2_667()
	bad.VDD = 0
	if bad.Validate() == nil {
		t.Error("zero VDD accepted")
	}
	// The power-down currents are required and must fit the ladder.
	for _, tc := range []struct {
		name string
		set  func(*DDR2Currents)
	}{
		{"zero IDD3P", func(c *DDR2Currents) { c.IDD3P = 0 }},
		{"IDD3P above IDD3N", func(c *DDR2Currents) { c.IDD3P = c.IDD3N + 1 }},
		{"zero IDD2P0", func(c *DDR2Currents) { c.IDD2P0 = 0 }},
		{"IDD2P0 above IDD2P", func(c *DDR2Currents) { c.IDD2P0 = c.IDD2P + 1 }},
		{"zero IDD6L", func(c *DDR2Currents) { c.IDD6L = 0 }},
		{"IDD6L above IDD6", func(c *DDR2Currents) { c.IDD6L = c.IDD6 + 1 }},
	} {
		bad = MicronDDR2_667()
		tc.set(&bad)
		if bad.Validate() == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

func TestTable3LoadCapacitance(t *testing.T) {
	b := Table3Bus(2)
	// Cload = 36*0.21 + 102*0.1 + 2*3 = 23.76 pF.
	if got := b.LoadCapacitancePF(); math.Abs(got-23.76) > 1e-9 {
		t.Errorf("Cload = %v, want 23.76", got)
	}
	// C = 1.3 * Cload = 30.888 pF.
	if got := b.WireCapacitancePF(); math.Abs(got-30.888) > 1e-9 {
		t.Errorf("C = %v, want 30.888", got)
	}
}

func TestTable3EnergyPerAccess(t *testing.T) {
	b := Table3Bus(2)
	// E = C * V^2 * width = 30.888 * 3.24 * 14 ~ 1401 pJ.
	got := float64(b.EnergyPerAccess(14))
	want := 30.888 * 1.8 * 1.8 * 14
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("bus energy = %v, want %v", got, want)
	}
}

func TestActivatePrechargeEnergy(t *testing.T) {
	m := paperModel()
	// Per device: (85 - (45*45 + 35*15)/60) * 1.8 * 60 = 4590 pJ; x18.
	got := float64(m.ActivatePrechargeEnergy())
	want := 4590.0 * 18
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("EAct = %v, want %v", got, want)
	}
}

func TestRefreshRowEnergy(t *testing.T) {
	m := paperModel()
	// (190-35) * 1.8 * 70 * 18 = 351540 pJ.
	got := float64(m.RefreshRowEnergy())
	if math.Abs(got-351540) > 1e-6 {
		t.Errorf("ERef = %v, want 351540", got)
	}
}

func TestBurstEnergies(t *testing.T) {
	m := paperModel()
	// Read: (150-45)*1.8*6*18 = 20412 pJ; write slightly more.
	if got := float64(m.ReadBurstEnergy()); math.Abs(got-20412) > 1e-6 {
		t.Errorf("ERead = %v, want 20412", got)
	}
	if float64(m.WriteBurstEnergy()) <= float64(m.ReadBurstEnergy()) {
		t.Error("write burst should cost more than read with these currents")
	}
}

func TestRefreshConflictExtra(t *testing.T) {
	m := paperModel()
	extra := float64(m.RefreshConflictExtraEnergy())
	act := float64(m.ActivatePrechargeEnergy())
	if extra <= 0 || extra >= act {
		t.Errorf("conflict extra %v outside (0, EAct=%v)", extra, act)
	}
}

func TestRowAddressBitsDerived(t *testing.T) {
	m := paperModel()
	// 16384 rows -> 14 bits, 4 banks -> 2 bits: 16.
	if got := m.rowAddressBits(); got != 16 {
		t.Errorf("derived address bits = %d, want 16", got)
	}
}

// standbyMW reads the module's standby power back from Evaluate: one
// millisecond in one state costs its power in mW times 1e6 pJ.
func standbyMW(m Model, active bool) float64 {
	ms := dram.ModuleStats{IdleTime: sim.Millisecond}
	if active {
		ms = dram.ModuleStats{ActiveTime: sim.Millisecond}
	}
	return float64(m.Evaluate(ms, core.PolicyStats{}).Background) / 1e6
}

func TestBackgroundPower(t *testing.T) {
	m := paperModel()
	// Active: 45 mA * 1.8 V * 18 devices = 1458 mW per rank.
	if got := standbyMW(m, true); math.Abs(got-1458) > 1e-6 {
		t.Errorf("active standby = %v mW, want 1458", got)
	}
	// Idle at 30% power-down: (0.3*7 + 0.7*35) * 1.8 * 18 = 861.84 mW.
	if got := standbyMW(m, false); math.Abs(got-861.84) > 1e-6 {
		t.Errorf("idle standby = %v mW, want 861.84", got)
	}
	// Full power-down floor.
	m.PowerDownFraction = 1
	if got := standbyMW(m, false); math.Abs(got-7*1.8*18) > 1e-6 {
		t.Errorf("full powerdown = %v mW", got)
	}
}

func TestBackgroundScale(t *testing.T) {
	m := paperModel()
	base := standbyMW(m, false)
	m.BackgroundScale = 0.5
	if got := standbyMW(m, false); math.Abs(got-base/2) > 1e-6 {
		t.Errorf("scaled background = %v, want %v", got, base/2)
	}
}

func TestEvaluateBreakdown(t *testing.T) {
	m := paperModel()
	ms := dram.ModuleStats{
		Activates:         100,
		Reads:             80,
		Writes:            20,
		RefreshOps:        1000,
		RefreshRASOnlyOps: 600,
		RefreshCBROps:     400,
		ActiveTime:        10 * sim.Millisecond,
		IdleTime:          90 * sim.Millisecond,
	}
	ps := core.PolicyStats{CounterReads: 5000, CounterWrites: 5000}
	b := m.Evaluate(ms, ps)
	if float64(b.ActPre) != 100*float64(m.ActivatePrechargeEnergy()) {
		t.Error("ActPre wrong")
	}
	if float64(b.Read) != 80*float64(m.ReadBurstEnergy()) {
		t.Error("Read wrong")
	}
	if float64(b.RefreshArray) != 1000*float64(m.RefreshRowEnergy()) {
		t.Error("RefreshArray wrong (no conflicts)")
	}
	if float64(b.RefreshBus) != 600*float64(m.RASOnlyBusEnergy()) {
		t.Error("RefreshBus wrong")
	}
	wantCtr := 5000*m.Counter.ReadEnergyPJ + 5000*m.Counter.WriteEnergyPJ
	if math.Abs(float64(b.RefreshCounter)-wantCtr) > 1e-6 {
		t.Error("RefreshCounter wrong")
	}
	wantBG := (standbyMW(m, true)*10 + standbyMW(m, false)*90) * 1e6
	if math.Abs(float64(b.Background)-wantBG) > 1 {
		t.Errorf("Background = %v, want %v", float64(b.Background), wantBG)
	}
	total := float64(b.Background) + float64(b.ActPre) + float64(b.Read) +
		float64(b.Write) + float64(b.RefreshRelated())
	if math.Abs(float64(b.Total())-total) > 1e-3 {
		t.Error("Total does not sum components")
	}
}

func TestEvaluateConflictRefreshCostsMore(t *testing.T) {
	m := paperModel()
	base := m.Evaluate(dram.ModuleStats{RefreshOps: 10}, core.PolicyStats{})
	conf := m.Evaluate(dram.ModuleStats{RefreshOps: 10, RefreshConflictOps: 10}, core.PolicyStats{})
	if conf.RefreshArray <= base.RefreshArray {
		t.Error("conflict refreshes not charged extra")
	}
}

func TestCBRBaselinePaysNoBusOrCounterEnergy(t *testing.T) {
	m := paperModel()
	b := m.Evaluate(dram.ModuleStats{RefreshOps: 1000, RefreshCBROps: 1000}, core.PolicyStats{})
	if b.RefreshBus != 0 || b.RefreshCounter != 0 {
		t.Error("CBR baseline charged Smart Refresh overheads")
	}
}

func TestEnergyHelpers(t *testing.T) {
	e := Energy(2e9) // 2 mJ
	if e.Millijoules() != 2 {
		t.Errorf("Millijoules = %v", e.Millijoules())
	}
	if e.Joules() != 2e-3 {
		t.Errorf("Joules = %v", e.Joules())
	}
	// A non-positive window has no average power: PowerOver guards
	// rather than returning Inf/NaN, so report paths can divide by a
	// drained (or never-started) window without poisoning aggregates.
	cases := []struct {
		name string
		d    sim.Duration
		want float64
	}{
		{"1s", sim.Second, 2e-3}, // 2 mJ over 1 s = 2 mW
		{"zero", 0, 0},
		{"negative", -sim.Millisecond, 0},
		{"negative-1s", -sim.Second, 0},
	}
	for _, tc := range cases {
		if got := e.PowerOver(tc.d); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("PowerOver(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
	if got := Energy(0).PowerOver(0); got != 0 {
		t.Errorf("PowerOver(0) on zero energy = %v, want 0 (not NaN)", got)
	}
}

func TestModelValidate(t *testing.T) {
	m := paperModel()
	if err := m.Validate(); err != nil {
		t.Fatalf("paper model invalid: %v", err)
	}
	bad := paperModel()
	bad.PowerDownFraction = 1.5
	if bad.Validate() == nil {
		t.Error("PowerDownFraction > 1 accepted")
	}
	bad = paperModel()
	bad.BackgroundScale = -1
	if bad.Validate() == nil {
		t.Error("negative BackgroundScale accepted")
	}
}

func TestSelfRefreshEnergy(t *testing.T) {
	m := paperModel()
	idle := dram.ModuleStats{IdleTime: 100 * sim.Millisecond}
	sr := dram.ModuleStats{IdleTime: 100 * sim.Millisecond, SelfRefreshTime: 100 * sim.Millisecond}
	eIdle := m.Evaluate(idle, core.PolicyStats{}).Background
	eSR := m.Evaluate(sr, core.PolicyStats{}).Background
	if eSR >= eIdle {
		t.Errorf("self-refresh %v not below idle mix %v", eSR, eIdle)
	}
	// Full SR: IDD6 * VDD * devices * time.
	want := 6.0 * 1.8 * 18 * 100 * 1e6
	if math.Abs(float64(eSR)-want) > 1 {
		t.Errorf("SR background = %v, want %v", float64(eSR), want)
	}
}

func TestIDD6Validation(t *testing.T) {
	c := MicronDDR2_667()
	c.IDD6 = 0
	if c.Validate() == nil {
		t.Error("zero IDD6 accepted")
	}
	c = MicronDDR2_667()
	c.IDD6 = c.IDD2P + 1
	if c.Validate() == nil {
		t.Error("IDD6 above IDD2P accepted")
	}
}

// Property: energy is monotone in every activity count.
func TestEvaluateMonotoneProperty(t *testing.T) {
	m := paperModel()
	f := func(a, r, w, ref uint16) bool {
		ms := dram.ModuleStats{
			Activates: uint64(a), Reads: uint64(r), Writes: uint64(w),
			RefreshOps: uint64(ref),
		}
		b1 := m.Evaluate(ms, core.PolicyStats{})
		ms.Activates++
		ms.Reads++
		ms.Writes++
		ms.RefreshOps++
		b2 := m.Evaluate(ms, core.PolicyStats{})
		return b2.Total() > b1.Total()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the paper's premise — with realistic parameters the refresh
// share of total energy is substantial but below half for the
// conventional module at baseline activity.
func TestRefreshShareRealistic(t *testing.T) {
	m := paperModel()
	second := sim.Second
	// Baseline second: 2,048,000 CBR refreshes, modest demand traffic,
	// module mostly idle.
	ms := dram.ModuleStats{
		Activates:     2_000_000,
		Reads:         1_600_000,
		Writes:        400_000,
		RefreshOps:    2_048_000,
		RefreshCBROps: 2_048_000,
		ActiveTime:    second / 5,
		IdleTime:      2*second - second/5, // 2 ranks
	}
	b := m.Evaluate(ms, core.PolicyStats{})
	share := float64(b.RefreshRelated()) / float64(b.Total())
	if share < 0.10 || share > 0.45 {
		t.Errorf("refresh share = %.3f, want a substantial-but-minority share", share)
	}
}
