package dram

import (
	"testing"

	"smartrefresh/internal/sim"
)

// TestPowerStateScriptPinned walks the whole ladder through Enter and
// Exit and pins every returned time, the seven residency fields and both
// entry counters, over two Finalize calls. Rank 0 enters ACT-PDN behind
// its busy bank and wakes, then descends PRE-PDN-fast, PRE-PDN-slow, SR
// and SR-slow and wakes; rank 1 enters PRE-PDN-fast behind a refresh
// chain and is still asleep in SR-slow at Finalize.
func TestPowerStateScriptPinned(t *testing.T) {
	m := testModule()
	us := sim.Time(sim.Microsecond)
	step := func(name string, got, want sim.Time) {
		t.Helper()
		if got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	access(m, 0, 0, 5, false)
	e1 := m.Enter(0, 0, PSActPdn)
	step("ACT-PDN entry behind the busy bank", e1, 30000)
	r1 := m.Exit(e1+3*us, 0)
	step("ACT-PDN exit", r1, 3036000)
	m.Precharge(r1, 0)
	e2 := m.Enter(r1+us, 0, PSPrePdnFast)
	step("PRE-PDN-fast entry", e2, 4036000)
	e3 := m.Enter(e2+5*us, 0, PSPrePdnSlow)
	step("PRE-PDN-slow deepen", e3, 9036000)
	e4 := m.Enter(e3+10*us, 0, PSSelfRefresh)
	step("SR descent", e4, 19036000)
	e5 := m.Enter(e4+20*us, 0, PSSelfRefreshSlow)
	step("SR-slow deepen", e5, 39036000)
	r2 := m.Exit(e4+60*us, 0)
	step("SR-slow exit", r2, 79638000)
	if got := m.RankState(0); got != PSAwake {
		t.Errorf("rank 0 is %v after the exit, want awake", got)
	}

	for i := 0; i < 10; i++ {
		m.RefreshCBR(0, 4) // rank 1's bank 0
	}
	e6 := m.Enter(1, 1, PSPrePdnFast)
	step("PRE-PDN-fast entry behind the refresh chain", e6, 720000)
	e7 := m.Enter(e6+2*us, 1, PSSelfRefresh)
	step("rank 1 SR descent", e7, 2720000)
	step("rank 1 SR-slow deepen", m.Enter(e7+5*us, 1, PSSelfRefreshSlow), 7720000)

	for _, tc := range []struct {
		end                     sim.Time
		idle, sr, srSlow        sim.Duration
		active, act, fast, slow sim.Duration
		pdEntries, srEntries    uint64
	}{
		{89638000, 175520000, 146918000, 121918000, 3756000, 3000000, 7000000, 10000000, 4, 2},
		{109638000, 215520000, 166918000, 141918000, 3756000, 3000000, 7000000, 10000000, 4, 2},
	} {
		m.Finalize(tc.end)
		s := m.Stats()
		got := []sim.Duration{s.ActiveTime, s.IdleTime, s.SelfRefreshTime, s.SelfRefreshSlowTime,
			s.ActPdnTime, s.PrePdnFastTime, s.PrePdnSlowTime}
		want := []sim.Duration{tc.active, tc.idle, tc.sr, tc.srSlow, tc.act, tc.fast, tc.slow}
		for i, name := range []string{"ActiveTime", "IdleTime", "SelfRefreshTime", "SelfRefreshSlowTime",
			"ActPdnTime", "PrePdnFastTime", "PrePdnSlowTime"} {
			if got[i] != want[i] {
				t.Errorf("end %d: %s = %d, want %d", tc.end, name, got[i], want[i])
			}
		}
		if s.PowerDownEntries != tc.pdEntries || s.SelfRefreshEntries != tc.srEntries {
			t.Errorf("end %d: PowerDownEntries %d SelfRefreshEntries %d, want %d and %d",
				tc.end, s.PowerDownEntries, s.SelfRefreshEntries, tc.pdEntries, tc.srEntries)
		}
	}
}

func TestEnterPowerDownClampsPastBusyBanks(t *testing.T) {
	m := testModule()
	access(m, 0, 0, 5, false)
	ready := m.BankReadyAt(0)
	if ready <= 0 {
		t.Fatal("access left no bank busy span")
	}
	// The PDE queues behind the in-flight access: requesting entry at
	// t=0 must not charge ACT-PDN residency over the busy span.
	entered := m.Enter(0, 0, PSActPdn)
	if entered < ready {
		t.Errorf("entered ACT-PDN at %v, before the bank freed at %v", entered, ready)
	}
	if got := m.RankState(0); got != PSActPdn {
		t.Errorf("state = %v, want act-pdn", got)
	}
	m.Finalize(entered + 10*sim.Microsecond)
	st := m.Stats()
	if st.ActPdnTime != 10*sim.Microsecond {
		t.Errorf("ActPdnTime = %v, want 10us (clamped entry)", st.ActPdnTime)
	}
	if st.PowerDownEntries != 1 {
		t.Errorf("PowerDownEntries = %d, want 1", st.PowerDownEntries)
	}
}

func TestEnterPowerDownDeepenFolds(t *testing.T) {
	m := testModule()
	// Fast PRE-PDN for 5 us, then deepen to slow for 10 us: the fold at
	// the deepen point must split the residency between the two states.
	m.Enter(0, 1, PSPrePdnFast)
	m.Enter(5*sim.Microsecond, 1, PSPrePdnSlow)
	if got := m.RankState(1); got != PSPrePdnSlow {
		t.Fatalf("state = %v, want pre-pdn-slow", got)
	}
	m.Finalize(15 * sim.Microsecond)
	st := m.Stats()
	if st.PrePdnFastTime != 5*sim.Microsecond {
		t.Errorf("PrePdnFastTime = %v, want 5us", st.PrePdnFastTime)
	}
	if st.PrePdnSlowTime != 10*sim.Microsecond {
		t.Errorf("PrePdnSlowTime = %v, want 10us", st.PrePdnSlowTime)
	}
	if st.PowerDownEntries != 2 {
		t.Errorf("PowerDownEntries = %d, want 2 (entry + deepen)", st.PowerDownEntries)
	}
}

func TestEnterPowerDownPanics(t *testing.T) {
	cases := []struct {
		name string
		run  func(m *Module)
	}{
		{"kind none", func(m *Module) {
			m.Enter(0, 0, PSAwake)
		}},
		{"in self-refresh", func(m *Module) {
			m.Enter(0, 0, PSSelfRefresh)
			m.Enter(sim.Time(sim.Microsecond), 0, PSPrePdnFast)
		}},
		{"precharge with open banks", func(m *Module) {
			res := access(m, 0, 0, 5, false)
			m.Enter(res.Done, 0, PSPrePdnFast)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted", tc.name)
				}
			}()
			tc.run(testModule())
		})
	}
}

func TestExitPowerDownLatency(t *testing.T) {
	tim := DDR2_667(64 * sim.Millisecond)
	cases := []struct {
		state PowerState
		exit  sim.Duration
	}{
		{PSActPdn, tim.PowerDownExitFast()},
		{PSPrePdnFast, tim.PowerDownExitFast()},
		{PSPrePdnSlow, tim.PowerDownExitSlow()},
	}
	for _, tc := range cases {
		t.Run(tc.state.String(), func(t *testing.T) {
			m := testModule()
			m.Enter(0, 0, tc.state)
			wake := sim.Time(10 * sim.Microsecond)
			ready := m.Exit(wake, 0)
			if ready < wake+sim.Time(tc.exit) {
				t.Errorf("ready at %v, want >= %v (exit %v)", ready, wake+sim.Time(tc.exit), tc.exit)
			}
			if got := m.RankState(0); got != PSAwake {
				t.Errorf("state after exit = %v, want awake", got)
			}
			// Every bank of the rank honours the exit latency.
			for b := 0; b < m.Geometry().Banks; b++ {
				if at := m.BankReadyAt(b); at < ready {
					t.Errorf("bank %d ready at %v, before rank wake %v", b, at, ready)
				}
			}
		})
	}
}

func TestExitPowerDownNotEnteredPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("exit without entry accepted")
		}
	}()
	testModule().Exit(0, 0)
}

func TestSlowSelfRefreshSplitsResidency(t *testing.T) {
	m := testModule()
	entered := m.Enter(0, 0, PSSelfRefresh)
	m.Enter(entered+4*sim.Microsecond, 0, PSSelfRefreshSlow)
	m.Finalize(entered + 10*sim.Microsecond)
	st := m.Stats()
	if got := st.SelfRefreshTime; got < 10*sim.Microsecond {
		t.Errorf("SelfRefreshTime = %v, want >= 10us", got)
	}
	if st.SelfRefreshSlowTime != 6*sim.Microsecond {
		t.Errorf("SelfRefreshSlowTime = %v, want 6us", st.SelfRefreshSlowTime)
	}
	if st.SelfRefreshEntries != 1 || st.PowerDownEntries != 0 {
		t.Errorf("entries SR %d PD %d, want 1 and 0 (the deepen counts as neither)",
			st.SelfRefreshEntries, st.PowerDownEntries)
	}
}

func TestSlowSelfRefreshPanics(t *testing.T) {
	t.Run("not in self-refresh", func(t *testing.T) {
		m := testModule()
		m.Enter(0, 0, PSPrePdnSlow)
		defer func() {
			if recover() == nil {
				t.Error("slow self-refresh outside self-refresh accepted")
			}
		}()
		m.Enter(0, 0, PSSelfRefreshSlow)
	})
	t.Run("already slow", func(t *testing.T) {
		m := testModule()
		entered := m.Enter(0, 0, PSSelfRefresh)
		m.Enter(entered, 0, PSSelfRefreshSlow)
		defer func() {
			if recover() == nil {
				t.Error("double slow self-refresh accepted")
			}
		}()
		m.Enter(entered+sim.Time(sim.Microsecond), 0, PSSelfRefreshSlow)
	})
}

func TestPowerDownExitLatencyFallbacks(t *testing.T) {
	tim := DDR2_667(64 * sim.Millisecond)
	if tim.TXP <= 0 || tim.TXPDLL <= 0 || tim.TXSRD <= 0 {
		t.Fatal("preset should set explicit exit latencies")
	}
	if got := tim.PowerDownExitFast(); got != tim.TXP {
		t.Errorf("PowerDownExitFast = %v, want TXP %v", got, tim.TXP)
	}
	if got := tim.PowerDownExitSlow(); got != tim.TXPDLL {
		t.Errorf("PowerDownExitSlow = %v, want TXPDLL %v", got, tim.TXPDLL)
	}
	if got := tim.SelfRefreshSlowExit(); got != tim.TXSRD {
		t.Errorf("SelfRefreshSlowExit = %v, want TXSRD %v", got, tim.TXSRD)
	}

	// Legacy current tables leave the new latencies zero; the accessors
	// fall back to clock-derived DDR2 figures.
	tim.TXP, tim.TXPDLL, tim.TXSRD = 0, 0, 0
	if got := tim.PowerDownExitFast(); got != 2*tim.TCK {
		t.Errorf("fallback PowerDownExitFast = %v, want 2 TCK", got)
	}
	if got := tim.PowerDownExitSlow(); got != 8*tim.TCK {
		t.Errorf("fallback PowerDownExitSlow = %v, want 8 TCK", got)
	}
	if got := tim.SelfRefreshSlowExit(); got != 200*tim.TCK {
		t.Errorf("fallback SelfRefreshSlowExit = %v, want 200 TCK", got)
	}
	// And never below the plain self-refresh exit.
	tim.TXSRD = tim.TXSNR / 2
	if got := tim.SelfRefreshSlowExit(); got != tim.TXSNR {
		t.Errorf("SelfRefreshSlowExit = %v, want clamped to TXSNR %v", got, tim.TXSNR)
	}
}

func TestTimingValidateRejectsPowerDownLatencies(t *testing.T) {
	tt := DDR2_667(64 * sim.Millisecond)
	tt.TXP = -sim.Nanosecond
	if err := tt.Validate(); err == nil {
		t.Error("negative TXP accepted")
	}
	tt = DDR2_667(64 * sim.Millisecond)
	tt.TXPDLL = tt.TXP / 2
	if err := tt.Validate(); err == nil {
		t.Error("TXPDLL < TXP accepted")
	}
	tt = DDR2_667(64 * sim.Millisecond)
	tt.TXSRD = tt.TXSNR / 2
	if err := tt.Validate(); err == nil {
		t.Error("TXSRD < TXSNR accepted")
	}
}
