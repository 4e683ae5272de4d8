package memctrl

import (
	"testing"

	"smartrefresh/internal/core"
	"smartrefresh/internal/sim"
)

func srOptions() Options {
	return Options{
		CheckRetention:   true,
		RetentionSlack:   64 * sim.Millisecond, // entry/exit transition bound
		SelfRefreshAfter: 500 * sim.Microsecond,
	}
}

func TestSelfRefreshEntryOnIdle(t *testing.T) {
	cfg := tinyConfig(64 * sim.Millisecond)
	ctl := MustNew(cfg, core.NewCBR(cfg.Geometry, cfg.RefreshInterval()), srOptions())
	// No demand at all: every rank enters self-refresh after the
	// threshold and stays there.
	end := sim.Time(2 * cfg.RefreshInterval())
	ctl.Finish(end)
	st := ctl.SelfRefreshStats(end)
	if st.Entries != uint64(cfg.Geometry.Channels*cfg.Geometry.Ranks) {
		t.Errorf("entries = %d, want one per rank", st.Entries)
	}
	if st.ResidencyPct < 95 {
		t.Errorf("self-refresh residency %.1f%%, want ~100%% on idle", st.ResidencyPct)
	}
	if err := ctl.RetentionErr(); err != nil {
		t.Fatalf("retention: %v", err)
	}
	// Controller-issued refreshes mostly elided.
	res := ctl.Results(end)
	if res.RefreshOps > uint64(cfg.Geometry.TotalRows()) {
		t.Errorf("refresh ops %d despite self-refresh", res.RefreshOps)
	}
	if ctl.refreshesDroppedSR == 0 {
		t.Error("no refreshes dropped for sleeping ranks")
	}
}

func TestSelfRefreshExitOnDemand(t *testing.T) {
	cfg := tinyConfig(64 * sim.Millisecond)
	ctl := MustNew(cfg, core.NewCBR(cfg.Geometry, cfg.RefreshInterval()), srOptions())
	// Idle long enough to sleep, then access.
	wake := sim.Time(5 * sim.Millisecond)
	ctl.AdvanceTo(wake - sim.Microsecond)
	res := ctl.Submit(Request{Time: wake, Addr: 0})
	// The access pays the exit latency.
	if res.Issue < wake+cfg.Timing.TXSNR {
		t.Errorf("post-wake access issued at %v, want >= %v", res.Issue, wake+cfg.Timing.TXSNR)
	}
	end := wake + sim.Time(cfg.RefreshInterval())
	ctl.Finish(end)
	if err := ctl.RetentionErr(); err != nil {
		t.Fatalf("retention: %v", err)
	}
}

func TestSelfRefreshReEntryCycle(t *testing.T) {
	cfg := tinyConfig(64 * sim.Millisecond)
	ctl := MustNew(cfg, core.NewCBR(cfg.Geometry, cfg.RefreshInterval()), srOptions())
	// Bursts separated by long idle: the rank sleeps and wakes repeatedly.
	var now sim.Time
	for burst := 0; burst < 4; burst++ {
		for i := 0; i < 5; i++ {
			ctl.Submit(Request{Time: now, Addr: uint64(i) * 64})
			now += 200 * sim.Nanosecond
		}
		now += 2 * sim.Millisecond
	}
	ctl.Finish(now)
	st := ctl.SelfRefreshStats(now)
	if st.Entries < 3 {
		t.Errorf("entries = %d, want several sleep/wake cycles", st.Entries)
	}
	if err := ctl.RetentionErr(); err != nil {
		t.Fatalf("retention: %v", err)
	}
}

func TestSelfRefreshSavesIdleEnergy(t *testing.T) {
	cfg := tinyConfig(64 * sim.Millisecond)
	end := sim.Time(2 * cfg.RefreshInterval())
	run := func(opts Options) float64 {
		ctl := MustNew(cfg, core.NewCBR(cfg.Geometry, cfg.RefreshInterval()), opts)
		ctl.Finish(end)
		return float64(ctl.Results(end).Energy.Total())
	}
	withSR := run(Options{SelfRefreshAfter: 500 * sim.Microsecond})
	withoutSR := run(Options{})
	if withSR >= withoutSR {
		t.Errorf("self-refresh did not save idle energy: %v >= %v", withSR, withoutSR)
	}
	// The saving is substantial: IDD6 (6 mA) vs the powerdown mix plus
	// controller refreshes.
	if withSR > 0.5*withoutSR {
		t.Errorf("self-refresh idle saving too small: %.3g vs %.3g", withSR, withoutSR)
	}
}

func TestSelfRefreshWithSmartPolicy(t *testing.T) {
	cfg := tinyConfig(64 * sim.Millisecond)
	cfg.Smart.SelfDisable = false
	p := core.NewSmart(cfg.Geometry, cfg.RefreshInterval(), cfg.Smart)
	ctl := MustNew(cfg, p, srOptions())
	rng := sim.NewRNG(5)
	var now sim.Time
	end := sim.Time(3 * cfg.RefreshInterval())
	// Sporadic traffic with sleeps in between.
	for now < end {
		ctl.Submit(Request{Time: now, Addr: rng.Uint64() % uint64(ctl.Mapper().Capacity())})
		now += sim.Time(rng.Intn(int(3 * sim.Millisecond)))
	}
	ctl.Finish(end)
	if err := ctl.RetentionErr(); err != nil {
		t.Fatalf("retention with smart+SR: %v", err)
	}
}

func TestSelfRefreshValidation(t *testing.T) {
	cfg := tinyConfig(64 * sim.Millisecond)
	_, err := New(cfg, core.NewCBR(cfg.Geometry, cfg.RefreshInterval()), Options{
		SelfRefreshAfter: DefaultIdleClose,
	})
	if err == nil {
		t.Error("SelfRefreshAfter below page-close timeout accepted")
	}
}

func TestSelfRefreshLongResidencyRetention(t *testing.T) {
	// A rank asleep for many refresh intervals is kept fresh by the
	// module's internal engine; the checker must not flag the residency.
	// (Before residency coverage this produced phantom violations as soon
	// as the sleep outlasted the checked deadline plus slack.)
	cfg := tinyConfig(4 * sim.Millisecond)
	opts := Options{
		CheckRetention:   true,
		RetentionSlack:   8 * sim.Millisecond, // two-interval transition bound
		SelfRefreshAfter: 500 * sim.Microsecond,
	}
	ctl := MustNew(cfg, core.NewCBR(cfg.Geometry, cfg.RefreshInterval()), opts)
	// Sleep for 10 intervals, then wake with one access and finish.
	wake := sim.Time(10 * cfg.RefreshInterval())
	ctl.Submit(Request{Time: wake, Addr: 0})
	end := wake + sim.Time(cfg.RefreshInterval())
	ctl.Finish(end)
	if err := ctl.RetentionErr(); err != nil {
		t.Fatalf("retention after long exit: %v", err)
	}

	// And a rank that never wakes: finish mid-residency.
	ctl2 := MustNew(cfg, core.NewCBR(cfg.Geometry, cfg.RefreshInterval()), opts)
	end2 := sim.Time(10 * cfg.RefreshInterval())
	ctl2.Finish(end2)
	if err := ctl2.RetentionErr(); err != nil {
		t.Fatalf("retention asleep at end of run: %v", err)
	}
	if got := ctl2.SelfRefreshStats(end2); got.ResidencyPct < 95 {
		t.Errorf("residency %.1f%%, want ~100%%", got.ResidencyPct)
	}
}

func TestSelfRefreshDisabledByDefault(t *testing.T) {
	cfg := tinyConfig(64 * sim.Millisecond)
	ctl := MustNew(cfg, core.NewCBR(cfg.Geometry, cfg.RefreshInterval()), Options{})
	end := sim.Time(cfg.RefreshInterval())
	ctl.Finish(end)
	if ctl.SelfRefreshStats(end).Entries != 0 {
		t.Error("self-refresh engaged without arming")
	}
}
