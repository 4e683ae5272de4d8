package memctrl

import (
	"testing"
	"testing/quick"

	"smartrefresh/internal/config"
	"smartrefresh/internal/core"
	"smartrefresh/internal/dram"
	"smartrefresh/internal/sim"
)

// tinyConfig shrinks the Table 1 module so whole-interval tests are fast
// while preserving the structure (2 ranks, 4 banks).
func tinyConfig(interval sim.Duration) config.DRAM {
	c := config.Table1_2GB()
	c.Name = "tiny"
	c.Geometry.Rows = 64
	c.Geometry.Columns = 64
	c.Timing.RefreshInterval = interval
	c.Power.Geometry = c.Geometry
	c.Power.Timing = c.Timing
	return c
}

func TestControllerValidatesConfig(t *testing.T) {
	bad := tinyConfig(64 * sim.Millisecond)
	bad.Name = ""
	if _, err := New(bad, core.NewCBR(bad.Geometry, bad.Timing.RefreshInterval), Options{}); err == nil {
		t.Error("invalid config accepted")
	}
	good := tinyConfig(64 * sim.Millisecond)
	if _, err := New(good, nil, Options{}); err == nil {
		t.Error("nil policy accepted")
	}
	// A retention map of another row count is an error, not a panic.
	other := good.Geometry
	other.Rows *= 2
	rmap := core.NewRetentionMap(other, core.DefaultRetentionClasses(), 1)
	opts := Options{CheckRetention: true, RetentionMap: rmap}
	if _, err := New(good, core.NewCBR(good.Geometry, good.Timing.RefreshInterval), opts); err == nil {
		t.Error("retention map of another geometry accepted")
	}
}

func TestControllerCBRBaselineRate(t *testing.T) {
	cfg := tinyConfig(64 * sim.Millisecond)
	ctl := MustNew(cfg, core.NewCBR(cfg.Geometry, cfg.RefreshInterval()), Options{})
	end := sim.Time(2 * cfg.RefreshInterval())
	ctl.Finish(end)
	res := ctl.Results(end)
	// Two intervals of refresh at one op per row per interval (+1 for the
	// inclusive boundary slot).
	want := uint64(2*cfg.Geometry.TotalRows()) + 1
	if res.RefreshOps != want {
		t.Errorf("refresh ops = %d, want %d", res.RefreshOps, want)
	}
	if res.RefreshCBR != res.RefreshOps || res.RefreshRASOnly != 0 {
		t.Error("baseline issued non-CBR refreshes")
	}
}

func TestControllerCBRCoversAllRows(t *testing.T) {
	cfg := tinyConfig(64 * sim.Millisecond)
	ctl := MustNew(cfg, core.NewCBR(cfg.Geometry, cfg.RefreshInterval()), Options{CheckRetention: true})
	end := sim.Time(3 * cfg.RefreshInterval())
	ctl.Finish(end)
	if err := ctl.RetentionErr(); err != nil {
		t.Fatalf("CBR baseline violated retention: %v", err)
	}
}

func TestControllerSmartIdleRetention(t *testing.T) {
	cfg := tinyConfig(64 * sim.Millisecond)
	cfg.Smart.SelfDisable = false
	p := core.NewSmart(cfg.Geometry, cfg.RefreshInterval(), cfg.Smart)
	ctl := MustNew(cfg, p, Options{CheckRetention: true})
	end := sim.Time(3 * cfg.RefreshInterval())
	ctl.Finish(end)
	if err := ctl.RetentionErr(); err != nil {
		t.Fatalf("smart refresh violated retention on idle: %v", err)
	}
	res := ctl.Results(end)
	if res.RefreshRASOnly == 0 || res.RefreshCBR != 0 {
		t.Error("smart refresh should issue RAS-only refreshes")
	}
}

func TestControllerSmartBusyRetention(t *testing.T) {
	cfg := tinyConfig(64 * sim.Millisecond)
	cfg.Smart.SelfDisable = false
	p := core.NewSmart(cfg.Geometry, cfg.RefreshInterval(), cfg.Smart)
	ctl := MustNew(cfg, p, Options{CheckRetention: true})
	rng := sim.NewRNG(42)
	end := sim.Time(3 * cfg.RefreshInterval())
	var now sim.Time
	for now < end {
		ctl.Submit(Request{
			Time:  now,
			Addr:  rng.Uint64() % uint64(ctl.Mapper().Capacity()),
			Write: rng.Bool(0.3),
		})
		now += sim.Time(rng.Intn(int(200 * sim.Microsecond)))
	}
	ctl.Finish(end)
	if err := ctl.RetentionErr(); err != nil {
		t.Fatalf("smart refresh violated retention under traffic: %v", err)
	}
}

// TestControllerSmartReducesRefreshes is the core claim end-to-end: under
// traffic that re-touches rows every interval, Smart issues fewer refresh
// operations than CBR.
func TestControllerSmartReducesRefreshes(t *testing.T) {
	cfg := tinyConfig(64 * sim.Millisecond)
	cfg.Smart.SelfDisable = false
	run := func(p core.Policy) uint64 {
		ctl := MustNew(cfg, p, Options{})
		end := sim.Time(4 * cfg.RefreshInterval())
		// Touch half the address space cyclically, fast enough that each
		// touched row repeats every ~interval/2.
		half := uint64(ctl.Mapper().Capacity()) / 2
		step := uint64(cfg.Geometry.DataRowBytes()) // one line per row
		period := cfg.RefreshInterval() / 2
		n := half / step
		gap := sim.Duration(int64(period) / int64(n))
		var now sim.Time
		var addr uint64
		for now < end {
			ctl.Submit(Request{Time: now, Addr: addr % half})
			addr += step
			now += gap
		}
		ctl.Finish(end)
		return ctl.Results(end).RefreshOps
	}
	smart := run(core.NewSmart(cfg.Geometry, cfg.RefreshInterval(), cfg.Smart))
	cbr := run(core.NewCBR(cfg.Geometry, cfg.RefreshInterval()))
	reduction := 1 - float64(smart)/float64(cbr)
	if reduction < 0.35 || reduction > 0.65 {
		t.Errorf("refresh reduction %.3f, want ~0.5 (smart=%d cbr=%d)", reduction, smart, cbr)
	}
}

func TestControllerRefreshInterferenceStall(t *testing.T) {
	cfg := tinyConfig(64 * sim.Millisecond)
	// Burst policy refreshes everything at interval boundaries: demand
	// accesses right after a boundary must observe stall.
	ctl := MustNew(cfg, core.NewBurst(cfg.Geometry, cfg.RefreshInterval()), Options{})
	// Trigger the burst then immediately access.
	ctl.AdvanceTo(1)
	res := ctl.Submit(Request{Time: 2, Addr: 0})
	if res.Issue == 2 {
		t.Error("demand access did not stall behind burst refresh")
	}
	if ctl.Results(sim.Time(cfg.RefreshInterval())).DemandStall == 0 {
		t.Error("no demand stall recorded")
	}
}

func TestControllerOutOfOrderSubmitPanics(t *testing.T) {
	cfg := tinyConfig(64 * sim.Millisecond)
	ctl := MustNew(cfg, core.NewCBR(cfg.Geometry, cfg.RefreshInterval()), Options{})
	ctl.Submit(Request{Time: 1000, Addr: 0})
	defer func() {
		if recover() == nil {
			t.Error("out-of-order submit did not panic")
		}
	}()
	ctl.Submit(Request{Time: 999, Addr: 64})
}

func TestControllerResultsFields(t *testing.T) {
	cfg := tinyConfig(64 * sim.Millisecond)
	ctl := MustNew(cfg, core.NewCBR(cfg.Geometry, cfg.RefreshInterval()), Options{})
	ctl.Submit(Request{Time: 0, Addr: 0})
	ctl.Submit(Request{Time: sim.Microsecond, Addr: 8}) // same row: hit
	end := sim.Time(cfg.RefreshInterval())
	ctl.Finish(end)
	res := ctl.Results(end)
	if res.Requests != 2 {
		t.Errorf("requests = %d", res.Requests)
	}
	if res.RowHits != 1 {
		t.Errorf("row hits = %d", res.RowHits)
	}
	if res.AvgLatencyNS <= 0 {
		t.Error("no latency recorded")
	}
	if res.P50LatencyNS <= 0 || res.P99LatencyNS < res.P50LatencyNS {
		t.Errorf("latency quantiles inconsistent: p50=%v p99=%v",
			res.P50LatencyNS, res.P99LatencyNS)
	}
	if res.RefreshPerSecond <= 0 {
		t.Error("no refresh rate")
	}
	if res.Energy.Total() <= 0 {
		t.Error("no energy")
	}
	if res.Energy.RefreshRelated() <= 0 {
		t.Error("no refresh energy")
	}
}

// TestControllerRowHitNoRestore: a row-buffer hit must not extend the
// row's retention deadline (only activates and precharges restore cells).
func TestControllerRowHitNoRestore(t *testing.T) {
	cfg := tinyConfig(64 * sim.Millisecond)
	cfg.Smart.SelfDisable = false
	p := core.NewSmart(cfg.Geometry, cfg.RefreshInterval(), cfg.Smart)
	ctl := MustNew(cfg, p, Options{})
	ctl.Submit(Request{Time: 0, Addr: 0})
	resets := p.Stats().AccessResets
	ctl.Submit(Request{Time: 1000, Addr: 8}) // same row: hit
	if p.Stats().AccessResets != resets {
		t.Error("row hit reset the counter")
	}
}

// TestControllerSmartEquivalentCoverage (property): for random request
// streams, the set of retention-relevant events keeps every row inside
// its deadline under both CBR and Smart.
func TestControllerRetentionProperty(t *testing.T) {
	f := func(seed uint64, smartPolicy bool) bool {
		cfg := tinyConfig(32 * sim.Millisecond)
		cfg.Smart.SelfDisable = false
		var p core.Policy
		if smartPolicy {
			p = core.NewSmart(cfg.Geometry, cfg.RefreshInterval(), cfg.Smart)
		} else {
			p = core.NewCBR(cfg.Geometry, cfg.RefreshInterval())
		}
		ctl := MustNew(cfg, p, Options{CheckRetention: true})
		rng := sim.NewRNG(seed)
		end := sim.Time(3 * cfg.RefreshInterval())
		var now sim.Time
		for now < end {
			ctl.Submit(Request{
				Time:  now,
				Addr:  rng.Uint64() % uint64(ctl.Mapper().Capacity()),
				Write: rng.Bool(0.5),
			})
			now += sim.Time(rng.Intn(int(500 * sim.Microsecond)))
		}
		ctl.Finish(end)
		return ctl.RetentionErr() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// TestControllerRefreshKindsMatchPolicy: module-side refresh kind counts
// agree with what the policy requested.
func TestControllerRefreshKindsMatchPolicy(t *testing.T) {
	cfg := tinyConfig(64 * sim.Millisecond)
	cfg.Smart.SelfDisable = false
	p := core.NewSmart(cfg.Geometry, cfg.RefreshInterval(), cfg.Smart)
	ctl := MustNew(cfg, p, Options{})
	end := sim.Time(2 * cfg.RefreshInterval())
	ctl.Finish(end)
	res := ctl.Results(end)
	if res.RefreshOps != p.Stats().RefreshesRequested {
		t.Errorf("module executed %d refreshes, policy requested %d",
			res.RefreshOps, p.Stats().RefreshesRequested)
	}
	if res.Module.RefreshRASOnlyOps != res.RefreshOps {
		t.Error("smart refreshes not all RAS-only")
	}
}

func TestControllerAdvanceToBackwardsIsNoop(t *testing.T) {
	cfg := tinyConfig(64 * sim.Millisecond)
	ctl := MustNew(cfg, core.NewCBR(cfg.Geometry, cfg.RefreshInterval()), Options{})
	ctl.AdvanceTo(1 * sim.Millisecond)
	before := ctl.Results(sim.Millisecond).RefreshOps
	ctl.AdvanceTo(500 * sim.Microsecond) // backwards: ignored
	after := ctl.Results(sim.Millisecond).RefreshOps
	if before != after {
		t.Error("backwards AdvanceTo changed state")
	}
}

// TestControllerDifferentModulesIndependent sanity-checks that bank
// conflicts in one bank do not block refreshes in others (smoke test of
// time ordering between drainRefreshes and Submit).
func TestControllerInterleavedTrafficAndRefresh(t *testing.T) {
	cfg := tinyConfig(64 * sim.Millisecond)
	cfg.Smart.SelfDisable = false
	p := core.NewSmart(cfg.Geometry, cfg.RefreshInterval(), cfg.Smart)
	ctl := MustNew(cfg, p, Options{CheckRetention: true})
	// Hammer a single row (bank 0) continuously, faster than the
	// idle-close timeout so the page stays open; refreshes of other banks
	// must proceed.
	end := sim.Time(2 * cfg.RefreshInterval())
	var now sim.Time
	for now < end {
		ctl.Submit(Request{Time: now, Addr: 0})
		now += 500 * sim.Nanosecond
	}
	ctl.Finish(end)
	if err := ctl.RetentionErr(); err != nil {
		t.Fatalf("retention violated: %v", err)
	}
	if got := ctl.Results(end).Module.RowHits; got == 0 {
		t.Error("hammered row produced no row hits")
	}
}

func TestMustNewPanicsOnBadConfig(t *testing.T) {
	bad := tinyConfig(64 * sim.Millisecond)
	bad.Name = ""
	defer func() {
		if recover() == nil {
			t.Error("MustNew did not panic")
		}
	}()
	MustNew(bad, core.NewCBR(bad.Geometry, bad.Timing.RefreshInterval), Options{})
}

func TestRefreshRestoreClosedPageCounted(t *testing.T) {
	cfg := tinyConfig(64 * sim.Millisecond)
	cfg.Smart.SelfDisable = false
	p := core.NewSmart(cfg.Geometry, cfg.RefreshInterval(), cfg.Smart)
	ctl := MustNew(cfg, p, Options{})
	// Keep one page open by timing alone: a demand every microsecond
	// re-arms its bank's page-close deadline (DefaultIdleClose, 2 us)
	// before it fires, so every refresh of another row in that bank finds
	// the page open and must close it, which counts as a conflict refresh.
	end := sim.Time(cfg.RefreshInterval() / 4)
	for now := sim.Time(0); now < end; now += sim.Time(sim.Microsecond) {
		ctl.Submit(Request{Time: now, Addr: 0})
	}
	ctl.Finish(end)
	if ctl.Results(end).Module.RefreshConflictOps == 0 {
		t.Error("no conflict refresh recorded despite open page")
	}
	_ = dram.RowID{}
}

// Options.Interrupt is polled once per interruptCheckStride drained
// events, counted across calls: a Submit stream drains about one event
// per request, so polling on every call would poll on every request.
func TestInterruptPolledOncePerStride(t *testing.T) {
	cfg := tinyConfig(64 * sim.Millisecond)
	polls := 0
	ctl := MustNew(cfg, core.NewCBR(cfg.Geometry, cfg.RefreshInterval()), Options{
		Interrupt: func() bool { polls++; return false },
	})
	const requests = 100000
	now := sim.Time(0)
	for i := 0; i < requests; i++ {
		ctl.Submit(Request{Time: now, Addr: uint64(i) * 4096 % uint64(ctl.Mapper().Capacity())})
		now += 20 * sim.Nanosecond
	}
	// Every Submit drains at least one event (the check that finds
	// nothing due), plus the refresh ticks and page-closes of 2 ms.
	if max := requests/interruptCheckStride + 10; polls == 0 || polls > max {
		t.Errorf("%d Submits polled Interrupt %d times, want 1..%d", requests, polls, max)
	}
}

// A cancelled AdvanceTo over a long idle window stops within one poll
// stride of drained events instead of running the window out.
func TestInterruptStopsLongAdvanceWithinStride(t *testing.T) {
	cfg := tinyConfig(64 * sim.Millisecond)
	cancelled := false
	ctl := MustNew(cfg, core.NewCBR(cfg.Geometry, cfg.RefreshInterval()), Options{
		Interrupt: func() bool { return cancelled },
	})
	ctl.AdvanceTo(sim.Time(sim.Millisecond))
	before := ctl.Module().Stats().RefreshOps
	cancelled = true
	// Ten seconds of CBR ticks on this module is tens of thousands of
	// refreshes.
	ctl.AdvanceTo(sim.Time(10 * sim.Second))
	if n := ctl.Module().Stats().RefreshOps - before; n > interruptCheckStride {
		t.Errorf("cancelled AdvanceTo ran %d refreshes, want at most one stride (%d)", n, interruptCheckStride)
	}
}
