package core

import (
	"testing"
	"testing/quick"

	"smartrefresh/internal/dram"
	"smartrefresh/internal/sim"
)

// smallGeom is a tractable geometry for exhaustive policy tests.
func smallGeom() dram.Geometry {
	return dram.Geometry{
		Channels: 1, Ranks: 1, Banks: 2, Rows: 32, Columns: 16,
		DataWidthBits: 72, BurstLength: 4, DevicesPerRank: 2,
	}
}

// paperGeom2GB is the Table 1 geometry.
func paperGeom2GB() dram.Geometry {
	return dram.Geometry{
		Channels: 1, Ranks: 2, Banks: 4, Rows: 16384, Columns: 2048,
		DataWidthBits: 72, BurstLength: 4, DevicesPerRank: 18,
	}
}

const testInterval = 64 * sim.Millisecond

func smartNoDisable() SmartConfig {
	cfg := DefaultSmartConfig()
	cfg.SelfDisable = false
	return cfg
}

func TestSmartConfigValidate(t *testing.T) {
	if err := DefaultSmartConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultSmartConfig()
	bad.CounterBits = 0
	if bad.Validate() == nil {
		t.Error("0-bit counters accepted")
	}
	bad = DefaultSmartConfig()
	bad.QueueDepth = 4 // < segments
	if bad.Validate() == nil {
		t.Error("queue shallower than segments accepted")
	}
	bad = DefaultSmartConfig()
	bad.EnableAbove = bad.DisableBelow
	if bad.Validate() == nil {
		t.Error("enable <= disable threshold accepted")
	}
}

func TestSmartPeriods(t *testing.T) {
	s := NewSmart(paperGeom2GB(), testInterval, DefaultSmartConfig())
	// Section 4.2: counter access period = interval / 2^bits = 8 ms.
	if got := s.CounterAccessPeriod(); got != 8*sim.Millisecond {
		t.Errorf("counter access period = %v, want 8ms", got)
	}
	// 131072 rows / 8 segments = 16384 rows per segment; ticks every
	// 8ms/16384 = 488.28125 ns (488281 ps with integer division).
	if got := s.TickPeriod(); got != 8*sim.Millisecond/16384 {
		t.Errorf("tick period = %v", got)
	}
}

// TestSmartNoAccessRate checks that with no demand traffic Smart Refresh
// degenerates to the baseline rate: every row refreshed exactly once per
// interval (steady state).
func TestSmartNoAccessRate(t *testing.T) {
	g := smallGeom()
	s := NewSmart(g, testInterval, smartNoDisable())
	// Warm up one full interval (the staggered seed refreshes some rows
	// early), then measure two intervals.
	var cmds []Command
	cmds = s.Advance(testInterval, cmds[:0])
	before := s.Stats().RefreshesRequested
	cmds = s.Advance(3*testInterval, cmds[:0])
	got := s.Stats().RefreshesRequested - before
	want := uint64(2 * g.TotalRows())
	if got != want {
		t.Errorf("steady-state refreshes over 2 intervals = %d, want %d", got, want)
	}
	_ = cmds
}

// TestSmartBestCase reproduces Figure 1: if every row is accessed right
// before it would be refreshed, no periodic refresh is needed at all.
func TestSmartBestCase(t *testing.T) {
	g := smallGeom()
	s := NewSmart(g, testInterval, smartNoDisable())
	var cmds []Command
	// Touch every row every half counter access period; counters never
	// reach zero after warmup.
	step := s.CounterAccessPeriod() / 2
	var now sim.Time
	// Warm up past the seeded stagger.
	for now < testInterval {
		for flat := 0; flat < g.TotalRows(); flat++ {
			s.OnRowRestore(now, dram.RowFromFlat(&g, flat))
		}
		cmds = s.Advance(now+step, cmds[:0])
		now += step
	}
	before := s.Stats().RefreshesRequested
	for now < 3*testInterval {
		for flat := 0; flat < g.TotalRows(); flat++ {
			s.OnRowRestore(now, dram.RowFromFlat(&g, flat))
		}
		cmds = s.Advance(now+step, cmds[:0])
		now += step
	}
	if got := s.Stats().RefreshesRequested - before; got != 0 {
		t.Errorf("best-case pattern still issued %d refreshes", got)
	}
}

// TestSmartStaggerSpreadsRefreshes checks the figure 3 property: the
// staggered seed and per-segment offset keep per-tick refresh bursts far
// below the segment count.
func TestSmartStaggerSpreadsRefreshes(t *testing.T) {
	g := smallGeom() // 64 rows, 8 segments, 8 rows/segment
	s := NewSmart(g, testInterval, smartNoDisable())
	var cmds []Command
	s.Advance(2*testInterval, cmds)
	st := s.Stats()
	// With segments == 2^bits the seed places exactly one zero among the
	// counters indexed at each tick.
	if st.MaxPendingPerTick > 2 {
		t.Errorf("MaxPendingPerTick = %d, want <= 2 with staggered seed", st.MaxPendingPerTick)
	}
}

// TestSmartQueueBound checks the section 5 argument: a tick can never
// produce more requests than segments, even under adversarial traffic.
func TestSmartQueueBound(t *testing.T) {
	g := smallGeom()
	cfg := smartNoDisable()
	s := NewSmart(g, testInterval, cfg)
	rng := sim.NewRNG(99)
	var cmds []Command
	var now sim.Time
	for now < 4*testInterval {
		// Random accesses try to align counters.
		for i := 0; i < 8; i++ {
			s.OnRowRestore(now, dram.RowFromFlat(&g, rng.Intn(g.TotalRows())))
		}
		now += sim.Time(rng.Intn(int(s.TickPeriod()) * 3))
		cmds = s.Advance(now, cmds[:0])
	}
	if st := s.Stats(); st.MaxPendingPerTick > cfg.Segments {
		t.Errorf("MaxPendingPerTick = %d > segments %d", st.MaxPendingPerTick, cfg.Segments)
	}
}

// TestSmartCounterResetOnAccess checks section 4.1 semantics directly.
func TestSmartCounterResetOnAccess(t *testing.T) {
	g := smallGeom()
	s := NewSmart(g, testInterval, smartNoDisable())
	row := dram.RowID{Channel: 0, Rank: 0, Bank: 1, Row: 5}
	// Let some countdown happen first.
	var cmds []Command
	s.Advance(s.CounterAccessPeriod()*3, cmds)
	s.OnRowRestore(s.CounterAccessPeriod()*3, row)
	if got := s.CounterValue(row); got != 7 {
		t.Errorf("counter after access = %d, want max (7)", got)
	}
	if s.Stats().AccessResets != 1 {
		t.Errorf("AccessResets = %d", s.Stats().AccessResets)
	}
}

// TestSmartDelaysRefreshAfterAccess: a row accessed at time t is not
// refreshed again before t + (1-2^-bits)*interval and no later than
// t + interval (sections 4.3, 4.4).
func TestSmartDelaysRefreshAfterAccess(t *testing.T) {
	g := smallGeom()
	s := NewSmart(g, testInterval, smartNoDisable())
	row := dram.RowID{Channel: 0, Rank: 0, Bank: 0, Row: 3}
	var cmds []Command

	// Warm up, then access the row at a known time.
	warm := 2 * testInterval
	cmds = s.Advance(warm, cmds[:0])
	access := warm + 12345*sim.Nanosecond
	cmds = s.Advance(access, cmds[:0])
	s.OnRowRestore(access, row)

	// Find the next refresh of that row.
	var refreshAt sim.Time
	step := s.CounterAccessPeriod() / 4
	for now := access; now < access+2*testInterval; now += step {
		cmds = s.Advance(now, cmds[:0])
		for _, c := range cmds {
			if c.Row == row.Row && c.Bank == row.BankOf().Flat(&g) {
				refreshAt = now
			}
		}
		if refreshAt != 0 {
			break
		}
	}
	if refreshAt == 0 {
		t.Fatal("row never refreshed after access")
	}
	gap := refreshAt - access
	minGap := testInterval * 7 / 8 // 3-bit optimality: 87.5%
	// The scan quantises the observed refresh time up to one step.
	if gap < minGap-step || gap > testInterval+step {
		t.Errorf("refresh gap after access = %v, want in [%v, %v]", gap, minGap, testInterval)
	}
}

// runSmartLoop drives a policy with a random access pattern and instant
// refreshes, feeding a retention checker. It is event-driven: refreshes
// are recorded at their actual tick times, not at scan points. Returns
// the checker.
func runSmartLoop(t *testing.T, g dram.Geometry, p Policy, seed uint64, length sim.Duration,
	deadline sim.Duration, accessEvery sim.Duration) *RetentionChecker {
	t.Helper()
	chk := NewRetentionChecker(g, deadline, 0)
	rng := sim.NewRNG(seed)
	var cmds []Command
	end := sim.Time(length)
	nextAccess := sim.Time(rng.Int63n(int64(accessEvery)))
	now := sim.Time(0)
	for now < end {
		pt, ok := p.NextTick()
		if ok && pt <= nextAccess && pt <= end {
			now = sim.Max(now, pt)
			cmds = p.Advance(pt, cmds[:0])
			for _, c := range cmds {
				if c.Row < 0 {
					t.Fatal("CBR command from smart-mode policy in this harness")
				}
				chk.OnRestore(pt, c.RowID(&g))
			}
			continue
		}
		if nextAccess > end {
			break
		}
		now = nextAccess
		row := dram.RowFromFlat(&g, rng.Intn(g.TotalRows()))
		p.OnRowRestore(now, row)
		chk.OnRestore(now, row)
		nextAccess = now + 1 + sim.Time(rng.Int63n(int64(accessEvery)))
	}
	chk.CheckEnd(now)
	return chk
}

// TestSmartCorrectnessProperty is the section 4.3 theorem as a property
// test: for arbitrary access patterns every row is restored within the
// retention deadline.
func TestSmartCorrectnessProperty(t *testing.T) {
	g := smallGeom()
	f := func(seed uint64, hot bool) bool {
		s := NewSmart(g, testInterval, smartNoDisable())
		accessEvery := 3 * sim.Millisecond
		if !hot {
			accessEvery = 40 * sim.Millisecond
		}
		chk := runSmartLoop(t, g, s, seed, 6*testInterval, testInterval, accessEvery)
		return chk.Violations() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestSmartCorrectnessTwoBit repeats the property with the paper's 2-bit
// illustration configuration.
func TestSmartCorrectnessTwoBit(t *testing.T) {
	g := smallGeom()
	cfg := smartNoDisable()
	cfg.CounterBits = 2
	s := NewSmart(g, testInterval, cfg)
	chk := runSmartLoop(t, g, s, 1234, 8*testInterval, testInterval, 5*sim.Millisecond)
	if err := chk.Err(); err != nil {
		t.Error(err)
	}
}

// TestSmartOptimalityBound: unaccessed rows are refreshed no earlier than
// (1-2^-bits) of the interval after their previous refresh (section 4.4).
func TestSmartOptimalityBound(t *testing.T) {
	g := smallGeom()
	for _, bits := range []int{2, 3, 4} {
		cfg := smartNoDisable()
		cfg.CounterBits = bits
		s := NewSmart(g, testInterval, cfg)
		last := make(map[dram.RowID]sim.Time)
		var minGap sim.Duration = 1 << 62
		var cmds []Command
		step := testInterval / 256
		for now := sim.Time(0); now < 5*testInterval; now += step {
			cmds = s.Advance(now, cmds[:0])
			for _, c := range cmds {
				id := c.RowID(&g)
				if prev, ok := last[id]; ok && prev > testInterval {
					// Ignore the seeded warmup interval.
					if gap := now - prev; gap < minGap {
						minGap = gap
					}
				}
				last[id] = now
			}
		}
		bound := sim.Duration(float64(testInterval) * Optimality(bits))
		// step quantisation slack.
		if minGap < bound-2*step {
			t.Errorf("bits=%d: min refresh gap %v below optimality bound %v", bits, minGap, bound)
		}
		if minGap > testInterval {
			t.Errorf("bits=%d: min refresh gap %v above interval", bits, minGap)
		}
	}
}

func TestSmartSelfDisableOnIdle(t *testing.T) {
	g := smallGeom()
	cfg := DefaultSmartConfig()
	s := NewSmart(g, testInterval, cfg)
	var cmds []Command
	// No accesses at all: density 0 < 1% after the first window.
	cmds = s.Advance(3*testInterval, cmds[:0])
	if !s.Disabled() {
		t.Fatal("policy did not self-disable on idle traffic")
	}
	st := s.Stats()
	if st.DisableSwitches != 1 {
		t.Errorf("DisableSwitches = %d", st.DisableSwitches)
	}
	// While disabled, CBR refreshes continue at the baseline rate.
	before := s.Stats().RefreshesRequested
	cmds = s.Advance(5*testInterval, cmds[:0])
	got := s.Stats().RefreshesRequested - before
	want := uint64(2 * g.TotalRows())
	if got != want {
		t.Errorf("disabled-mode refreshes over 2 intervals = %d, want %d", got, want)
	}
	// Disabled mode issues CBR commands (no explicit rows).
	for _, c := range cmds {
		if c.Kind != dram.RefreshCBR || c.Row != -1 {
			t.Fatalf("disabled-mode command %+v is not CBR", c)
		}
	}
}

// TestSmartDisabledDeltaSnapshotSafe is the regression test for the
// disabled-mode accounting fix: RefreshesRequested must equal the number
// of commands actually emitted, even when the CBR delegate is Reset
// mid-window (each disable switch re-phases the delegate, zeroing its
// cumulative stats). Differencing the delegate's cumulative counter
// against a stale snapshot underflows across such a reset; the
// append-count delta cannot.
func TestSmartDisabledDeltaSnapshotSafe(t *testing.T) {
	g := smallGeom()
	cfg := DefaultSmartConfig()
	s := NewSmart(g, testInterval, cfg)

	var emitted uint64
	var cmds []Command
	advance := func(to sim.Time) {
		cmds = s.Advance(to, cmds[:0])
		emitted += uint64(len(cmds))
	}

	// Window 1 idle: disable at the first boundary, then run the delegate
	// partway into window 2.
	advance(testInterval + testInterval/2)
	if !s.Disabled() {
		t.Fatal("precondition: not disabled")
	}
	// Delegate reset mid-window, as the disable switch performs: the
	// delegate's cumulative stats drop to zero while the policy's do not.
	s.cbr.Reset(testInterval + testInterval/2)
	advance(2 * testInterval)

	// Hot accesses in window 3 re-enable Smart at 3*interval; window 4 is
	// idle, so a second disable (with its delegate reset) happens inside
	// the same Advance call that then keeps draining CBR commands.
	now := 2 * testInterval
	for i := 0; i < g.TotalRows(); i++ {
		s.OnRowRestore(now, dram.RowFromFlat(&g, i))
	}
	advance(4 * testInterval)
	st := s.Stats()
	if st.EnableSwitches != 1 || st.DisableSwitches != 2 {
		t.Fatalf("switches enable=%d disable=%d, want 1/2", st.EnableSwitches, st.DisableSwitches)
	}

	if st.RefreshesRequested != emitted {
		t.Fatalf("RefreshesRequested = %d, emitted commands = %d", st.RefreshesRequested, emitted)
	}
	if st.RefreshesRequested > uint64(100*g.TotalRows()) {
		t.Fatalf("RefreshesRequested = %d looks underflowed", st.RefreshesRequested)
	}
}

func TestSmartReEnableOnHotTraffic(t *testing.T) {
	g := smallGeom()
	cfg := DefaultSmartConfig()
	s := NewSmart(g, testInterval, cfg)
	var cmds []Command
	cmds = s.Advance(3*testInterval, cmds[:0])
	if !s.Disabled() {
		t.Fatal("precondition: not disabled")
	}
	// Now hammer the DRAM: density far above 2%.
	now := 3 * testInterval
	for w := 0; w < 2; w++ {
		for i := 0; i < g.TotalRows(); i++ {
			s.OnRowRestore(now, dram.RowFromFlat(&g, i%g.TotalRows()))
		}
		now += testInterval
		cmds = s.Advance(now, cmds[:0])
	}
	if s.Disabled() {
		t.Fatal("policy did not re-enable under hot traffic")
	}
	st := s.Stats()
	if st.EnableSwitches != 1 {
		t.Errorf("EnableSwitches = %d", st.EnableSwitches)
	}
	if st.TimeDisabled == 0 {
		t.Error("TimeDisabled not accumulated")
	}
}

// TestSmartDisableHysteresis: densities between the thresholds change
// nothing in either direction.
func TestSmartDisableHysteresis(t *testing.T) {
	g := smallGeom()
	cfg := DefaultSmartConfig()
	s := NewSmart(g, testInterval, cfg)
	var cmds []Command
	// Density 1.5%: above disable threshold, so it must stay enabled.
	perWindow := int(0.015 * float64(g.TotalRows()))
	if perWindow == 0 {
		perWindow = 1
	}
	now := sim.Time(0)
	for w := 0; w < 4; w++ {
		for i := 0; i < perWindow; i++ {
			s.OnRowRestore(now, dram.RowFromFlat(&g, i))
		}
		now += testInterval
		cmds = s.Advance(now, cmds[:0])
	}
	if s.Disabled() {
		t.Error("policy disabled at 1.5% density (threshold is 1%)")
	}
	_ = cmds
}

// TestSmartDisabledNextTickTieBreak pins the disabled-mode event schedule:
// NextTick is the earlier of the CBR delegate's slot and the access-density
// window boundary, and the last slot of a window lands exactly ON the
// boundary (TotalRows slots divide the interval evenly). That tie must
// resolve to one event that advances both the slot walk and the window
// evaluation — a stalled loop (NextTick not advancing) or a skipped slot
// here would either hang the controller's event loop or silently drop a
// refresh.
func TestSmartDisabledNextTickTieBreak(t *testing.T) {
	g := smallGeom()
	s := NewSmart(g, testInterval, DefaultSmartConfig())
	var cmds []Command
	cmds = s.Advance(testInterval, cmds[:0])
	if !s.Disabled() {
		t.Fatal("precondition: not disabled after an idle interval")
	}

	// The hand-off Advance already consumed the delegate's slot 0 at the
	// disable boundary itself, so the next event is one slot later.
	boundary := sim.Time(testInterval)
	slot := sim.Time(testInterval) / sim.Time(g.TotalRows())
	if next, ok := s.NextTick(); !ok || next != boundary+slot {
		t.Fatalf("NextTick after disable = %v,%v, want %v", next, ok, boundary+slot)
	}

	// Drive the event loop across one full disabled window, checking every
	// event lands on the slot grid and the loop always makes progress.
	prev := boundary
	steps := 0
	windowEnd := boundary + sim.Time(testInterval)
	for {
		next, ok := s.NextTick()
		if !ok {
			t.Fatal("NextTick reported no event while disabled")
		}
		if next <= prev {
			t.Fatalf("event loop stalled: NextTick %v after %v", next, prev)
		}
		if next > windowEnd {
			break
		}
		if want := boundary + sim.Time(steps+1)*slot; next != want {
			t.Fatalf("event %d at %v, want %v", steps, next, want)
		}
		cmds = s.Advance(next, cmds[:0])
		prev = next
		steps++
		if steps > g.TotalRows() {
			t.Fatal("more events than slots in one window")
		}
	}
	// Slots 1..TotalRows; the final one coincides with the window boundary
	// and is consumed together with the window evaluation.
	if steps != g.TotalRows() {
		t.Errorf("events in one disabled window = %d, want %d", steps, g.TotalRows())
	}
	if !s.Disabled() {
		t.Error("idle window re-enabled the policy")
	}
}

// TestSmartModeSwitchAcrossMultipleWindows drives several access-density
// windows — including both transitions — through one Advance call: the
// window evaluation must process each boundary in order with that window's
// own access count (no leakage between windows), the re-enable sweep must
// refresh every row, and the disabled-time accounting must sum the two
// disjoint disabled spans.
func TestSmartModeSwitchAcrossMultipleWindows(t *testing.T) {
	g := smallGeom()
	s := NewSmart(g, testInterval, DefaultSmartConfig())
	var cmds []Command
	// Window [0, i): idle, disables at the boundary.
	cmds = s.Advance(testInterval, cmds[:0])
	if !s.Disabled() || s.Stats().DisableSwitches != 1 {
		t.Fatalf("precondition: %+v not disabled after an idle interval", s.Stats())
	}

	// Hot traffic in window [i, 2i): density 1.0, far above EnableAbove.
	for flat := 0; flat < g.TotalRows(); flat++ {
		s.OnRowRestore(testInterval+sim.Time(flat), dram.RowFromFlat(&g, flat))
	}
	// One Advance over three more windows: re-enable at 2i (hot window),
	// full counter-zeroing sweep during [2i, 3i), idle density disables
	// again at 3i, and the 4i boundary is evaluated still-disabled.
	cmds = s.Advance(4*testInterval, cmds[:0])

	st := s.Stats()
	if !s.Disabled() {
		t.Error("idle windows after the hot one did not re-disable")
	}
	if st.DisableSwitches != 2 || st.EnableSwitches != 1 {
		t.Errorf("switches = %d disable / %d enable, want 2/1", st.DisableSwitches, st.EnableSwitches)
	}
	// Disabled spans [i, 2i) and [3i, 4i): exactly two intervals.
	if st.TimeDisabled != 2*testInterval {
		t.Errorf("TimeDisabled = %v, want %v", st.TimeDisabled, 2*testInterval)
	}
	// The conservative re-enable zeroed every counter: the sweep must have
	// refreshed every row of the module within the enabled window.
	swept := map[dram.RowID]bool{}
	for _, c := range cmds {
		if c.Kind == dram.RefreshRASOnly && c.Row >= 0 {
			swept[c.RowID(&g)] = true
		}
	}
	if len(swept) != g.TotalRows() {
		t.Errorf("re-enable sweep covered %d rows, want %d", len(swept), g.TotalRows())
	}
}

// TestSmartCorrectnessWithDisable: with the self-disable circuitry active,
// the restore gap across mode-switch transitions is bounded by twice the
// interval (the controller cannot observe the module-internal CBR counter
// phase when it hands refresh over at the disable transition; DRAM
// retention margin covers this, and the paper leaves the transition
// unspecified). Within a mode the usual single-interval bound holds.
func TestSmartCorrectnessWithDisable(t *testing.T) {
	g := smallGeom()
	cfg := DefaultSmartConfig()
	s := NewSmart(g, testInterval, cfg)
	// Per-bank emulation of the module's internal CBR counters.
	cbrState := map[int]int{}
	cbrEmu := func(b int) dram.RowID {
		r := cbrState[b]
		cbrState[b] = (r + 1) % g.Rows
		return dram.RowInBank(&g, b, r)
	}
	chk := NewRetentionChecker(g, 2*testInterval, 0)
	var cmds []Command
	rng := sim.NewRNG(7)
	var now sim.Time
	phaseHot := true
	nextPhase := 2 * testInterval
	for now < 12*testInterval {
		cmds = s.Advance(now, cmds[:0])
		for _, c := range cmds {
			if c.Row >= 0 {
				chk.OnRestore(now, c.RowID(&g))
			} else {
				chk.OnRestore(now, cbrEmu(c.Bank))
			}
		}
		if phaseHot {
			for i := 0; i < 4; i++ {
				row := dram.RowFromFlat(&g, rng.Intn(g.TotalRows()))
				s.OnRowRestore(now, row)
				chk.OnRestore(now, row)
			}
			now += 500 * sim.Microsecond
		} else {
			now += 4 * sim.Millisecond
		}
		if now >= nextPhase {
			phaseHot = !phaseHot
			nextPhase += 2 * testInterval
		}
	}
	chk.CheckEnd(now)
	if err := chk.Err(); err != nil {
		t.Error(err)
	}
	if s.Stats().DisableSwitches == 0 || s.Stats().EnableSwitches == 0 {
		t.Errorf("test did not exercise both transitions: %+v", s.Stats())
	}
}

func TestSmartResetRestoresInitialState(t *testing.T) {
	g := smallGeom()
	s := NewSmart(g, testInterval, smartNoDisable())
	var cmds []Command
	cmds = s.Advance(testInterval/2, cmds[:0])
	n1 := len(cmds)
	s.Reset(0)
	cmds = s.Advance(testInterval/2, cmds[:0])
	if len(cmds) != n1 {
		t.Errorf("post-reset behaviour differs: %d vs %d commands", len(cmds), n1)
	}
	if s.Stats().RefreshesRequested != uint64(n1) {
		t.Error("stats not reset")
	}
}

func TestSmartPanicsOnIndivisibleSegments(t *testing.T) {
	g := smallGeom()
	cfg := smartNoDisable()
	cfg.Segments = 7
	cfg.QueueDepth = 7
	defer func() {
		if recover() == nil {
			t.Error("indivisible segment count did not panic")
		}
	}()
	NewSmart(g, testInterval, cfg)
}

func TestSmartCounterEnergyAccounting(t *testing.T) {
	g := smallGeom()
	s := NewSmart(g, testInterval, smartNoDisable())
	var cmds []Command
	s.Advance(testInterval-1, cmds)
	st := s.Stats()
	// One interval indexes every counter 2^bits times: reads = total
	// indexings, writes = decrements + refresh resets = same count.
	wantReads := uint64(g.TotalRows()) * 8
	if st.CounterReads != wantReads {
		t.Errorf("CounterReads = %d, want %d", st.CounterReads, wantReads)
	}
	if st.CounterWrites != wantReads {
		t.Errorf("CounterWrites = %d, want %d (every indexing writes)", st.CounterWrites, wantReads)
	}
}
