// Steady-state allocation budget of the hot paths: once buffers have
// grown to their working size, policy Advance and controller Submit must
// not allocate. testing.AllocsPerRun is exact and machine-independent, so
// these tests pin the budget in tier-1 CI; cmd/benchdiff gates the
// coarser -benchmem numbers against the committed baseline.
package smartrefresh_test

import (
	"math"
	"runtime"
	"testing"

	"smartrefresh"
	"smartrefresh/internal/cache"
	"smartrefresh/internal/config"
	"smartrefresh/internal/sim"
	"smartrefresh/internal/workload"
)

// warmPolicy drives a policy long enough for its internal buffers (and
// the caller's command buffer) to reach steady-state capacity.
func warmPolicy(p smartrefresh.Policy, step smartrefresh.Duration, ticks int) (smartrefresh.Time, []smartrefresh.RefreshCommand) {
	var now smartrefresh.Time
	var cmds []smartrefresh.RefreshCommand
	for i := 0; i < ticks; i++ {
		now += smartrefresh.Time(step)
		cmds = p.Advance(now, cmds[:0])
	}
	return now, cmds
}

func TestPolicyAdvanceSteadyStateAllocFree(t *testing.T) {
	cfg := smartrefresh.Table1_2GB()
	cfg.Smart.SelfDisable = false
	interval := cfg.RefreshInterval()
	tickStep := interval / smartrefresh.Duration(cfg.Geometry.TotalRows())

	cases := []struct {
		name   string
		policy smartrefresh.Policy
		step   smartrefresh.Duration
	}{
		{"smart", smartrefresh.NewSmartPolicy(cfg), tickStep},
		{"cbr", smartrefresh.NewCBRPolicy(cfg), tickStep},
		// A whole burst per step: exercises the chunked emission loop.
		{"burst", smartrefresh.NewBurstPolicy(cfg), interval},
		{"oracle", smartrefresh.NewOraclePolicy(cfg), tickStep},
		{"darp", smartrefresh.NewDARPPolicy(cfg, smartrefresh.DefaultPerBankConfig()), tickStep},
		{"sarp", smartrefresh.NewSARPPolicy(cfg, smartrefresh.DefaultPerBankConfig()), tickStep},
		{"raidr", smartrefresh.NewRAIDRPolicy(cfg, smartrefresh.DefaultRAIDRConfig(),
			smartrefresh.NewRetentionMap(cfg.Geometry, smartrefresh.DefaultRetentionClasses(), 1)), tickStep},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			now, cmds := warmPolicy(tc.policy, tc.step, 4096)
			avg := testing.AllocsPerRun(200, func() {
				now += smartrefresh.Time(tc.step)
				cmds = tc.policy.Advance(now, cmds[:0])
			})
			if avg != 0 {
				t.Errorf("%s steady-state Advance allocates %.1f allocs/op, want 0", tc.name, avg)
			}
		})
	}
}

func TestControllerSubmitSteadyStateAllocFree(t *testing.T) {
	cfg := smartrefresh.Table1_2GB()
	ctl, err := smartrefresh.NewController(cfg, smartrefresh.NewSmartPolicy(cfg),
		smartrefresh.ControllerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var now smartrefresh.Time
	var i uint64
	submit := func() {
		now += 200 * smartrefresh.Nanosecond
		i++
		ctl.Submit(smartrefresh.Request{Time: now, Addr: i * 16384})
	}
	for n := 0; n < 4096; n++ {
		submit()
	}
	if avg := testing.AllocsPerRun(200, submit); avg != 0 {
		t.Errorf("steady-state Submit allocates %.1f allocs/op, want 0", avg)
	}
}

// The per-bank arbiter path — demand observation, slot arbitration,
// REFpb dispatch — must also stay allocation-free once warm.
func TestControllerSubmitDARPSteadyStateAllocFree(t *testing.T) {
	cfg := smartrefresh.Table1_2GB()
	ctl, err := smartrefresh.NewController(cfg,
		smartrefresh.NewDARPPolicy(cfg, smartrefresh.DefaultPerBankConfig()),
		smartrefresh.ControllerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var now smartrefresh.Time
	var i uint64
	submit := func() {
		now += 200 * smartrefresh.Nanosecond
		i++
		ctl.Submit(smartrefresh.Request{Time: now, Addr: i * 16384, Write: i%4 == 0})
	}
	for n := 0; n < 4096; n++ {
		submit()
	}
	if avg := testing.AllocsPerRun(200, submit); avg != 0 {
		t.Errorf("steady-state DARP Submit allocates %.1f allocs/op, want 0", avg)
	}
}

// The power-state machine path — slot re-arms, power-down entries,
// demand wakes — must be allocation-free once warm.
func TestPowerStateCycleSteadyStateAllocFree(t *testing.T) {
	cfg := smartrefresh.Table1_2GB()
	ctl, err := smartrefresh.NewController(cfg, smartrefresh.NewSmartPolicy(cfg),
		smartrefresh.ControllerOptions{
			SelfRefreshAfter: 100 * smartrefresh.Microsecond,
			PowerStates: smartrefresh.PowerStateConfig{
				ActPdnAfter:     1 * smartrefresh.Microsecond,
				PrePdnFastAfter: 5 * smartrefresh.Microsecond,
				PrePdnSlowAfter: 50 * smartrefresh.Microsecond,
			},
		})
	if err != nil {
		t.Fatal(err)
	}
	var now smartrefresh.Time
	var i uint64
	cycle := func() {
		i++
		ctl.Submit(smartrefresh.Request{Time: now, Addr: i * 16384})
		now += 10 * smartrefresh.Microsecond
		ctl.AdvanceTo(now)
	}
	for n := 0; n < 2048; n++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Errorf("steady-state power-state cycle allocates %.1f allocs/op, want 0", avg)
	}
}

// The vaulted ladder drain — refresh ticks waking powered-down ranks,
// which then re-descend PRE-PDN fast → slow before self-refresh — must
// be allocation-free once warm: each rank's pending transition lives in
// a fixed slot, so no amount of rescheduling grows anything.
func TestVaultedLadderDrainSteadyStateAllocFree(t *testing.T) {
	cfg := smartrefresh.HMC8Vault()
	var ladder smartrefresh.PowerStatePolicy
	for _, p := range smartrefresh.PowerStatePolicies() {
		if p.Name == "ladder-full" {
			ladder = p
		}
	}
	if ladder.Name == "" {
		t.Fatal("no ladder-full power-state policy")
	}
	va, err := smartrefresh.NewVaultArray(cfg,
		func(_ int, vcfg smartrefresh.Config) (smartrefresh.Policy, error) {
			return smartrefresh.NewSmartPolicy(vcfg), nil
		},
		smartrefresh.VaultOptions{
			Options: smartrefresh.ControllerOptions{
				SelfRefreshAfter: ladder.SelfRefreshAfter,
				PowerStates:      ladder.Cfg,
			},
			Workers: 1, // serial: goroutine start-up is not the drain's
		})
	if err != nil {
		t.Fatal(err)
	}
	// One burst of demand spread over the whole stack, then 1 ms of idle
	// in which every touched rank walks the ladder while refresh ticks
	// keep waking it.
	stride := uint64(cfg.Geometry.CapacityBytes() / 256)
	var now smartrefresh.Time
	burstThenIdle := func() {
		for i := uint64(0); i < 256; i++ {
			now += 10 * smartrefresh.Nanosecond
			va.Enqueue(smartrefresh.Request{Time: now, Addr: i * stride})
		}
		now += smartrefresh.Time(smartrefresh.Millisecond)
		va.FlushTo(now)
	}
	powerDowns := func() (n uint64) {
		for v := 0; v < va.Vaults(); v++ {
			n += va.Vault(v).Module().Stats().PowerDownEntries
		}
		return n
	}
	for n := 0; n < 16; n++ {
		burstThenIdle()
	}
	before := powerDowns()
	if avg := testing.AllocsPerRun(20, burstThenIdle); avg != 0 {
		t.Errorf("steady-state vaulted ladder drain allocates %.1f allocs/op, want 0", avg)
	}
	if powerDowns() == before {
		t.Error("no power-down entries while measured: the ladder was not exercised")
	}
}

// The 3D-cache front-end runs once per L2 miss of every stacked job: a
// warm tag store and grown result buffers must serve it without
// allocating, through AppendAccess and through the Access wrapper.
func TestDRAMCacheAccessSteadyStateAllocFree(t *testing.T) {
	for _, appendOnly := range []bool{true, false} {
		_, step := warmDRAMCache(appendOnly)
		if avg := testing.AllocsPerRun(1000, step); avg != 0 {
			t.Errorf("steady-state DRAMCache access (append %v) allocates %.1f allocs/op, want 0", appendOnly, avg)
		}
	}
}

// Module.Access — hits, misses, conflicts and the precharges between
// them — works on fixed per-bank state and must not allocate, through
// the flat cores and through the struct wrappers.
func TestModuleAccessSteadyStateAllocFree(t *testing.T) {
	for _, flat := range []bool{true, false} {
		_, step := moduleAccessMix(flat)
		for n := 0; n < 4096; n++ {
			step()
		}
		if avg := testing.AllocsPerRun(1000, step); avg != 0 {
			t.Errorf("steady-state Module access (flat %v) allocates %.1f allocs/op, want 0", flat, avg)
		}
	}
}

// A refresh that wakes a powered-down rank, and the rank's settle back
// onto its rung, write fixed per-rank state: the idle ladder must not
// allocate.
func TestLadderRefreshWakeSteadyStateAllocFree(t *testing.T) {
	ctl, step := ladderRefreshWake()
	for n := 0; n < 4096; n++ {
		step()
	}
	before := ctl.Module().Stats().PowerDownEntries
	if avg := testing.AllocsPerRun(1000, step); avg != 0 {
		t.Errorf("steady-state ladder refresh wake allocates %.1f allocs/op, want 0", avg)
	}
	if ctl.Module().Stats().PowerDownEntries == before {
		t.Error("no power-down entries while measured: no rank was woken")
	}
}

// A demand that first drains idle page-closes, and the earliest-deadline
// rescans they trigger, writes only fixed per-bank state: the open-page
// path must not allocate.
func TestIdleCloseDrainSteadyStateAllocFree(t *testing.T) {
	ctl, step := idleCloseDrain()
	for n := 0; n < 4096; n++ {
		step()
	}
	before := ctl.Module().Stats().RowMisses
	if avg := testing.AllocsPerRun(1000, step); avg != 0 {
		t.Errorf("steady-state idle-close drain allocates %.1f allocs/op, want 0", avg)
	}
	if ctl.Module().Stats().RowMisses == before {
		t.Error("no row misses while measured: no page was closed by its timeout")
	}
}

// An idle CBR tick through Controller.AdvanceTo reuses the controller's
// command buffer once it has grown.
func TestRefreshDispatchSteadyStateAllocFree(t *testing.T) {
	ctl, step := refreshDispatch()
	for n := 0; n < 4096; n++ {
		step()
	}
	before := ctl.Module().Stats().RefreshOps
	if avg := testing.AllocsPerRun(1000, step); avg != 0 {
		t.Errorf("steady-state refresh dispatch allocates %.1f allocs/op, want 0", avg)
	}
	if ctl.Module().Stats().RefreshOps == before {
		t.Error("no refreshes while measured: the dispatch was not exercised")
	}
}

// The tag store's chunks are allocated on first install: building the
// 64 MB Table 2 cache is the Cache itself plus its 256-entry chunk table,
// not one object per set or per chunk. AllocsPerRun counts every heap
// allocation in the process; twenty runs keep a stray allocation from
// another goroutine from rounding the average up.
func TestCacheNew3DAllocBudget(t *testing.T) {
	cfg := config.Table2_3DCache()
	if avg := testing.AllocsPerRun(20, func() { cache.New(cfg) }); avg > 2 {
		t.Errorf("cache.New(Table2_3DCache) makes %.0f allocations, want at most 2", avg)
	}
}

// allocBytes returns the heap bytes one call of f allocates, read from
// runtime.MemStats.TotalAlloc around it. Like testing.AllocsPerRun it
// runs at GOMAXPROCS 1, so no other goroutine allocates meanwhile.
func allocBytes(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// A generator keeps a row table only when it shuffles, and then at 4
// bytes a row: a sequential sweep's row is its position.
func TestGeneratorRowTableBytes(t *testing.T) {
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	seq := prof.MainSpec()
	if seq.Shuffle || seq.Rows() == 0 {
		t.Fatalf("gcc main spec %+v is not a sequential sweep", seq)
	}
	if got := allocBytes(func() { workload.NewGenerator(seq, 1) }); got >= 4<<10 {
		t.Errorf("sequential NewGenerator over %d rows allocates %d bytes, want under 4 KiB", seq.Rows(), got)
	}

	const rows = 1 << 16
	shuffled := workload.StreamSpec{
		FootprintBytes: rows * 1024, StrideBytes: 1024, SweepPeriod: sim.Millisecond, Shuffle: true,
	}
	if got := allocBytes(func() { workload.NewGenerator(shuffled, 1) }); got < 4*rows || got >= 4*rows+4<<10 {
		t.Errorf("shuffled NewGenerator over %d rows allocates %d bytes, want 4·%d plus under 4 KiB", rows, got, rows)
	}
}

// StreamSpec.Validate bounds a shuffled spec's rows by the generator's
// 32-bit permutation, and only a shuffled one; checking the bound
// allocates nothing on either side of it.
func TestStreamSpecShuffleRowBound(t *testing.T) {
	spec := func(rows int64, shuffle bool) workload.StreamSpec {
		return workload.StreamSpec{FootprintBytes: rows, StrideBytes: 1, SweepPeriod: sim.Second, Shuffle: shuffle}
	}
	for _, tc := range []struct {
		rows    int64
		shuffle bool
		ok      bool
	}{
		{math.MaxUint32, true, true},
		{math.MaxUint32 + 1, true, false},
		{math.MaxUint32 + 1, false, true},
	} {
		s := spec(tc.rows, tc.shuffle)
		if err := s.Validate(); (err == nil) != tc.ok {
			t.Errorf("%d rows, shuffle %v: Validate() = %v, want ok=%v", tc.rows, tc.shuffle, err, tc.ok)
		}
		if avg := testing.AllocsPerRun(100, func() { _ = s.Validate() }); avg != 0 {
			t.Errorf("%d rows, shuffle %v: Validate allocates %.1f allocs/op, want 0", tc.rows, tc.shuffle, avg)
		}
	}
}
