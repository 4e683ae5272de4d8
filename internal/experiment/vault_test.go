package experiment

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"smartrefresh/internal/config"
	"smartrefresh/internal/core"
	"smartrefresh/internal/dram"
	"smartrefresh/internal/memctrl"
	"smartrefresh/internal/sim"
	"smartrefresh/internal/workload"
)

// vaultTestCfg shrinks the HMC preset (refresh work is one tick per row
// per interval) so the multi-shard sweeps stay fast.
func vaultTestCfg() config.DRAM {
	cfg := config.HMC8Vault()
	cfg.Geometry.Ranks = 2
	cfg.Geometry.Layers = 2
	cfg.Geometry.Rows = 256
	cfg.Power.Geometry = cfg.Geometry
	cfg.Timing = dram.DDR2_667(sim.Millisecond)
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return cfg
}

func vaultTestOpts(shards int) RunOptions {
	return RunOptions{
		Warmup:  sim.Millisecond,
		Measure: 4 * sim.Millisecond,
		Shards:  shards,
	}
}

// The experiment-level determinism keystone: the same vaulted run is
// bit-identical at every shard count, aggregate and per vault.
func TestVaultedRunDeterministicAcrossShards(t *testing.T) {
	prof, _ := workload.ByName("gcc")
	cfg := vaultTestCfg()
	ref := Run(cfg, prof, PolicySmart, vaultTestOpts(1))
	if ref.Err != nil {
		t.Fatal(ref.Err)
	}
	for _, shards := range []int{2, 4, 8} {
		got := Run(cfg, prof, PolicySmart, vaultTestOpts(shards))
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("shards=%d: results differ from serial reference\nref: %+v\ngot: %+v", shards, ref, got)
		}
	}
}

func TestVaultedRunAggregatesVaults(t *testing.T) {
	prof, _ := workload.ByName("gcc")
	res := Run(vaultTestCfg(), prof, PolicyCBR, vaultTestOpts(2))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(res.Vaults) != 8 {
		t.Fatalf("got %d vault results, want 8", len(res.Vaults))
	}
	var req, ops uint64
	for _, v := range res.Vaults {
		req += v.Requests
		ops += v.RefreshOps
	}
	if res.Results.Requests != req || res.Results.RefreshOps != ops {
		t.Fatalf("aggregate %d/%d != vault sums %d/%d",
			res.Results.Requests, res.Results.RefreshOps, req, ops)
	}
	if res.Results.RefreshOps == 0 || res.Results.Requests == 0 {
		t.Fatal("vaulted run produced no refreshes or traffic")
	}
	if res.Results.Energy.Total() <= 0 {
		t.Fatalf("aggregate energy %v", res.Results.Energy.Total())
	}
	// The warm-windowed refresh rate must match the preset cadence: every
	// row once per interval, within quantization.
	want := float64(vaultTestCfg().Geometry.TotalRows()) / vaultTestCfg().Timing.RefreshInterval.Seconds()
	if got := res.RefreshesPerSecond(); got < 0.9*want || got > 1.1*want {
		t.Fatalf("refreshes/s = %v, want ~%v", got, want)
	}
}

func TestMonolithicRunHasNoVaults(t *testing.T) {
	prof, _ := workload.ByName("gcc")
	res := Run(Conv2GB.DRAM(), prof, PolicyCBR, fastOpts(false))
	if res.Vaults != nil {
		t.Fatalf("monolithic run carries %d vault results", len(res.Vaults))
	}
}

func TestRunVaultScaling(t *testing.T) {
	prof, _ := workload.ByName("gcc")
	study, err := RunVaultScaling(context.Background(), vaultTestCfg(), prof, PolicySmart, vaultTestOpts(0), []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !study.Deterministic {
		t.Fatal("shard counts fingerprinted differently")
	}
	if len(study.Points) != 2 || study.Points[0].Shards != 1 || study.Points[1].Shards != 2 {
		t.Fatalf("points = %+v", study.Points)
	}
	for _, pt := range study.Points {
		if pt.Fingerprint == "" || pt.Wall <= 0 {
			t.Fatalf("point %+v incomplete", pt)
		}
	}
	var b, timing strings.Builder
	study.Render(&b)
	if !strings.Contains(b.String(), "bit-identical") {
		t.Fatalf("render missing determinism line:\n%s", b.String())
	}
	if strings.Contains(b.String(), "speedup") {
		t.Fatalf("render carries wall-time columns:\n%s", b.String())
	}
	study.RenderTiming(&timing)
	if !strings.Contains(timing.String(), "speedup") {
		t.Fatalf("timing render missing its table:\n%s", timing.String())
	}
}

// The busy/serial column is each point's summed vault busy time over
// the serial point's, wherever the serial point sits in the study.
func TestVaultScalingBusyInflation(t *testing.T) {
	ms := time.Millisecond
	pt := func(shards int, busy ...time.Duration) VaultScalePoint {
		return VaultScalePoint{Shards: shards, Timing: memctrl.VaultTiming{Busy: busy}}
	}
	v := VaultScaling{Points: []VaultScalePoint{
		pt(2, 30*ms, 33*ms), pt(1, 25*ms, 25*ms), pt(8, 40*ms, 35*ms),
	}}
	for i, want := range []float64{1.26, 1, 1.5} {
		if got := v.busyInflation(v.Points[i]); math.Abs(got-want) > 1e-12 {
			t.Errorf("point %d (shards %d): busy/serial %v, want %v", i, v.Points[i].Shards, got, want)
		}
	}
	var b strings.Builder
	v.RenderTiming(&b)
	for _, want := range []string{"busy/serial", "1.26x", "1.50x"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("timing table lacks %q:\n%s", want, b.String())
		}
	}
	// Without a serial point, or with one that measured nothing, the
	// column reads zero rather than dividing by zero.
	for _, v := range []VaultScaling{
		{Points: []VaultScalePoint{pt(2, ms)}},
		{Points: []VaultScalePoint{pt(1), pt(2, ms)}},
	} {
		if got := v.busyInflation(v.Points[len(v.Points)-1]); got != 0 {
			t.Errorf("%+v: busy/serial %v, want 0", v.Points, got)
		}
	}
}

// probeCtx records whether anything consulted the context — every
// simulation does, so an unused probe means nothing ran.
type probeCtx struct {
	context.Context
	used bool
}

func (c *probeCtx) Done() <-chan struct{} { c.used = true; return c.Context.Done() }
func (c *probeCtx) Err() error            { c.used = true; return c.Context.Err() }

// The shard list is validated before the first simulation, and the
// serial reference runs exactly once wherever it appears in the list.
func TestRunVaultScalingShardList(t *testing.T) {
	prof, _ := workload.ByName("gcc")
	ctx := &probeCtx{Context: context.Background()}
	if _, err := RunVaultScaling(ctx, vaultTestCfg(), prof, PolicySmart, vaultTestOpts(0), []int{2, 0}); err == nil {
		t.Fatal("shard count 0 accepted")
	}
	if ctx.used {
		t.Error("an invalid shard list simulated before it was rejected")
	}

	study, err := RunVaultScaling(context.Background(), vaultTestCfg(), prof, PolicySmart, vaultTestOpts(0), []int{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	for _, pt := range study.Points {
		got = append(got, pt.Shards)
	}
	if !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("shards {2, 1} ran as %v, want [1 2]", got)
	}
}

func TestRunVaultScalingRejectsMonolithic(t *testing.T) {
	prof, _ := workload.ByName("gcc")
	if _, err := RunVaultScaling(context.Background(), Conv2GB.DRAM(), prof, PolicySmart, fastOpts(false), nil); err == nil {
		t.Fatal("monolithic geometry accepted")
	}
}

// Two jobs differing only in Shards must share one memoised flight.
func TestEngineMemoSharesAcrossShards(t *testing.T) {
	cfg := vaultTestCfg()
	eng := NewEngine(1)
	job := func(shards int) Job {
		prof, _ := workload.ByName("gcc")
		return Job{Cfg: cfg, Prof: prof, Policy: PolicySmart, Opts: vaultTestOpts(shards)}
	}
	a := eng.RunJobs([]Job{job(1)})[0]
	b := eng.RunJobs([]Job{job(8)})[0]
	if a.Err != nil || b.Err != nil {
		t.Fatalf("errs: %v / %v", a.Err, b.Err)
	}
	// RunJobs is unmemoised; the bit-identical contract is what the memo
	// key relies on, so assert it here too.
	if !reflect.DeepEqual(a, b) {
		t.Fatal("jobs at shards 1 and 8 differ")
	}

	// The memoised path: HMC8V jobs at different shard counts must
	// yield one simulation and one cache hit.
	hmcJob := func(shards int) Job {
		return sweepJob(HMC8V, mustProfile(t, "gcc"), PolicyCBR,
			RunOptions{Warmup: 32 * sim.Millisecond, Measure: 32 * sim.Millisecond, Shards: shards})
	}
	r1, err := runOne(eng, hmcJob(1))
	if err != nil {
		t.Fatal(err)
	}
	before := eng.Stats()
	r8, err := runOne(eng, hmcJob(8))
	if err != nil {
		t.Fatal(err)
	}
	after := eng.Stats()
	if after.Started != before.Started || after.CacheHits != before.CacheHits+1 {
		t.Fatalf("shards=8 job was not served from the memo: %+v -> %+v", before, after)
	}
	if !reflect.DeepEqual(r1, r8) {
		t.Fatal("memoised result differs across shard counts")
	}
}

func TestEngineRejectsMakePolicyOnVaulted(t *testing.T) {
	prof, _ := workload.ByName("gcc")
	eng := NewEngine(1)
	res := eng.RunJobs([]Job{{
		Cfg: vaultTestCfg(), Prof: prof, Policy: PolicySmart, Opts: vaultTestOpts(1),
		MakePolicy: func() core.Policy { return core.NoRefresh{} },
	}})[0]
	if res.Err == nil || !strings.Contains(res.Err.Error(), "MakePolicy") {
		t.Fatalf("MakePolicy override on a vaulted geometry accepted: %v", res.Err)
	}
}
