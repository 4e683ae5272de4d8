package check

import (
	"fmt"
	"sort"

	"smartrefresh/internal/config"
	"smartrefresh/internal/memctrl"
	"smartrefresh/internal/sim"
	"smartrefresh/internal/workload"
)

// NewScenario derives a random but always-valid scenario from a seed:
// a small geometry (so runs stay fast), a randomized Smart
// configuration, a 1-4 ms refresh interval, a 3-5 interval run, a
// workload ranging from fully idle to a footprint covering the whole
// module, and (half the time) controller self-refresh. The same seed
// always yields the same scenario.
func NewScenario(seed uint64) Scenario {
	rng := sim.NewRNG(seed)

	cfg := config.Table1_2GB()
	cfg.Name = fmt.Sprintf("rand-%d", seed)
	cfg.Geometry.Ranks = 1 << rng.Intn(2) // 1 or 2
	cfg.Geometry.Banks = 2 << rng.Intn(3) // 2, 4 or 8
	cfg.Geometry.Rows = 64 << rng.Intn(4) // 64..512
	cfg.Geometry.Columns = 64 << rng.Intn(2)
	cfg.Timing.RefreshInterval = sim.Duration(1+rng.Intn(4)) * sim.Millisecond
	cfg.Power.Geometry = cfg.Geometry
	cfg.Power.Timing = cfg.Timing

	cfg.Smart.CounterBits = 2 + rng.Intn(3) // 2..4
	cfg.Smart.Segments = 1 << rng.Intn(5)   // 1..16; always divides the pow2 row count
	cfg.Smart.QueueDepth = cfg.Smart.Segments + rng.Intn(cfg.Smart.Segments+8)
	cfg.Smart.SelfDisable = rng.Bool(0.5)

	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("check: generated invalid config for seed %d: %v", seed, err))
	}

	sc := Scenario{
		Name:     fmt.Sprintf("seed-%d", seed),
		Seed:     seed,
		Cfg:      cfg,
		Duration: sim.Duration(3+rng.Intn(3)) * cfg.Timing.RefreshInterval,
	}

	// A quarter of the scenarios are fully idle — the regime where
	// self-refresh, power-down and the section 4.6 disable path live.
	// (An idle spec still needs a positive stride to validate.)
	sc.Spec = workload.StreamSpec{StrideBytes: cfg.Geometry.RowBytes()}
	if !rng.Bool(0.25) {
		interval := cfg.Timing.RefreshInterval
		totalRows := cfg.Geometry.TotalRows()
		footRows := 1 + rng.Intn(totalRows)
		sc.Spec = workload.StreamSpec{
			FootprintBytes: int64(footRows) * cfg.Geometry.RowBytes(),
			StrideBytes:    cfg.Geometry.RowBytes(),
			// Sweep periods straddle the (1-2^-bits) * interval threshold
			// below which touched rows skip every periodic refresh.
			SweepPeriod:    interval/4 + sim.Duration(rng.Int63n(int64(interval))),
			RowRepeats:     rng.Float64() * 2,
			WriteFraction:  rng.Float64() * 0.5,
			JitterFraction: rng.Float64() * 0.3,
			Shuffle:        rng.Bool(0.5),
		}
		if err := sc.Spec.Validate(); err != nil {
			panic(fmt.Sprintf("check: generated invalid workload for seed %d: %v", seed, err))
		}
	}

	if rng.Bool(0.5) {
		// Above the default 2 us page-close timeout, below the interval,
		// so sparse workloads sleep and wake repeatedly.
		sc.SelfRefreshAfter = 10*sim.Microsecond + sim.Duration(rng.Int63n(int64(150*sim.Microsecond)))
	}
	sc.PowerStates = randomPowerStates(rng, sc.SelfRefreshAfter)
	return sc
}

// NewVaultScenario derives a random but always-valid vaulted scenario
// from a seed: the HMC preset's shape with a randomized (small) row
// count, stack height, vault count, refresh interval, Smart parameters
// and workload. The same seed always yields the same scenario.
func NewVaultScenario(seed uint64) Scenario {
	rng := sim.NewRNG(seed)

	cfg := config.HMC8Vault()
	cfg.Name = fmt.Sprintf("vault-rand-%d", seed)
	cfg.Geometry.Vaults = 2 << rng.Intn(3) // 2, 4 or 8 vaults of 8 channels
	layers := 1 << rng.Intn(2)             // flat or 2-high
	cfg.Geometry.Ranks = layers
	cfg.Geometry.Layers = 0
	if layers > 1 {
		cfg.Geometry.Layers = layers
	}
	cfg.Geometry.Rows = 64 << rng.Intn(3) // 64..256
	cfg.Power.Geometry = cfg.Geometry
	cfg.Timing.RefreshInterval = sim.Duration(1+rng.Intn(4)) * sim.Millisecond
	cfg.Power.Timing = cfg.Timing

	cfg.Smart.CounterBits = 2 + rng.Intn(3)
	cfg.Smart.Segments = 1 << rng.Intn(5) // divides every pow2 per-vault row count here
	cfg.Smart.QueueDepth = cfg.Smart.Segments + rng.Intn(cfg.Smart.Segments+8)
	cfg.Smart.SelfDisable = rng.Bool(0.5)

	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("check: generated invalid vault config for seed %d: %v", seed, err))
	}

	sc := Scenario{
		Name:     fmt.Sprintf("vault-seed-%d", seed),
		Seed:     seed,
		Cfg:      cfg,
		Duration: sim.Duration(3+rng.Intn(3)) * cfg.Timing.RefreshInterval,
	}
	sc.Spec = workload.StreamSpec{StrideBytes: cfg.Geometry.RowBytes()}
	if !rng.Bool(0.25) {
		interval := cfg.Timing.RefreshInterval
		footRows := 1 + rng.Intn(cfg.Geometry.TotalRows())
		sc.Spec = workload.StreamSpec{
			FootprintBytes: int64(footRows) * cfg.Geometry.RowBytes(),
			StrideBytes:    cfg.Geometry.RowBytes(),
			SweepPeriod:    interval/4 + sim.Duration(rng.Int63n(int64(interval))),
			RowRepeats:     rng.Float64() * 2,
			WriteFraction:  rng.Float64() * 0.5,
			JitterFraction: rng.Float64() * 0.3,
			Shuffle:        rng.Bool(0.5),
		}
		if err := sc.Spec.Validate(); err != nil {
			panic(fmt.Sprintf("check: generated invalid vault workload for seed %d: %v", seed, err))
		}
	}
	if rng.Bool(0.5) {
		sc.SelfRefreshAfter = 10*sim.Microsecond + sim.Duration(rng.Int63n(int64(150*sim.Microsecond)))
	}
	sc.PowerStates = randomPowerStates(rng, sc.SelfRefreshAfter)
	return sc
}

// randomPowerStates draws a valid power-state ladder half the time. The
// ranges respect the ordering constraints against the controller's
// default 2 us page-close timeout and the minimum 10 us SelfRefreshAfter
// the scenario generators draw: ACT-PDN below the page-close timeout,
// PRE-PDN fast in (2, 8) us, PRE-PDN slow above fast but below 10 us,
// slow-wake only when self-refresh is armed. Drawn after every other
// scenario field, so pre-existing seeds keep their historical shapes.
func randomPowerStates(rng *sim.RNG, selfRefreshAfter sim.Duration) memctrl.PowerStateConfig {
	var ps memctrl.PowerStateConfig
	if !rng.Bool(0.5) {
		return ps
	}
	if rng.Bool(0.5) {
		ps.ActPdnAfter = 200*sim.Nanosecond + sim.Duration(rng.Int63n(int64(1500*sim.Nanosecond)))
	}
	if rng.Bool(0.7) {
		ps.PrePdnFastAfter = 3*sim.Microsecond + sim.Duration(rng.Int63n(int64(5*sim.Microsecond)))
		if rng.Bool(0.5) {
			room := 9*sim.Microsecond - ps.PrePdnFastAfter
			ps.PrePdnSlowAfter = ps.PrePdnFastAfter + 100*sim.Nanosecond + sim.Duration(rng.Int63n(int64(room)))
		}
	}
	if selfRefreshAfter > 0 && rng.Bool(0.5) {
		ps.SRSlowAfter = 20*sim.Microsecond + sim.Duration(rng.Int63n(int64(100*sim.Microsecond)))
	}
	return ps
}

// presetVaultSeeds is how many random vault stacks (NewVaultScenario
// seeds 1 on) the fixed scenario set carries.
const presetVaultSeeds = 4

// PresetScenarios is the fixed scenario set: every vetted configuration
// preset with a moderate mixed workload, plus one idle self-refresh
// scenario, using shorter two-interval runs (the presets have full-size
// row counts), then the random vault stacks of seeds 1 to
// presetVaultSeeds.
func PresetScenarios() []Scenario {
	presets := config.Presets()
	names := make([]string, 0, len(presets))
	for name := range presets {
		names = append(names, name)
	}
	sort.Strings(names)

	out := make([]Scenario, 0, len(names)+1+presetVaultSeeds)
	for _, name := range names {
		cfg := presets[name]
		interval := cfg.Timing.RefreshInterval
		out = append(out, Scenario{
			Name:     "preset-" + name,
			Seed:     1,
			Cfg:      cfg,
			Duration: 2 * interval,
			Spec: workload.StreamSpec{
				FootprintBytes: 512 * cfg.Geometry.RowBytes(),
				StrideBytes:    cfg.Geometry.RowBytes(),
				SweepPeriod:    interval / 2,
				RowRepeats:     1,
				WriteFraction:  0.3,
				JitterFraction: 0.1,
				Shuffle:        true,
			},
		})
	}

	idle := presets[names[0]]
	out = append(out, Scenario{
		Name:             "preset-" + idle.Name + "-selfrefresh",
		Seed:             1,
		Cfg:              idle,
		Duration:         2 * idle.Timing.RefreshInterval,
		Spec:             workload.StreamSpec{StrideBytes: idle.Geometry.RowBytes()},
		SelfRefreshAfter: 100 * sim.Microsecond,
	})
	for seed := uint64(1); seed <= presetVaultSeeds; seed++ {
		out = append(out, NewVaultScenario(seed))
	}
	return out
}
