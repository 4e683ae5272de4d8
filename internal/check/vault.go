package check

import (
	"context"
	"fmt"
	"reflect"
	"slices"

	"smartrefresh/internal/config"
	"smartrefresh/internal/sim"
	"smartrefresh/internal/workload"
)

// vaultPolicyCases is the vault-parallel differential set: the paper's
// policy and its baseline, each instantiated per vault with the
// monolithic set's slack (the per-vault geometry keeps Rows per bank, so
// the bounds carry over unchanged).
func vaultPolicyCases(sc Scenario) []policyCase {
	var cases []policyCase
	for _, pc := range policyCases(sc) {
		if slices.Contains(VaultPolicyNames(), pc.Name) {
			cases = append(cases, pc)
		}
	}
	return cases
}

// VaultPolicyNames lists the policies the vault-parallel differential
// set instantiates per vault — a subset of PolicyNames, so the same
// -policies filter vocabulary selects vault runs too.
func VaultPolicyNames() []string { return []string{"smart", "cbr"} }

// CheckVaultScenario evaluates the vault-parallel invariants for one
// scenario: per-vault refresh accounting and retention, aggregate =
// vault-order sum, per-vault and aggregate energy consistency, a
// bit-identical serial rerun, and — the keystone — fingerprint equality
// across every shard count in shards (nil or empty defaults to
// {1, 2, vaults}). Presence-gated: a monolithic scenario returns an
// empty clean report, so existing sweeps can call this unconditionally.
//
// policies is CheckScenario's filter: only the named policies run (nil
// or empty = the full vault set); names outside VaultPolicyNames are
// ignored rather than rejected, so one -policies list can drive the
// monolithic and vault sweeps together.
func CheckVaultScenario(ctx context.Context, sc Scenario, shards []int, policies []string) (Report, error) {
	rep := Report{Scenario: sc}
	if !sc.Cfg.Geometry.Vaulted() {
		return rep, nil
	}
	if len(shards) == 0 {
		shards = []int{1, 2, sc.Cfg.Geometry.VaultCount()}
	}
	add := func(policy, invariant, format string, args ...any) {
		rep.Violations = append(rep.Violations, Violation{
			Scenario:  sc.Name,
			Policy:    policy,
			Invariant: invariant,
			Detail:    fmt.Sprintf(format, args...),
		})
	}

	for _, pc := range vaultPolicyCases(sc) {
		if len(policies) > 0 && !slices.Contains(policies, pc.Name) {
			continue
		}
		name := "vault-" + pc.Name
		ref := runPolicy(ctx, sc, pc, 1, nil, nil)
		rerun := runPolicy(ctx, sc, pc, 1, nil, nil)
		if err := ctx.Err(); err != nil {
			return Report{Scenario: sc}, err
		}
		if ref.Panic != "" {
			add(name, "panic", "%s", ref.Panic)
			continue
		}
		if !reflect.DeepEqual(ref, rerun) {
			add(name, "determinism", "serial rerun differs")
		}
		if ref.RetentionErr != "" {
			add(name, "retention", "%s", ref.RetentionErr)
		}

		// Every shard count must reproduce the serial schedule bit for
		// bit; the fingerprint is over the full outcome, per-vault
		// breakdown included.
		refPrint := Fingerprint(ref)
		for _, s := range shards {
			if s == 1 {
				continue
			}
			got := runPolicy(ctx, sc, pc, s, nil, nil)
			if err := ctx.Err(); err != nil {
				return Report{Scenario: sc}, err
			}
			if got.Panic != "" {
				add(name, "panic", "shards=%d: %s", s, got.Panic)
				continue
			}
			if Fingerprint(got) != refPrint {
				add(name, "shard-determinism", "shards=%d fingerprints differently from serial", s)
			}
		}

		// Per-vault refresh accounting, and the aggregate as the exact
		// vault-order fold.
		var req, ops, dropped, requested uint64
		for v, r := range ref.Per {
			if r.Policy.RefreshesRequested != r.Module.RefreshOps+ref.Dropped[v] {
				add(name, "refresh-accounting", "vault %d: requested %d != ops %d + dropped %d",
					v, r.Policy.RefreshesRequested, r.Module.RefreshOps, ref.Dropped[v])
			}
			vaultName := fmt.Sprintf("%s/vault%02d", name, v)
			checkEnergy(vaultName, r.Energy, add)
			checkPowerStateResidency(vaultName, r.Module, sc.PowerStates.Enabled(), add)
			checkPowerStateEnergy(sc.Cfg, vaultName, r, add)
			req += r.Requests
			ops += r.Module.RefreshOps
			dropped += ref.Dropped[v]
			requested += r.Policy.RefreshesRequested
		}
		if ref.Res.Requests != req || ref.Res.Module.RefreshOps != ops ||
			ref.Res.RefreshesDroppedSelfRefresh != dropped ||
			ref.Res.Policy.RefreshesRequested != requested {
			add(name, "vault-aggregation", "aggregate %d/%d/%d/%d != vault sums %d/%d/%d/%d",
				ref.Res.Requests, ref.Res.Module.RefreshOps,
				ref.Res.RefreshesDroppedSelfRefresh, ref.Res.Policy.RefreshesRequested,
				req, ops, dropped, requested)
		}
		checkEnergy(name, ref.Res.Energy, add)
		// The residency subsets and the background-energy recompute are
		// linear, so they must also hold for the vault-summed aggregate.
		checkPowerStateResidency(name, ref.Res.Module, sc.PowerStates.Enabled(), add)
		checkPowerStateEnergy(sc.Cfg, name, ref.Res, add)

		run := ref.PolicyRun
		run.Policy = name
		rep.Runs = append(rep.Runs, run)
	}
	return rep, nil
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
