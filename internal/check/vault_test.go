package check

import (
	"context"
	"testing"
)

// Satellite determinism suite: the same vaulted scenario must
// fingerprint identically at every shard count, and every vault-level
// invariant must hold, across a block of random seeds.
func TestCheckVaultScenarioSweep(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		sc := NewVaultScenario(seed)
		rep, err := CheckVaultScenario(context.Background(), sc, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !rep.Ok() {
			for _, v := range rep.Violations {
				t.Errorf("seed %d: %s", seed, v)
			}
		}
		if len(rep.Runs) != 2 {
			t.Fatalf("seed %d: %d policy runs, want 2", seed, len(rep.Runs))
		}
		for _, run := range rep.Runs {
			if run.Res.Module.RefreshOps == 0 {
				t.Errorf("seed %d: %s issued no refreshes", seed, run.Policy)
			}
		}
	}
}

// Cross-shard fingerprint equality stated directly against the public
// Fingerprint helper: the serial and maximally-sharded executions of one
// policy digest to the same SHA-256.
func TestVaultFingerprintEqualAcrossShards(t *testing.T) {
	sc := NewVaultScenario(3)
	pc := vaultPolicyCases(sc)[0] // smart
	ref := runPolicy(context.Background(), sc, pc, 1, nil, nil)
	if ref.Panic != "" {
		t.Fatal(ref.Panic)
	}
	for _, shards := range []int{2, 4, sc.Cfg.Geometry.VaultCount()} {
		got := runPolicy(context.Background(), sc, pc, shards, nil, nil)
		if got.Panic != "" {
			t.Fatalf("shards=%d: %s", shards, got.Panic)
		}
		if Fingerprint(got) != Fingerprint(ref) {
			t.Fatalf("shards=%d fingerprints differently from serial", shards)
		}
	}
}

// Presence gate: a monolithic scenario produces an empty clean report,
// so sweeps may call the vault checker unconditionally.
func TestCheckVaultScenarioGatesOnGeometry(t *testing.T) {
	rep, err := CheckVaultScenario(context.Background(), NewScenario(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() || len(rep.Runs) != 0 {
		t.Fatalf("monolithic scenario not gated: %+v", rep)
	}
}

func TestNewVaultScenarioDeterministic(t *testing.T) {
	a, b := NewVaultScenario(9), NewVaultScenario(9)
	if a.Name != b.Name || a.Cfg.Geometry != b.Cfg.Geometry || a.Spec != b.Spec {
		t.Fatal("same seed produced different vault scenarios")
	}
	if !a.Cfg.Geometry.Vaulted() {
		t.Fatal("vault scenario is not vaulted")
	}
}
