package check

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"smartrefresh/internal/experiment"
	"smartrefresh/internal/memctrl"
)

// A vaulted scenario runs through CheckScenario at its real vault count:
// every registered policy but the RetentionMap ones, each vault held to
// the module invariants, the stack to the vault fold, and every shard
// count to the serial run's results. The seeds follow the ones the fixed
// scenario set (TestPresetScenarios) carries.
func TestVaultScenarios(t *testing.T) {
	var want []string
	for _, e := range experiment.Policies() {
		if !e.RetentionMap {
			want = append(want, e.Name)
		}
	}
	seeds := uint64(4)
	if testing.Short() {
		seeds = 1
	}
	for seed := uint64(presetVaultSeeds + 1); seed <= presetVaultSeeds+seeds; seed++ {
		t.Run(fmt.Sprintf("vault-seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			rep := checkAll(t, NewVaultScenario(seed))
			for _, v := range rep.Violations {
				t.Errorf("%s", v)
			}
			var got []string
			for _, run := range rep.Runs {
				got = append(got, run.Policy)
				if e, _ := experiment.ParsePolicy(run.Policy); e.Refreshes && run.Res.Module.RefreshOps == 0 {
					t.Errorf("%s issued no refreshes", run.Policy)
				}
			}
			if !slices.Equal(got, want) {
				t.Errorf("runs %v, want one per policy without a retention map: %v", got, want)
			}
		})
	}
}

// Cross-shard fingerprint equality stated directly against the public
// Fingerprint helper: the serial and maximally-sharded executions of one
// policy digest to the same SHA-256.
func TestVaultFingerprintEqualAcrossShards(t *testing.T) {
	sc := NewVaultScenario(3)
	pc := policyCases(sc)[0] // smart
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

// handVaultOutcome is a Smart outcome on sc's vaults whose every vault
// accounts for each refresh and whose aggregate is their fold.
func handVaultOutcome(sc Scenario) runOutcome {
	out := runOutcome{PolicyRun: PolicyRun{Policy: "smart"}}
	for v := range uint64(sc.Cfg.Geometry.VaultCount()) {
		var r memctrl.Results
		r.Requests = 10 + v
		r.Module.RefreshOps, r.RefreshOps = 5, 5
		r.Module.RefreshCBROps, r.RefreshCBR = 5, 5
		r.RefreshesDroppedSelfRefresh = v % 2
		r.Policy.RefreshesRequested = 5 + v%2
		out.Per = append(out.Per, r)
		out.Dropped = append(out.Dropped, v%2)
		out.DroppedSelfRefresh += v % 2
	}
	out.Res = foldVaults(out)
	return out
}

// outcomeViolations runs the per-outcome check of out as smart on sc.
func outcomeViolations(sc Scenario, out runOutcome) []Violation {
	var vs []Violation
	checkOutcome(sc, policyCases(sc)[0], out, func(policy, invariant, format string, args ...any) {
		vs = append(vs, Violation{sc.Name, policy, invariant, fmt.Sprintf(format, args...)})
	})
	return vs
}

func hasViolation(vs []Violation, policy, invariant string) bool {
	return slices.ContainsFunc(vs, func(v Violation) bool { return v.Policy == policy && v.Invariant == invariant })
}

// One vault whose requested refreshes exceed its module ops plus its
// self-refresh-covered commands is named in its own violation; the
// other vault stays clean.
func TestCheckOutcomeNamesVault(t *testing.T) {
	sc := NewVaultScenario(1)
	out := handVaultOutcome(sc)
	if vs := outcomeViolations(sc, out); hasViolation(vs, "smart/vault00", "refresh-accounting") ||
		hasViolation(vs, "smart/vault01", "refresh-accounting") {
		t.Fatalf("consistent vaults reported: %v", vs)
	}
	out.Per[1].Policy.RefreshesRequested++
	out.Res = foldVaults(out)
	vs := outcomeViolations(sc, out)
	if !hasViolation(vs, "smart/vault01", "refresh-accounting") {
		t.Errorf("vault 1 refresh leak not reported: %v", vs)
	}
	if hasViolation(vs, "smart/vault00", "refresh-accounting") {
		t.Errorf("vault 0 blamed for vault 1's leak: %v", vs)
	}
}

// The stack-level results must be the vault-order fold: an aggregate one
// request off is a vault-aggregation violation.
func TestCheckOutcomeVaultAggregation(t *testing.T) {
	sc := NewVaultScenario(1)
	out := handVaultOutcome(sc)
	if vs := outcomeViolations(sc, out); hasViolation(vs, "smart", "vault-aggregation") {
		t.Fatalf("exact fold reported: %v", vs)
	}
	out.Res.Requests++
	if vs := outcomeViolations(sc, out); !hasViolation(vs, "smart", "vault-aggregation") {
		t.Errorf("aggregate one request off the fold not reported: %v", vs)
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

// A filter that leaves a scenario no policy its geometry accepts skips
// the scenario: no runs, no violations, and Skipped set. A scenario the
// filter leaves a policy to run on is not skipped.
func TestCheckScenarioSkipsWhenFilterLeavesNothing(t *testing.T) {
	rep, err := CheckScenario(context.Background(), NewVaultScenario(1), nil, nil, []string{"raidr", "smart-retention"})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Skipped || len(rep.Runs) != 0 || len(rep.Violations) != 0 {
		t.Fatalf("vaulted scenario under retention-map policies: skipped %v, %d runs, %d violations",
			rep.Skipped, len(rep.Runs), len(rep.Violations))
	}
	sc := NewVaultScenario(1)
	sc.Duration = sc.Cfg.RefreshInterval() / 8
	rep, err = CheckScenario(context.Background(), sc, nil, nil, []string{"raidr", "cbr"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped || len(rep.Runs) != 1 {
		t.Fatalf("vaulted scenario with cbr selected: skipped %v, %d runs", rep.Skipped, len(rep.Runs))
	}
}
