package check

import (
	"fmt"
	"reflect"
	"testing"

	"smartrefresh/internal/experiment"
)

// TestRandomScenarios is the property suite: every invariant must hold
// on a block of seeded random scenarios. A failure names the seed so it
// can be replayed with `go run ./cmd/simcheck -seeds 1 -start <seed>`.
func TestRandomScenarios(t *testing.T) {
	seeds := 24
	if testing.Short() {
		seeds = 8
	}
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			rep := CheckSeed(seed)
			for _, v := range rep.Violations {
				t.Errorf("seed %d: %s (replay: go run ./cmd/simcheck -seeds 1 -start %d)", seed, v, seed)
			}
		})
	}
}

// TestPresetScenarios runs the invariant set over the vetted
// configuration presets (full-size row counts, so only a few).
func TestPresetScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("preset scenarios are full-size; skipped in -short")
	}
	for _, sc := range PresetScenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			rep := CheckScenario(sc)
			for _, v := range rep.Violations {
				t.Errorf("%s", v)
			}
		})
	}
}

// Scenario generation must be deterministic and always produce valid
// configurations and workloads across a wide seed range.
func TestScenarioGeneration(t *testing.T) {
	var sawIdle, sawSelfRefresh, sawDisable int
	for seed := uint64(1); seed <= 300; seed++ {
		sc := NewScenario(seed)
		if err := sc.Cfg.Validate(); err != nil {
			t.Fatalf("seed %d: invalid config: %v", seed, err)
		}
		if err := sc.Spec.Validate(); err != nil {
			t.Fatalf("seed %d: invalid workload: %v", seed, err)
		}
		if sc.Duration < 3*sc.Cfg.Timing.RefreshInterval {
			t.Fatalf("seed %d: duration %v shorter than 3 intervals", seed, sc.Duration)
		}
		if !reflect.DeepEqual(sc, NewScenario(seed)) {
			t.Fatalf("seed %d: scenario generation not deterministic", seed)
		}
		if sc.Spec.FootprintBytes == 0 {
			sawIdle++
		}
		if sc.SelfRefreshAfter > 0 {
			sawSelfRefresh++
		}
		if sc.Cfg.Smart.SelfDisable {
			sawDisable++
		}
	}
	// The interesting regimes must actually be generated.
	for _, c := range []struct {
		label string
		n     int
	}{{"idle", sawIdle}, {"self-refresh", sawSelfRefresh}, {"self-disable", sawDisable}} {
		if c.n < 30 {
			t.Errorf("only %d/300 scenarios exercise %s", c.n, c.label)
		}
	}
}

// A whole report — runs included — must be bit-identical when repeated:
// the differential harness itself is deterministic.
func TestReportDeterminism(t *testing.T) {
	a, b := CheckSeed(7), CheckSeed(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("CheckSeed(7) not reproducible:\n first: %+v\nsecond: %+v", a, b)
	}
}

// PolicyNames is the public contract of the -policies filter; it must
// mirror the differential set exactly, in order.
func TestPolicyNamesMatchCases(t *testing.T) {
	cases := policyCases(NewScenario(1))
	names := PolicyNames()
	if len(names) != len(cases) {
		t.Fatalf("PolicyNames lists %d policies, policyCases has %d", len(names), len(cases))
	}
	for i, pc := range cases {
		if names[i] != pc.Name {
			t.Errorf("PolicyNames[%d] = %q, policyCases[%d] = %q", i, names[i], i, pc.Name)
		}
	}
}

// The differential set follows the experiment registry's order, which
// the report fingerprints (simcheck -fingerprint) depend on.
func TestPolicyNamesFollowRegistry(t *testing.T) {
	want := []string{"smart", "cbr", "burst", "oracle", "none", "smart-retention", "darp", "sarp", "raidr"}
	if got := PolicyNames(); !reflect.DeepEqual(got, want) || !reflect.DeepEqual(got, experiment.PolicyNames()) {
		t.Errorf("PolicyNames() = %v, want %v (the registry order)", got, want)
	}
}

// A filtered check runs exactly the named policies, still applies the
// per-run invariants, and never reports phantom cross-policy bound
// violations against runs that did not happen.
func TestCheckScenarioSelected(t *testing.T) {
	sc := NewScenario(5)
	rep, err := CheckScenarioSelected(t.Context(), sc, nil, nil, []string{"darp", "sarp"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 2 || rep.Runs[0].Policy != "darp" || rep.Runs[1].Policy != "sarp" {
		t.Fatalf("filtered runs = %+v, want exactly darp, sarp", rep.Runs)
	}
	for _, v := range rep.Violations {
		t.Errorf("filtered check: %s", v)
	}

	if _, err := CheckScenarioSelected(t.Context(), sc, nil, nil, []string{"smart", "bogus"}); err == nil {
		t.Error("unknown policy name accepted")
	}

	// nil filter must stay equivalent to the full check.
	full, err := CheckScenarioSelected(t.Context(), sc, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full, CheckScenario(sc)) {
		t.Error("nil filter differs from CheckScenario")
	}
}

// The harness must catch a genuinely broken setup, not just pass
// everything: a scenario whose duration exceeds the retention deadline
// flags the no-refresh policy's violation via the checker-sanity
// invariant only when the checker works; here we instead break an
// invariant knowingly by shrinking the queue bound after the fact.
func TestHarnessDetectsViolations(t *testing.T) {
	sc := NewScenario(3)
	rep := CheckScenario(sc)
	if !rep.Ok() {
		t.Skipf("seed 3 unexpectedly dirty: %v", rep.Violations)
	}
	// Lie about the queue depth: the recorded high-water mark must now
	// trip the queue-depth invariant (proves the invariant is live).
	broken := sc
	broken.Cfg.Smart.QueueDepth = 0
	broken.Cfg.Smart.Segments = 0 // invalid too: construction must be caught, not crash
	brokenRep := CheckScenario(broken)
	if brokenRep.Ok() {
		t.Fatal("harness reported a zero-depth, zero-segment config as clean")
	}
}
