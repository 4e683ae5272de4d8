package main

import (
	"context"
	"strings"
	"testing"

	"smartrefresh/internal/check"
)

func TestCleanSweepExitsZero(t *testing.T) {
	var out strings.Builder
	if code := run(context.Background(), []string{"-seeds", "4", "-presets=false"}, &out); code != 0 {
		t.Fatalf("exit %d on a clean sweep:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "4 scenarios, 0 dirty, 0 violations") {
		t.Errorf("summary missing or wrong:\n%s", out.String())
	}
}

// The four random vault stacks ride in the fixed scenario set -presets
// selects, checked by the same sweep as every other scenario and counted
// in its summary.
func TestVaultSweepIncluded(t *testing.T) {
	var out strings.Builder
	if code := run(context.Background(), []string{"-seeds", "0", "-v", "-policies", "smart,darp"}, &out); code != 0 {
		t.Fatalf("exit %d on the fixed scenario set:\n%s", code, out.String())
	}
	for _, want := range []string{"preset-hmc-8vault ", "vault-seed-1 ", "vault-seed-4 ", "darp:",
		"10 scenarios, 0 dirty, 0 violations"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("fixed scenario set output omits %q:\n%s", want, out.String())
		}
	}

	out.Reset()
	if code := run(context.Background(), []string{"-seeds", "1", "-presets=false", "-v"}, &out); code != 0 {
		t.Fatalf("exit %d:\n%s", code, out.String())
	}
	if strings.Contains(out.String(), "vault-seed") {
		t.Errorf("-presets=false still ran the vault stacks:\n%s", out.String())
	}
}

func TestVerboseListsEveryScenario(t *testing.T) {
	var out strings.Builder
	if code := run(context.Background(), []string{"-seeds", "2", "-presets=false", "-v"}, &out); code != 0 {
		t.Fatalf("exit %d:\n%s", code, out.String())
	}
	for _, name := range []string{"seed-1", "seed-2"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("verbose output omits %s:\n%s", name, out.String())
		}
	}
	if !strings.Contains(out.String(), "smart:") {
		t.Errorf("verbose output omits per-policy refresh counts:\n%s", out.String())
	}
}

// The report order must match the seed order for any worker count, so a
// sweep's output is reproducible and diffable.
func TestWorkerCountDoesNotReorder(t *testing.T) {
	var serial, parallel strings.Builder
	if code := run(context.Background(), []string{"-seeds", "6", "-presets=false", "-v", "-workers", "1"}, &serial); code != 0 {
		t.Fatalf("serial sweep exit %d", code)
	}
	if code := run(context.Background(), []string{"-seeds", "6", "-presets=false", "-v", "-workers", "4"}, &parallel); code != 0 {
		t.Fatalf("parallel sweep exit %d", code)
	}
	if serial.String() != parallel.String() {
		t.Errorf("output depends on worker count:\n--- workers=1\n%s--- workers=4\n%s",
			serial.String(), parallel.String())
	}
}

func TestBadFlagsExitTwo(t *testing.T) {
	var out strings.Builder
	if code := run(context.Background(), []string{"-no-such-flag"}, &out); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
	out.Reset()
	if code := run(context.Background(), []string{"-seeds", "-3"}, &out); code != 2 {
		t.Errorf("negative seed count: exit %d, want 2", code)
	}
}

// The fingerprint is stable across worker counts (the report order is)
// and printed only when requested.
func TestFingerprintStableAcrossWorkers(t *testing.T) {
	fp := func(workers string) string {
		var out strings.Builder
		if code := run(context.Background(),
			[]string{"-seeds", "3", "-presets=false", "-fingerprint", "-workers", workers}, &out); code != 0 {
			t.Fatalf("exit %d:\n%s", code, out.String())
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "simcheck: fingerprint "); ok {
				return rest
			}
		}
		t.Fatalf("no fingerprint line:\n%s", out.String())
		return ""
	}
	if a, b := fp("1"), fp("4"); a != b {
		t.Errorf("fingerprint depends on worker count: %s vs %s", a, b)
	}

	var out strings.Builder
	if code := run(context.Background(), []string{"-seeds", "1", "-presets=false"}, &out); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if strings.Contains(out.String(), "fingerprint") {
		t.Error("fingerprint printed without -fingerprint")
	}
}

// The -policies flag restricts the differential set to the named
// policies; bad names exit 2 before any simulation runs.
func TestPoliciesFilter(t *testing.T) {
	var out strings.Builder
	args := []string{"-seeds", "2", "-presets=false", "-v", "-policies", "darp, sarp"}
	if code := run(context.Background(), args, &out); code != 0 {
		t.Fatalf("exit %d on filtered sweep:\n%s", code, out.String())
	}
	for _, want := range []string{"darp:", "sarp:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("filtered output omits %s:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "smart:") {
		t.Errorf("filtered sweep still ran smart:\n%s", out.String())
	}

	out.Reset()
	if code := run(context.Background(), []string{"-policies", "bogus"}, &out); code != 2 {
		t.Errorf("unknown policy: exit %d, want 2:\n%s", code, out.String())
	}
	out.Reset()
	if code := run(context.Background(), []string{"-policies", " , "}, &out); code != 2 {
		t.Errorf("empty policy list: exit %d, want 2", code)
	}
}

// A scenario on which -policies leaves nothing to run — the
// retention-map policies on a vault stack — is listed as skipped and
// counted, not reported clean; a sweep whose every scenario was skipped
// checked nothing and fails.
func TestPoliciesFilterSkipsRefusedScenarios(t *testing.T) {
	var out strings.Builder
	if code := run(context.Background(), []string{"-seeds", "0", "-v", "-policies", "raidr"}, &out); code != 0 {
		t.Fatalf("exit %d with the conventional presets checked:\n%s", code, out.String())
	}
	for _, want := range []string{
		"preset-hmc-8vault        skipped", "vault-seed-1             skipped",
		"preset-table1-2gb        ok [raidr:",
		"10 scenarios, 0 dirty, 0 violations, 6 skipped",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output omits %q:\n%s", want, out.String())
		}
	}

	skipped := check.Report{Scenario: check.NewVaultScenario(1), Skipped: true}
	clean := check.Report{Scenario: check.NewScenario(1), Runs: []check.PolicyRun{{Policy: "raidr"}}}
	for _, tc := range []struct {
		reports []check.Report
		code    int
		summary string
	}{
		{[]check.Report{skipped, skipped}, 2, "2 scenarios, 0 dirty, 0 violations, 2 skipped"},
		{[]check.Report{skipped, clean}, 0, "2 scenarios, 0 dirty, 0 violations, 1 skipped"},
		{nil, 0, "0 scenarios, 0 dirty, 0 violations, 0 skipped"},
	} {
		out.Reset()
		if code := summarize(&out, tc.reports, false); code != tc.code {
			t.Errorf("%s: exit %d, want %d", tc.summary, code, tc.code)
		}
		if !strings.Contains(out.String(), tc.summary) {
			t.Errorf("summary %q missing:\n%s", tc.summary, out.String())
		}
	}
}

// A cancelled sweep exits 130 and reports the interruption instead of a
// (misleadingly clean) summary line.
func TestInterruptedSweepExits130(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out strings.Builder
	if code := run(ctx, []string{"-seeds", "4", "-presets=false"}, &out); code != 130 {
		t.Fatalf("cancelled sweep exit %d, want 130:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "interrupted") {
		t.Errorf("no interruption notice:\n%s", out.String())
	}
	if strings.Contains(out.String(), "0 dirty, 0 violations") {
		t.Errorf("cancelled sweep printed a clean summary:\n%s", out.String())
	}
}
