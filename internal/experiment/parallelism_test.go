package experiment

import (
	"strings"
	"testing"

	"smartrefresh/internal/sim"
	"smartrefresh/internal/workload"
)

// The refresh-access-parallelism study is the PR's acceptance gate: on a
// standard benchmark stream, DARP's demand-dodging per-bank schedule must
// cut refresh-induced demand stall below the distributed-CBR baseline,
// and SARP must issue every refresh in the overlapped form.
func TestRefreshParallelismStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module study; skipped in -short")
	}
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	opts := RunOptions{
		Warmup:  sim.Duration(40 * sim.Millisecond),
		Measure: sim.Duration(80 * sim.Millisecond),
	}
	points, err := RefreshParallelismStudy(nil, prof, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 7 {
		t.Fatalf("study returned %d points, want 7", len(points))
	}
	byName := map[string]RefreshParallelismPoint{}
	for _, p := range points {
		byName[p.Policy] = p
	}
	for _, name := range []string{"none", "cbr", "smart", "burst", "oracle", "darp", "sarp"} {
		if _, ok := byName[name]; !ok {
			t.Fatalf("study missing policy %q", name)
		}
	}

	none, cbr, darp, sarp := byName["none"], byName["cbr"], byName["darp"], byName["sarp"]
	if none.RefreshStall != 0 || none.RefreshOps != 0 {
		t.Errorf("no-refresh floor not clean: %+v", none)
	}
	if cbr.RefreshStall == 0 {
		t.Fatal("CBR baseline shows no refresh-induced stall; study cannot discriminate")
	}

	// The acceptance criterion: DARP reduces refresh-induced stall vs
	// distributed CBR on a standard benchmark config.
	if darp.RefreshStall >= cbr.RefreshStall {
		t.Errorf("darp refresh stall %v not below cbr %v", darp.RefreshStall, cbr.RefreshStall)
	}
	if darp.StallReductionPct <= 0 {
		t.Errorf("darp stall reduction %.2f%% not positive", darp.StallReductionPct)
	}
	if darp.PerBankOps == 0 || darp.PerBankOps != darp.RefreshOps {
		t.Errorf("darp refreshes not all per-bank: %d of %d", darp.PerBankOps, darp.RefreshOps)
	}
	if darp.Postponed == 0 {
		t.Error("darp never postponed under benchmark traffic")
	}
	if darp.OverlapOps != 0 {
		t.Errorf("darp issued %d overlapped refreshes; overlap is SARP's form", darp.OverlapOps)
	}

	if sarp.RefreshStall >= cbr.RefreshStall {
		t.Errorf("sarp refresh stall %v not below cbr %v", sarp.RefreshStall, cbr.RefreshStall)
	}
	if sarp.PerBankOps == 0 || sarp.OverlapOps != sarp.PerBankOps {
		t.Errorf("sarp refreshes not all overlapped per-bank: %+v", sarp)
	}

	// Per-bank refresh cannot skip rows, so its op count stays at nominal
	// CBR scale (within the postpone/pull-in skew), unlike Smart Refresh.
	skew := uint64(2 * 16 * 16) // banks × (MaxPostpone+MaxPullIn), generous
	if darp.RefreshOps+skew < cbr.RefreshOps || darp.RefreshOps > cbr.RefreshOps+skew {
		t.Errorf("darp ops %d far from cbr nominal %d", darp.RefreshOps, cbr.RefreshOps)
	}

	table := FormatRefreshParallelismStudy(points)
	for _, want := range []string{"policy", "darp", "sarp", "reduction%"} {
		if !strings.Contains(table, want) {
			t.Errorf("formatted study missing %q:\n%s", want, table)
		}
	}
}
