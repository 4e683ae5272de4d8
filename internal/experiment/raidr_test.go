package experiment

import (
	"strings"
	"testing"

	"smartrefresh/internal/sim"
	"smartrefresh/internal/workload"
)

func TestRAIDRStudy(t *testing.T) {
	prof, _ := workload.ByName("gcc")
	pts, err := RAIDRStudy(nil, prof, []int{1, 3}, []float64{0, 0.1},
		workload.VRTSpec{FlipFraction: 0.05, Period: 128 * sim.Millisecond}, fastOpts(false))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5 { // baseline + 2 bins x 2 errors
		t.Fatalf("points = %d, want 5", len(pts))
	}
	base := pts[0]
	if base.Policy != "cbr" || base.RefreshOps == 0 {
		t.Fatalf("baseline row wrong: %+v", base)
	}
	if !base.RetentionClean {
		t.Fatal("CBR baseline violated retention")
	}
	for _, p := range pts[1:] {
		if p.Policy != "raidr" {
			t.Fatalf("row policy %q", p.Policy)
		}
		// The tentpole acceptance property: every raidr run holds its
		// profiled retention deadline.
		if !p.RetentionClean {
			t.Fatalf("raidr bins=%d profErr=%.2f violated its profiled deadline", p.Bins, p.ProfileError)
		}
		if p.RefreshOps == 0 || p.BloomLookups == 0 {
			t.Fatalf("raidr run empty: %+v", p)
		}
		if p.Bins == 1 {
			// Single bin = everything at base rate: same volume as CBR.
			if p.RefreshOps != base.RefreshOps {
				t.Errorf("1-bin raidr %d refreshes, CBR %d", p.RefreshOps, base.RefreshOps)
			}
			continue
		}
		// Multi-bin: measurably fewer refreshes than CBR.
		if p.RefreshOps >= base.RefreshOps {
			t.Errorf("bins=%d profErr=%.2f: raidr %d refreshes >= CBR %d",
				p.Bins, p.ProfileError, p.RefreshOps, base.RefreshOps)
		}
		if p.RefreshReductionPct <= 5 {
			t.Errorf("bins=%d reduction only %.2f%%", p.Bins, p.RefreshReductionPct)
		}
		if p.FilterBytes <= 0 {
			t.Errorf("no filter storage reported: %+v", p)
		}
	}

	// Profile error pushes rows to weaker bins than their true retention:
	// at-risk rows must appear with the knob on and VRT flips present,
	// and the erroneous profile must not refresh *more* than the clean one.
	var clean, erred *RAIDRPoint
	for i := range pts[1:] {
		p := &pts[1+i]
		if p.Bins != 3 {
			continue
		}
		if p.ProfileError == 0 {
			clean = p
		} else {
			erred = p
		}
	}
	if clean == nil || erred == nil {
		t.Fatal("missing 3-bin points")
	}
	if erred.AtRiskRows <= clean.AtRiskRows {
		t.Errorf("profile error did not raise at-risk rows: clean=%d erred=%d",
			clean.AtRiskRows, erred.AtRiskRows)
	}
	if clean.AtRiskRows == 0 {
		// VRT alone (no profile error) already endangers flipped rows
		// whose weakened retention undercuts their bin.
		t.Error("VRT flips produced no at-risk rows")
	}
	if erred.TotalRows != clean.TotalRows || clean.TotalRows == 0 {
		t.Errorf("row totals wrong: %d vs %d", clean.TotalRows, erred.TotalRows)
	}

	table := FormatRAIDRStudy(pts)
	if !strings.Contains(table, "raidr") || !strings.Contains(table, "cbr") {
		t.Errorf("table missing rows:\n%s", table)
	}
}

func TestRAIDRStudyRejectsBadBinCount(t *testing.T) {
	prof, _ := workload.ByName("gcc")
	defer func() {
		if recover() == nil {
			t.Fatal("bin count 6 accepted")
		}
	}()
	if _, err := RAIDRStudy(nil, prof, []int{6}, []float64{0}, workload.VRTSpec{}, fastOpts(false)); err != nil {
		t.Fatal(err)
	}
}
