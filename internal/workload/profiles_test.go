package workload

import (
	"testing"

	"smartrefresh/internal/sim"
)

func TestProfilesCountAndOrder(t *testing.T) {
	ps := Profiles()
	if len(ps) != 32 {
		t.Fatalf("profiles = %d, want 32 (6 Biobench + 10 SPLASH2 + 6 SPECint + 10 pairs)", len(ps))
	}
	suiteCounts := map[string]int{}
	for _, p := range ps {
		suiteCounts[p.Suite]++
	}
	want := map[string]int{
		SuiteBiobench: 6, SuiteSPLASH2: 10, SuiteSPECint: 6, SuiteTwoProc: 10,
	}
	for s, n := range want {
		if suiteCounts[s] != n {
			t.Errorf("suite %s has %d profiles, want %d", s, suiteCounts[s], n)
		}
	}
	// Figure order begins with Biobench's clustalw and ends with
	// vpr_twolf.
	if ps[0].Name != "clustalw" || ps[len(ps)-1].Name != "vpr_twolf" {
		t.Errorf("order: first %s last %s", ps[0].Name, ps[len(ps)-1].Name)
	}
}

func TestProfilesUniqueNames(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range Profiles() {
		if seen[p.Name] {
			t.Errorf("duplicate profile %q", p.Name)
		}
		seen[p.Name] = true
	}
}

func TestPaperAnchors(t *testing.T) {
	// Text anchors: fasta 26% and water-spatial 85.7% on the 2 GB module;
	// fasta 4% and mummer 42% on the 3D cache.
	fasta, err := ByName("fasta")
	if err != nil {
		t.Fatal(err)
	}
	if fasta.MainCoverage != 0.26 || fasta.StackedCoverage != 0.04 {
		t.Errorf("fasta coverage = %v/%v", fasta.MainCoverage, fasta.StackedCoverage)
	}
	ws, _ := ByName("water-spatial")
	if ws.MainCoverage != 0.857 {
		t.Errorf("water-spatial coverage = %v", ws.MainCoverage)
	}
	mummer, _ := ByName("mummer")
	if mummer.StackedCoverage != 0.42 {
		t.Errorf("mummer 3D coverage = %v", mummer.StackedCoverage)
	}
}

func TestAverageCoverageMatchesPaper(t *testing.T) {
	// The paper's average reduction on 2 GB is 59.3%; the calibration
	// targets must average close to that.
	var sum float64
	ps := Profiles()
	for _, p := range ps {
		sum += p.MainCoverage
	}
	avg := sum / float64(len(ps))
	if avg < 0.55 || avg > 0.65 {
		t.Errorf("mean main coverage %.3f, want near 0.593", avg)
	}
}

func TestAllSpecsValid(t *testing.T) {
	for _, p := range Profiles() {
		if err := p.MainSpec().Validate(); err != nil {
			t.Errorf("%s main spec: %v", p.Name, err)
		}
		if err := p.StackedSpec().Validate(); err != nil {
			t.Errorf("%s stacked spec: %v", p.Name, err)
		}
	}
	if err := Idle().MainSpec().Validate(); err != nil {
		t.Errorf("idle spec: %v", err)
	}
}

func TestSweepPeriodsKeepRowsAlive(t *testing.T) {
	// Main sweep must beat 87.5% of 64 ms; the stacked fast region must
	// beat 87.5% of 32 ms and the slow region 87.5% of 64 ms (the design
	// behind the Figure 15 reduction being a fraction of Figure 12's).
	for _, p := range Profiles() {
		m := p.MainSpec()
		limit := sim.Duration(float64(64*sim.Millisecond) * 0.875)
		if sim.Duration(float64(m.SweepPeriod)*(1+2*m.JitterFraction)) > limit {
			t.Errorf("%s main sweep %v too slow for 64ms interval", p.Name, m.SweepPeriod)
		}
		fast, slow := p.StackedSpecs()
		limit32 := sim.Duration(float64(32*sim.Millisecond) * 0.875)
		if sim.Duration(float64(fast.SweepPeriod)*(1+2*fast.JitterFraction)) > limit32 {
			t.Errorf("%s stacked fast sweep %v too slow for 32ms interval", p.Name, fast.SweepPeriod)
		}
		if sim.Duration(float64(slow.SweepPeriod)*(1+2*slow.JitterFraction)) > limit {
			t.Errorf("%s stacked slow sweep %v too slow for 64ms interval", p.Name, slow.SweepPeriod)
		}
	}
}

func TestFootprintsWithinDevices(t *testing.T) {
	for _, p := range Profiles() {
		if f := p.MainSpec().FootprintBytes; f > 2<<30 {
			t.Errorf("%s main footprint %d exceeds 2 GB", p.Name, f)
		}
		fast, slow := p.StackedSpecs()
		if f := fast.FootprintBytes + slow.FootprintBytes; f > 64<<20 {
			t.Errorf("%s stacked footprint %d exceeds 64 MB", p.Name, f)
		}
	}
}

func TestStackedRegionsDisjointAndComplete(t *testing.T) {
	p, _ := ByName("mummer")
	fast, slow := p.StackedSpecs()
	total := fast.FootprintBytes + slow.FootprintBytes
	wantRows := int64(p.StackedCoverage * float64(int64(64)<<20) / 1024)
	gotRows := total / 1024
	if gotRows < wantRows-2 || gotRows > wantRows+2 {
		t.Errorf("stacked rows = %d, want ~%d", gotRows, wantRows)
	}
	// The merged source must produce addresses from both regions and
	// never beyond the combined footprint.
	src := p.NewSource(true)
	seenFast, seenSlow := false, false
	for i := 0; i < 20000; i++ {
		r, ok := src.Next()
		if !ok {
			break
		}
		if r.Addr >= uint64(total) {
			t.Fatalf("address %#x beyond combined footprint %#x", r.Addr, total)
		}
		if r.Addr < uint64(fast.FootprintBytes) {
			seenFast = true
		} else {
			seenSlow = true
		}
	}
	if !seenFast || !seenSlow {
		t.Errorf("merged source did not cover both regions (fast=%v slow=%v)", seenFast, seenSlow)
	}
}

func TestCoverageToFootprintArithmetic(t *testing.T) {
	p, _ := ByName("water-spatial")
	spec := p.MainSpec()
	// 85.7% of 131072 rows of 16 KB each, rounded down to a row multiple.
	frac := 0.857
	wantRows := int64(frac * float64(int64(2)<<30) / 16384)
	if spec.Rows() < wantRows-1 || spec.Rows() > wantRows+1 {
		t.Errorf("water-spatial rows = %d, want ~%d", spec.Rows(), wantRows)
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestNamesMatchProfiles(t *testing.T) {
	names := Names()
	ps := Profiles()
	if len(names) != len(ps) {
		t.Fatal("length mismatch")
	}
	for i := range names {
		if names[i] != ps[i].Name {
			t.Errorf("names[%d] = %s != %s", i, names[i], ps[i].Name)
		}
	}
}

func TestSeedsDistinctAndStable(t *testing.T) {
	seen := map[uint64]string{}
	for _, p := range Profiles() {
		s := p.Seed()
		if other, dup := seen[s]; dup {
			t.Errorf("seed collision between %s and %s", p.Name, other)
		}
		seen[s] = p.Name
		if p.Seed() != s {
			t.Errorf("%s seed unstable", p.Name)
		}
	}
}

func TestIdleProfileDensity(t *testing.T) {
	idle := Idle()
	spec := idle.MainSpec()
	// Restores per 64 ms interval (about 2 per sweep touch: open + close)
	// must stay below 1% of 131072 rows to trip the section 4.6 disable.
	touchesPerInterval := float64(spec.Rows()) * float64(64*sim.Millisecond) / float64(spec.SweepPeriod)
	density := 2 * touchesPerInterval / 131072
	if density >= 0.01 {
		t.Errorf("idle restore density %.4f not below the 1%% disable threshold", density)
	}
}
