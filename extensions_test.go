package smartrefresh_test

import (
	"strings"
	"testing"

	"smartrefresh"
)

func TestThermalAPI(t *testing.T) {
	if smartrefresh.Stacked3DTemp != 90.27 {
		t.Errorf("Stacked3DTemp = %v", smartrefresh.Stacked3DTemp)
	}
	base := 64 * smartrefresh.Millisecond
	if got := smartrefresh.RefreshIntervalAt(base, 45); got != base {
		t.Errorf("interval at 45C = %v", got)
	}
	if got := smartrefresh.RefreshIntervalAt(base, smartrefresh.Stacked3DTemp); got != base/2 {
		t.Errorf("interval at stack temp = %v", got)
	}
	if temp := smartrefresh.StackLayerTemp(1); temp < 90 || temp > 91 {
		t.Errorf("layer 1 temp = %v", temp)
	}
	// The Table 2 32 ms preset is derived from exactly this rule.
	if smartrefresh.Table2_3D32().Timing.RefreshInterval != base/2 {
		t.Error("3D-32ms preset does not follow the thermal rule")
	}
}

func TestRetentionAwareAPI(t *testing.T) {
	cfg := smartrefresh.Table1_2GB()
	cfg.Geometry.Rows = 64 // keep the test light
	cfg.Power.Geometry = cfg.Geometry
	cfg.Smart.SelfDisable = false
	rmap := smartrefresh.NewRetentionMap(cfg.Geometry, smartrefresh.DefaultRetentionClasses(), 1)
	p := smartrefresh.NewRetentionAwarePolicy(cfg, rmap)
	if p.Name() != "smart-retention" {
		t.Errorf("name = %q", p.Name())
	}
	// Idle: fewer refreshes than the base rate over a few intervals.
	interval := cfg.RefreshInterval()
	p.Advance(4*interval, nil)
	before := p.Stats().RefreshesRequested
	p.Advance(8*interval, nil)
	got := p.Stats().RefreshesRequested - before
	baseline := uint64(4 * cfg.Geometry.TotalRows())
	if got >= baseline {
		t.Errorf("retention-aware idle refreshes %d >= baseline %d", got, baseline)
	}
}

func TestReportAPI(t *testing.T) {
	if _, err := smartrefresh.NewSuite().FigureByID("nope"); err == nil {
		t.Error("unknown figure accepted")
	}
	s := smartrefresh.NewSuite()
	s.Benchmarks = []string{"fasta"}
	s.Opts = smartrefresh.RunOptions{
		Warmup:  64 * smartrefresh.Millisecond,
		Measure: 64 * smartrefresh.Millisecond,
	}
	fig, err := s.FigureByID("fig6")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := smartrefresh.WriteFigure(&sb, fig, smartrefresh.FormatCSV); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "fig6,fasta,") {
		t.Errorf("CSV output wrong:\n%s", sb.String())
	}
	sb.Reset()
	if err := smartrefresh.WriteFigure(&sb, fig, smartrefresh.FormatMarkdown); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "### fig6") {
		t.Errorf("markdown output wrong:\n%s", sb.String())
	}
}

func TestPerBankAPI(t *testing.T) {
	cfg := smartrefresh.Table1_2GB()
	cfg.Geometry.Rows = 64 // keep the test light
	cfg.Power.Geometry = cfg.Geometry
	pb := smartrefresh.DefaultPerBankConfig()
	if pb.MaxPostpone != 8 || pb.MaxPullIn != 8 {
		t.Errorf("per-bank defaults = %+v", pb)
	}
	darp := smartrefresh.NewDARPPolicy(cfg, pb)
	sarp := smartrefresh.NewSARPPolicy(cfg, pb)
	if darp.Name() != "darp" || sarp.Name() != "sarp" {
		t.Errorf("names = %q, %q", darp.Name(), sarp.Name())
	}
	// Both walk the per-bank cadence: one refresh per bank slot over an
	// idle interval (DARP's pull-in may run ahead by the credit).
	interval := cfg.RefreshInterval()
	cmds := sarp.Advance(smartrefresh.Time(interval), nil)
	if len(cmds) == 0 {
		t.Fatal("sarp emitted nothing over a full interval")
	}
	for _, c := range cmds {
		if !c.Overlap {
			t.Fatal("sarp command not overlapped")
		}
		if c.Row != -1 {
			t.Fatal("per-bank refresh should be row-oblivious")
		}
	}
	if cmds = darp.Advance(smartrefresh.Time(interval), nil); len(cmds) == 0 {
		t.Fatal("darp emitted nothing over a full interval")
	}
	if st := darp.Stats(); st.RefreshesPulledIn == 0 {
		t.Errorf("idle darp never pulled in: %+v", st)
	}
	if smartrefresh.CmdRefreshPB.String() != "REF-PB" ||
		smartrefresh.CmdRefreshAB.String() != "REF-AB" {
		t.Error("per-bank trace kinds misnamed")
	}
	if smartrefresh.PolicyDARP.String() != "darp" || smartrefresh.PolicySARP.String() != "sarp" {
		t.Error("per-bank policy kinds misnamed")
	}
}

func TestAblationAPIs(t *testing.T) {
	prof, err := smartrefresh.ProfileByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	opts := smartrefresh.RunOptions{
		Warmup:  64 * smartrefresh.Millisecond,
		Measure: 64 * smartrefresh.Millisecond,
	}
	if pts := smartrefresh.StaggerStudy(smartrefresh.Conv2GB); len(pts) != 2 {
		t.Errorf("stagger study points = %d", len(pts))
	}
	if pts, err := smartrefresh.BusOverheadStudy(nil, prof, opts); err != nil || len(pts) != 2 {
		t.Errorf("bus study points = %d, error %v", len(pts), err)
	}
	if pts, err := smartrefresh.RetentionAwareStudy(nil, prof, opts); err != nil || len(pts) != 3 {
		t.Errorf("retention study points = %d, error %v", len(pts), err)
	}
	pts, err := smartrefresh.RefreshParallelismStudy(nil, prof, opts)
	if err != nil || len(pts) != 7 {
		t.Fatalf("parallelism study points = %d, error %v", len(pts), err)
	}
	if out := smartrefresh.FormatRefreshParallelismStudy(pts); !strings.Contains(out, "darp") {
		t.Errorf("parallelism table missing darp:\n%s", out)
	}
}
