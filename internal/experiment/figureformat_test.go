package experiment_test

import (
	"strings"
	"testing"

	"smartrefresh/internal/experiment"
	"smartrefresh/internal/report"
	"smartrefresh/internal/sim"
)

// Figure 6's table row reaches the text report: its identifier, the
// 2 GB baseline line and the paper's GMEAN.
func TestFigureFormat(t *testing.T) {
	s := experiment.NewSuite()
	s.Benchmarks = []string{"fasta"}
	s.Opts = experiment.RunOptions{Warmup: 64 * sim.Millisecond, Measure: 128 * sim.Millisecond}
	fig6, err := s.FigureByID("fig6")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := report.WriteFigure(&sb, fig6, report.Text); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"fig6", "baseline = 2048000", "fasta", "GMEAN", "paper: 691435"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted figure missing %q:\n%s", want, out)
		}
	}
}
