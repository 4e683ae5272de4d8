package report

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"smartrefresh/internal/experiment"
	"smartrefresh/internal/stats"
)

func sampleFigure() experiment.Figure {
	s := stats.NewSeries("fig6")
	s.Set("fasta", 1515531)
	s.Set("gcc", 1433609)
	return experiment.Figure{
		ID: "fig6", Title: "Number of refreshes per second, 2GB DRAM",
		Unit: "refreshes/s", Series: s, Baseline: 2048000,
		MeasuredGMean: s.GeoMean(), PaperGMean: 691435,
	}
}

func TestParseFormat(t *testing.T) {
	cases := map[string]Format{
		"text": Text, "": Text, "csv": CSV, "CSV": CSV,
		"markdown": Markdown, "md": Markdown,
	}
	for in, want := range cases {
		got, err := ParseFormat(in)
		if err != nil || got != want {
			t.Errorf("ParseFormat(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseFormat("xml"); err == nil {
		t.Error("unknown format accepted")
	}
}

func TestWriteFigureCSV(t *testing.T) {
	var sb strings.Builder
	if err := WriteFigure(&sb, sampleFigure(), CSV); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"figure,benchmark,value,unit",
		"fig6,fasta,1515531.0000,refreshes/s",
		"fig6,GMEAN,",
		"fig6,GMEAN(paper),691435.0000",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("CSV missing %q:\n%s", want, out)
		}
	}
	// Every line has the same field count.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.Count(line, ",") != 3 {
			t.Errorf("CSV line with wrong field count: %q", line)
		}
	}
}

func TestWriteFigureMarkdown(t *testing.T) {
	var sb strings.Builder
	if err := WriteFigure(&sb, sampleFigure(), Markdown); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"### fig6:",
		"Baseline: 2048000",
		"| fasta | 1515531.00 |",
		"**GMEAN**",
		"paper: 691435.00",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
}

func TestWriteFigureText(t *testing.T) {
	var sb strings.Builder
	if err := WriteFigure(&sb, sampleFigure(), Text); err != nil {
		t.Fatal(err)
	}
	want := "fig6: Number of refreshes per second, 2GB DRAM [refreshes/s]\n" +
		"  baseline = 2048000\n" +
		"  fasta              1515531.00\n" +
		"  gcc                1433609.00\n" +
		"  GMEAN              1474000.98   (paper: 691435.00)\n"
	if got := sb.String(); got != want {
		t.Errorf("text output:\n%s\nwant:\n%s", got, want)
	}
}

func TestCSVEscape(t *testing.T) {
	if got := csvEscape("plain"); got != "plain" {
		t.Errorf("plain escaped: %q", got)
	}
	if got := csvEscape(`a,b`); got != `"a,b"` {
		t.Errorf("comma not escaped: %q", got)
	}
	if got := csvEscape(`say "hi"`); got != `"say ""hi"""` {
		t.Errorf("quotes not escaped: %q", got)
	}
}

func TestWriteFigureJSON(t *testing.T) {
	var sb strings.Builder
	if err := WriteFigure(&sb, sampleFigure(), JSON); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		ID       string             `json:"id"`
		Values   map[string]float64 `json:"values"`
		Order    []string           `json:"order"`
		Baseline float64            `json:"baseline"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, sb.String())
	}
	if decoded.ID != "fig6" || decoded.Values["fasta"] != 1515531 || decoded.Baseline != 2048000 {
		t.Errorf("decoded = %+v", decoded)
	}
	if len(decoded.Order) != 2 || decoded.Order[0] != "fasta" {
		t.Errorf("order = %v", decoded.Order)
	}
}

func TestUnknownFormatErrors(t *testing.T) {
	var sb strings.Builder
	if err := WriteFigure(&sb, sampleFigure(), Format(99)); err == nil {
		t.Error("unknown figure format accepted")
	}
}

func TestWriteEngineStats(t *testing.T) {
	st := experiment.EngineStats{Started: 8, Finished: 8, CacheHits: 18, SimWall: 2500 * time.Millisecond}

	var sb strings.Builder
	if err := WriteEngineStats(&sb, st, Text); err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); !strings.Contains(got, "8 simulations run") || !strings.Contains(got, "18 memoised hits") {
		t.Errorf("text output missing counters: %q", got)
	}

	sb.Reset()
	if err := WriteEngineStats(&sb, st, CSV); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 || lines[0] != "started,finished,cache_hits,sim_wall_seconds" {
		t.Fatalf("csv output = %q", sb.String())
	}
	if lines[1] != "8,8,18,2.500" {
		t.Errorf("csv row = %q", lines[1])
	}

	sb.Reset()
	if err := WriteEngineStats(&sb, st, Markdown); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "| 8 | 18 |") {
		t.Errorf("markdown output = %q", sb.String())
	}

	sb.Reset()
	if err := WriteEngineStats(&sb, st, JSON); err != nil {
		t.Fatal(err)
	}
	var back experiment.EngineStats
	if err := json.Unmarshal([]byte(sb.String()), &back); err != nil {
		t.Fatal(err)
	}
	if back != st {
		t.Errorf("json round trip = %+v, want %+v", back, st)
	}

	if err := WriteEngineStats(&sb, st, Format(99)); err == nil {
		t.Error("unknown engine-stats format accepted")
	}
}

// TestWriteFigureJSONGolden locks the exact wire shape — in particular a
// zero baseline must appear explicitly (a regression once hidden by
// omitempty: a figure whose baseline measured zero silently lost the
// key, so consumers could not tell "zero" from "absent").
func TestWriteFigureJSONGolden(t *testing.T) {
	s := stats.NewSeries("figX")
	s.Set("fasta", 2)
	fig := experiment.Figure{
		ID: "figX", Title: "t", Unit: "u", Series: s, Baseline: 0,
		MeasuredGMean: 2, PaperGMean: 3,
	}
	var sb strings.Builder
	if err := WriteFigure(&sb, fig, JSON); err != nil {
		t.Fatal(err)
	}
	want := `{
  "id": "figX",
  "title": "t",
  "unit": "u",
  "baseline": 0,
  "values": {
    "fasta": 2
  },
  "order": [
    "fasta"
  ],
  "measured_gmean": 2,
  "paper_gmean": 3
}
`
	if sb.String() != want {
		t.Errorf("figure JSON drifted:\n got: %s\nwant: %s", sb.String(), want)
	}
}
