package experiment

import (
	"bufio"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The figure table and EXPERIMENTS.md's "Headline comparison" table agree:
// one row per figure in paper order, the same published GMEAN, and the
// same baseline line on the refresh-rate figures.
func TestFigureTableMatchesExperimentsDoc(t *testing.T) {
	f, err := os.Open("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type docRow struct {
		id, metric, paper string
	}
	var rows []docRow
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "## ") {
			in = strings.HasPrefix(line, "## Headline comparison")
			continue
		}
		if !in || !strings.HasPrefix(line, "| Fig ") {
			continue
		}
		cells := strings.Split(line, "|")
		if len(cells) < 5 {
			t.Fatalf("short table row %q", line)
		}
		id := "fig" + strings.TrimPrefix(strings.TrimSpace(cells[1]), "Fig ")
		rows = append(rows, docRow{id, strings.TrimSpace(cells[2]), strings.TrimSpace(cells[3])})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(figureTable) {
		t.Fatalf("EXPERIMENTS.md has %d headline rows, the figure table %d", len(rows), len(figureTable))
	}
	number := func(s string) float64 {
		t.Helper()
		v, err := strconv.ParseFloat(strings.ReplaceAll(strings.TrimSuffix(s, " %"), ",", ""), 64)
		if err != nil {
			t.Fatalf("unparsable number %q: %v", s, err)
		}
		return v
	}
	baselineRE := regexp.MustCompile(`\(baseline ([0-9,]+)\)`)
	for i, fig := range figureTable {
		row := rows[i]
		if row.id != fig.id {
			t.Errorf("headline row %d is %s, the figure table's is %s", i, row.id, fig.id)
			continue
		}
		if got := number(row.paper); got != fig.paper {
			t.Errorf("%s: EXPERIMENTS.md paper GMEAN %v, figure table %v", fig.id, got, fig.paper)
		}
		m := baselineRE.FindStringSubmatch(row.metric)
		switch {
		case fig.metric.baseline && m == nil:
			t.Errorf("%s: EXPERIMENTS.md gives no baseline", fig.id)
		case !fig.metric.baseline && m != nil:
			t.Errorf("%s: EXPERIMENTS.md gives a baseline the figure does not draw", fig.id)
		case m != nil:
			if got, want := number(m[1]), fig.kind.DRAM().BaselineRefreshesPerSecond(); got != want {
				t.Errorf("%s: EXPERIMENTS.md baseline %v, configuration %v", fig.id, got, want)
			}
		}
	}
}
