// Package report renders experiment results as text, CSV, Markdown and
// JSON, so the regenerated figures can be diffed, plotted, or pasted into
// documents.
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"smartrefresh/internal/experiment"
)

// Format selects an output format.
type Format int

// Supported formats.
const (
	Text Format = iota
	CSV
	Markdown
	JSON
)

// ParseFormat maps a flag value to a Format.
func ParseFormat(s string) (Format, error) {
	switch strings.ToLower(s) {
	case "text", "":
		return Text, nil
	case "csv":
		return CSV, nil
	case "markdown", "md":
		return Markdown, nil
	case "json":
		return JSON, nil
	default:
		return 0, fmt.Errorf("report: unknown format %q (want text, csv, markdown or json)", s)
	}
}

// WriteFigure renders one figure in the chosen format.
func WriteFigure(w io.Writer, fig experiment.Figure, format Format) error {
	switch format {
	case Text:
		return writeFigureText(w, fig)
	case CSV:
		return writeFigureCSV(w, fig)
	case Markdown:
		return writeFigureMarkdown(w, fig)
	case JSON:
		return writeFigureJSON(w, fig)
	default:
		return fmt.Errorf("report: unknown format %d", int(format))
	}
}

// writeFigureText renders the figure as the table the paper's bar chart
// encodes.
func writeFigureText(w io.Writer, fig experiment.Figure) error {
	if _, err := fmt.Fprintf(w, "%s: %s [%s]\n", fig.ID, fig.Title, fig.Unit); err != nil {
		return err
	}
	if fig.Baseline > 0 {
		if _, err := fmt.Fprintf(w, "  baseline = %.0f\n", fig.Baseline); err != nil {
			return err
		}
	}
	for _, label := range fig.Series.Labels() {
		v, _ := fig.Series.Get(label)
		if _, err := fmt.Fprintf(w, "  %-16s %12.2f\n", label, v); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "  %-16s %12.2f   (paper: %.2f)\n", "GMEAN", fig.MeasuredGMean, fig.PaperGMean)
	return err
}

// figureJSON is the stable JSON shape of a figure. Baseline is emitted
// unconditionally: a figure whose baseline series measured zero is a
// legitimate value (not "no baseline"), and omitempty would silently
// drop it from the wire shape consumers diff against.
type figureJSON struct {
	ID            string             `json:"id"`
	Title         string             `json:"title"`
	Unit          string             `json:"unit"`
	Baseline      float64            `json:"baseline"`
	Values        map[string]float64 `json:"values"`
	Order         []string           `json:"order"`
	MeasuredGMean float64            `json:"measured_gmean"`
	PaperGMean    float64            `json:"paper_gmean"`
}

func writeFigureJSON(w io.Writer, fig experiment.Figure) error {
	out := figureJSON{
		ID:            fig.ID,
		Title:         fig.Title,
		Unit:          fig.Unit,
		Baseline:      fig.Baseline,
		Values:        map[string]float64{},
		Order:         fig.Series.Labels(),
		MeasuredGMean: fig.MeasuredGMean,
		PaperGMean:    fig.PaperGMean,
	}
	for _, label := range fig.Series.Labels() {
		v, _ := fig.Series.Get(label)
		out.Values[label] = v
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func writeFigureCSV(w io.Writer, fig experiment.Figure) error {
	if _, err := fmt.Fprintf(w, "figure,benchmark,value,unit\n"); err != nil {
		return err
	}
	for _, label := range fig.Series.Labels() {
		v, _ := fig.Series.Get(label)
		if _, err := fmt.Fprintf(w, "%s,%s,%.4f,%s\n", fig.ID, csvEscape(label), v, csvEscape(fig.Unit)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s,GMEAN,%.4f,%s\n", fig.ID, fig.MeasuredGMean, csvEscape(fig.Unit)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s,GMEAN(paper),%.4f,%s\n", fig.ID, fig.PaperGMean, csvEscape(fig.Unit))
	return err
}

func writeFigureMarkdown(w io.Writer, fig experiment.Figure) error {
	if _, err := fmt.Fprintf(w, "### %s: %s\n\n", fig.ID, fig.Title); err != nil {
		return err
	}
	if fig.Baseline > 0 {
		if _, err := fmt.Fprintf(w, "Baseline: %.0f %s\n\n", fig.Baseline, fig.Unit); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "| benchmark | %s |\n|---|---:|\n", fig.Unit); err != nil {
		return err
	}
	for _, label := range fig.Series.Labels() {
		v, _ := fig.Series.Get(label)
		if _, err := fmt.Fprintf(w, "| %s | %.2f |\n", label, v); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "| **GMEAN** | **%.2f** (paper: %.2f) |\n\n",
		fig.MeasuredGMean, fig.PaperGMean)
	return err
}

// WriteEngineStats renders an engine's job counters: how many
// simulations ran, how many figure requests the memo served without
// simulating, and the summed per-job simulation wall time.
func WriteEngineStats(w io.Writer, st experiment.EngineStats, format Format) error {
	switch format {
	case Text:
		_, err := fmt.Fprintf(w, "engine: %d simulations run, %d memoised hits, %.2fs simulation wall time\n",
			st.Finished, st.CacheHits, st.SimWall.Seconds())
		return err
	case CSV:
		if _, err := fmt.Fprintln(w, "started,finished,cache_hits,sim_wall_seconds"); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%d,%d,%d,%.3f\n", st.Started, st.Finished, st.CacheHits, st.SimWall.Seconds())
		return err
	case Markdown:
		if _, err := fmt.Fprintln(w, "| simulations run | memoised hits | sim wall time |\n|---:|---:|---:|"); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "| %d | %d | %.2fs |\n", st.Finished, st.CacheHits, st.SimWall.Seconds())
		return err
	case JSON:
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(st)
	default:
		return fmt.Errorf("report: unknown format %d", int(format))
	}
}

// csvEscape quotes a field if it contains separators or quotes.
func csvEscape(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}
