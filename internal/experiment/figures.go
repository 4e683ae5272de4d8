package experiment

import (
	"fmt"
	"io"
	"sort"

	"smartrefresh/internal/config"
	"smartrefresh/internal/sim"
	"smartrefresh/internal/stats"
	"smartrefresh/internal/workload"
)

// Figure is one reproduced evaluation figure: a per-benchmark series in
// the paper's order, plus the measured and published aggregates.
type Figure struct {
	ID       string // e.g. "fig6"
	Title    string
	Unit     string
	Series   *stats.Series
	Baseline float64 // baseline line drawn in the refreshes/s figures (0 if none)

	MeasuredGMean float64
	PaperGMean    float64
}

// Format renders the figure as the table the paper's bar chart encodes.
func (f Figure) Format(w io.Writer) {
	fmt.Fprintf(w, "%s: %s [%s]\n", f.ID, f.Title, f.Unit)
	if f.Baseline > 0 {
		fmt.Fprintf(w, "  baseline = %.0f\n", f.Baseline)
	}
	for _, label := range f.Series.Labels() {
		v, _ := f.Series.Get(label)
		fmt.Fprintf(w, "  %-16s %12.2f\n", label, v)
	}
	fmt.Fprintf(w, "  %-16s %12.2f   (paper: %.2f)\n", "GMEAN", f.MeasuredGMean, f.PaperGMean)
}

// ConfigKind selects one of the evaluated module configurations: the
// paper's four plus the HMC-style vaulted stack of the scaling study.
type ConfigKind int

// The evaluated configurations.
const (
	Conv2GB ConfigKind = iota
	Conv4GB
	Stacked3D64
	Stacked3D32
	// HMC8V is the 8-vault x 4-layer stack; it runs through the
	// vault-parallel path and honours RunOptions.Shards.
	HMC8V
)

// String names the configuration.
func (c ConfigKind) String() string {
	switch c {
	case Conv2GB:
		return "2GB"
	case Conv4GB:
		return "4GB"
	case Stacked3D64:
		return "3D-64ms"
	case Stacked3D32:
		return "3D-32ms"
	case HMC8V:
		return "HMC-8V"
	default:
		return fmt.Sprintf("ConfigKind(%d)", int(c))
	}
}

// DRAM returns the preset for the configuration kind.
func (c ConfigKind) DRAM() config.DRAM {
	switch c {
	case Conv2GB:
		return config.Table1_2GB()
	case Conv4GB:
		return config.Table1_4GB()
	case Stacked3D64:
		return config.Table2_3D64(64 * sim.Millisecond)
	case Stacked3D32:
		return config.Table2_3D32()
	case HMC8V:
		return config.HMC8Vault()
	default:
		panic(fmt.Sprintf("experiment: unknown config kind %d", int(c)))
	}
}

// Stacked reports whether the configuration runs behind the 3D cache
// front-end.
func (c ConfigKind) Stacked() bool { return c == Stacked3D64 || c == Stacked3D32 }

// Suite runs benchmark sweeps and derives every figure. All simulation
// goes through its Engine, whose memoisation makes figures that share a
// sweep reuse one set of runs (Figures 6-8 share the 2 GB sweep, 9-11 the
// 4 GB sweep, 12-14 the 3D/64 ms sweep, 15-18 the 3D/32 ms sweep).
type Suite struct {
	// Benchmarks restricts the sweep (nil = all 32 paper benchmarks).
	Benchmarks []string
	// Opts tunes run windows (zero values = defaults).
	Opts RunOptions
	// Progress, when non-nil, receives one line per pair the first time a
	// configuration's sweep completes.
	Progress func(string)
	// Engine executes and memoises the sweep's runs. Leave nil for a
	// default engine (one worker per CPU); set it to share runs and
	// instrumentation with other consumers or to bound the worker count.
	// Its Ctx cancels in-flight sweeps: once it is done every
	// Sweep/figure call returns its error.
	Engine *Engine

	progressed map[ConfigKind]bool
}

// NewSuite builds an empty suite with default options.
func NewSuite() *Suite { return &Suite{} }

func (s *Suite) engine() *Engine {
	if s.Engine == nil {
		s.Engine = NewEngine(0)
	}
	return s.Engine
}

func (s *Suite) profiles() []workload.Profile {
	all := workload.Profiles()
	if s.Benchmarks == nil {
		return all
	}
	want := map[string]bool{}
	for _, b := range s.Benchmarks {
		want[b] = true
	}
	var out []workload.Profile
	for _, p := range all {
		if want[p.Name] {
			out = append(out, p)
		}
	}
	return out
}

// Sweep returns the pair metrics for a configuration, in the paper's
// benchmark order. The runs execute on the suite's engine, which
// parallelises them across its worker pool and memoises each (config,
// benchmark, policy) result, so repeated sweeps — every figure sharing a
// configuration — cost no further simulation. A non-nil error means the
// sweep did not complete — the engine's context was cancelled or a run
// failed — and no partial metrics are returned.
func (s *Suite) Sweep(kind ConfigKind) ([]PairMetrics, error) {
	profs := s.profiles()
	specs := make([]RunSpec, 0, 2*len(profs))
	for _, prof := range profs {
		for _, pol := range []PolicyKind{PolicyCBR, PolicySmart} {
			specs = append(specs, RunSpec{Config: kind, Benchmark: prof.Name, Policy: pol, Opts: s.Opts})
		}
	}
	results, err := s.engine().RunAll(specs)
	if err != nil {
		return nil, fmt.Errorf("experiment: sweep %v: %w", kind, err)
	}
	out := make([]PairMetrics, len(profs))
	for i := range profs {
		out[i] = PairFrom(results[2*i], results[2*i+1])
	}
	s.emitProgress(kind, out)
	return out, nil
}

// emitProgress reports each pair once per configuration, however many
// times figures re-derive the same sweep from the memoised runs.
func (s *Suite) emitProgress(kind ConfigKind, pairs []PairMetrics) {
	if s.Progress == nil || s.progressed[kind] {
		return
	}
	if s.progressed == nil {
		s.progressed = map[ConfigKind]bool{}
	}
	s.progressed[kind] = true
	for _, pm := range pairs {
		s.Progress(fmt.Sprintf("%s %s: -%.1f%% refreshes, -%.1f%% refresh energy, -%.1f%% total",
			kind, pm.Benchmark, pm.RefreshReductionPct, pm.RefreshEnergySavingPct, pm.TotalEnergySavingPct))
	}
}

func (s *Suite) series(kind ConfigKind, id string, pick func(PairMetrics) float64) (*stats.Series, error) {
	pairs, err := s.Sweep(kind)
	if err != nil {
		return nil, err
	}
	out := stats.NewSeries(id)
	for _, pm := range pairs {
		out.Set(pm.Benchmark, pick(pm))
	}
	return out, nil
}

// Figure 6/9/12/15: refreshes per second under Smart Refresh against the
// CBR baseline rate.

// Fig6 reproduces Figure 6 (2 GB refreshes/s; paper GMEAN 691,435,
// baseline 2,048,000).
func (s *Suite) Fig6() (Figure, error) {
	return s.refreshFigure(Conv2GB, "fig6", "Number of refreshes per second, 2GB DRAM", 691435)
}

// Fig9 reproduces Figure 9 (4 GB; paper GMEAN 2,343,691, baseline
// 4,096,000).
func (s *Suite) Fig9() (Figure, error) {
	return s.refreshFigure(Conv4GB, "fig9", "Number of refreshes per second, 4GB DRAM", 2343691)
}

// Fig12 reproduces Figure 12 (64 MB 3D cache, 64 ms; paper GMEAN 795,411,
// baseline 1,024,000).
func (s *Suite) Fig12() (Figure, error) {
	return s.refreshFigure(Stacked3D64, "fig12", "Number of refreshes per second, 64MB 3D DRAM cache, 64ms", 795411)
}

// Fig15 reproduces Figure 15 (64 MB 3D cache, 32 ms; paper GMEAN
// 1,724,640, baseline 2,048,000).
func (s *Suite) Fig15() (Figure, error) {
	return s.refreshFigure(Stacked3D32, "fig15", "Number of refreshes per second, 64MB 3D DRAM cache, 32ms", 1724640)
}

func (s *Suite) refreshFigure(kind ConfigKind, id, title string, paperGMean float64) (Figure, error) {
	series, err := s.series(kind, id, func(pm PairMetrics) float64 { return pm.SmartRefreshesPerSec })
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID: id, Title: title, Unit: "refreshes/s",
		Series:        series,
		Baseline:      kind.DRAM().BaselineRefreshesPerSecond(),
		MeasuredGMean: series.GeoMean(),
		PaperGMean:    paperGMean,
	}, nil
}

// Figure 7/10/13/16: relative refresh energy savings.

// Fig7 reproduces Figure 7 (2 GB refresh energy savings; paper GMEAN
// 52.57%).
func (s *Suite) Fig7() (Figure, error) {
	return s.savingsFigure(Conv2GB, "fig7", "Relative refresh energy savings, 2GB DRAM",
		func(pm PairMetrics) float64 { return pm.RefreshEnergySavingPct }, 52.57)
}

// Fig10 reproduces Figure 10 (4 GB; paper GMEAN 23.76%).
func (s *Suite) Fig10() (Figure, error) {
	return s.savingsFigure(Conv4GB, "fig10", "Relative refresh energy savings, 4GB DRAM",
		func(pm PairMetrics) float64 { return pm.RefreshEnergySavingPct }, 23.76)
}

// Fig13 reproduces Figure 13 (3D 64 ms; paper GMEAN 21.91%).
func (s *Suite) Fig13() (Figure, error) {
	return s.savingsFigure(Stacked3D64, "fig13", "Relative refresh energy savings, 64MB 3D DRAM cache, 64ms",
		func(pm PairMetrics) float64 { return pm.RefreshEnergySavingPct }, 21.91)
}

// Fig16 reproduces Figure 16 (3D 32 ms; paper GMEAN 15.79%).
func (s *Suite) Fig16() (Figure, error) {
	return s.savingsFigure(Stacked3D32, "fig16", "Relative refresh energy savings, 64MB 3D DRAM cache, 32ms",
		func(pm PairMetrics) float64 { return pm.RefreshEnergySavingPct }, 15.79)
}

// Figure 8/11/14/17: relative total DRAM energy savings.

// Fig8 reproduces Figure 8 (2 GB total energy savings; paper GMEAN
// 12.13%).
func (s *Suite) Fig8() (Figure, error) {
	return s.savingsFigure(Conv2GB, "fig8", "Relative total energy savings, 2GB DRAM",
		func(pm PairMetrics) float64 { return pm.TotalEnergySavingPct }, 12.13)
}

// Fig11 reproduces Figure 11 (4 GB; paper GMEAN 9.10%).
func (s *Suite) Fig11() (Figure, error) {
	return s.savingsFigure(Conv4GB, "fig11", "Relative total energy savings, 4GB DRAM",
		func(pm PairMetrics) float64 { return pm.TotalEnergySavingPct }, 9.10)
}

// Fig14 reproduces Figure 14 (3D 64 ms; paper GMEAN 9.37%).
func (s *Suite) Fig14() (Figure, error) {
	return s.savingsFigure(Stacked3D64, "fig14", "Relative total energy savings, 64MB 3D DRAM cache, 64ms",
		func(pm PairMetrics) float64 { return pm.TotalEnergySavingPct }, 9.37)
}

// Fig17 reproduces Figure 17 (3D 32 ms; paper GMEAN 6.87%).
func (s *Suite) Fig17() (Figure, error) {
	return s.savingsFigure(Stacked3D32, "fig17", "Relative total energy savings, 64MB 3D DRAM cache, 32ms",
		func(pm PairMetrics) float64 { return pm.TotalEnergySavingPct }, 6.87)
}

// Fig18 reproduces Figure 18 (performance improvement on the 3D cache at
// 32 ms; paper GMEAN 0.11%, all below 1%).
func (s *Suite) Fig18() (Figure, error) {
	return s.savingsFigure(Stacked3D32, "fig18", "Performance improvement, 64MB 3D DRAM cache, 32ms",
		func(pm PairMetrics) float64 { return pm.PerfImprovementPct }, 0.11)
}

func (s *Suite) savingsFigure(kind ConfigKind, id, title string, pick func(PairMetrics) float64, paper float64) (Figure, error) {
	series, err := s.series(kind, id, pick)
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID: id, Title: title, Unit: "% savings",
		Series:        series,
		MeasuredGMean: series.GeoMean(),
		PaperGMean:    paper,
	}, nil
}

// figureFuncs maps figure identifiers to their constructors without
// executing any sweep.
func (s *Suite) figureFuncs() (order []string, funcs map[string]func() (Figure, error)) {
	funcs = map[string]func() (Figure, error){
		"fig6": s.Fig6, "fig7": s.Fig7, "fig8": s.Fig8,
		"fig9": s.Fig9, "fig10": s.Fig10, "fig11": s.Fig11,
		"fig12": s.Fig12, "fig13": s.Fig13, "fig14": s.Fig14,
		"fig15": s.Fig15, "fig16": s.Fig16, "fig17": s.Fig17,
		"fig18": s.Fig18,
	}
	order = []string{
		"fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
		"fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
	}
	return order, funcs
}

// FigureIDs lists the reproducible figure identifiers in paper order.
func (s *Suite) FigureIDs() []string {
	order, _ := s.figureFuncs()
	return order
}

// AllFigures produces every reproduced figure in paper order. On the
// first failure (cancellation included) it stops and returns that error.
func (s *Suite) AllFigures() ([]Figure, error) {
	order, funcs := s.figureFuncs()
	out := make([]Figure, 0, len(order))
	for _, id := range order {
		fig, err := funcs[id]()
		if err != nil {
			return nil, err
		}
		out = append(out, fig)
	}
	return out, nil
}

// FigureByID returns one figure by its identifier ("fig6".."fig18"),
// running only the sweep that figure needs.
func (s *Suite) FigureByID(id string) (Figure, error) {
	order, funcs := s.figureFuncs()
	if f, ok := funcs[id]; ok {
		return f()
	}
	known := append([]string(nil), order...)
	sort.Strings(known)
	return Figure{}, fmt.Errorf("experiment: unknown figure %q (known: %v)", id, known)
}
