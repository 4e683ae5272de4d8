package experiment

import (
	"fmt"
	"strconv"
	"strings"

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

// profiles resolves Benchmarks to profiles in the paper's benchmark
// order. A name that is not a benchmark is an error naming every such
// name: dropping it would shrink the sweep silently.
func (s *Suite) profiles() ([]workload.Profile, error) {
	all := workload.Profiles()
	if s.Benchmarks == nil {
		return all, nil
	}
	want := map[string]bool{}
	for _, b := range s.Benchmarks {
		want[b] = true
	}
	var out []workload.Profile
	for _, p := range all {
		if want[p.Name] {
			out = append(out, p)
			delete(want, p.Name)
		}
	}
	if len(want) > 0 {
		var unknown []string
		for _, b := range s.Benchmarks {
			if want[b] {
				unknown = append(unknown, strconv.Quote(b))
				delete(want, b)
			}
		}
		return nil, fmt.Errorf("experiment: unknown benchmarks %s", strings.Join(unknown, ", "))
	}
	return out, nil
}

// Sweep returns the pair metrics for a configuration, in the paper's
// benchmark order. The runs execute on the suite's engine, which
// parallelises them across its worker pool and memoises each (config,
// benchmark, policy) result, so repeated sweeps — every figure sharing a
// configuration — cost no further simulation. A non-nil error means the
// sweep did not complete — the engine's context was cancelled or a run
// failed — and no partial metrics are returned.
func (s *Suite) Sweep(kind ConfigKind) ([]PairMetrics, error) {
	profs, err := s.profiles()
	if err != nil {
		return nil, err
	}
	jobs := make([]Job, 0, 2*len(profs))
	for _, prof := range profs {
		for _, pol := range []PolicyKind{PolicyCBR, PolicySmart} {
			jobs = append(jobs, sweepJob(kind, prof, pol, s.Opts))
		}
	}
	eng := s.engine()
	results := eng.RunJobs(jobs)
	// A cancelled sweep reports the context's error, not each job's.
	err = eng.baseCtx().Err()
	if err == nil {
		err = jobsErr(results)
	}
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

// sweepJob is the job a sweep of kind runs for one benchmark and
// policy: the configuration's preset, behind the 3D-cache front-end when
// the configuration is stacked.
func sweepJob(kind ConfigKind, prof workload.Profile, pol PolicyKind, opts RunOptions) Job {
	opts.Stacked = kind.Stacked()
	return Job{Cfg: kind.DRAM(), Prof: prof, Policy: pol, Opts: opts}
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

// figureMetric is what a figure plots from each benchmark's pair.
type figureMetric struct {
	unit string
	pick func(PairMetrics) float64
	// baseline draws the configuration's CBR refresh rate as a line.
	baseline bool
}

// The metrics the paper's figures plot.
var (
	refreshRate = figureMetric{"refreshes/s", func(pm PairMetrics) float64 { return pm.SmartRefreshesPerSec }, true}
	refreshSave = figureMetric{"% savings", func(pm PairMetrics) float64 { return pm.RefreshEnergySavingPct }, false}
	totalSave   = figureMetric{"% savings", func(pm PairMetrics) float64 { return pm.TotalEnergySavingPct }, false}
	perfGain    = figureMetric{"% savings", func(pm PairMetrics) float64 { return pm.PerfImprovementPct }, false}
)

// figureSpec is one row of the figure table: a reproduced figure, the
// configuration whose sweep it reads, what it plots and the paper's
// published GMEAN.
type figureSpec struct {
	id     string
	kind   ConfigKind
	title  string
	metric figureMetric
	paper  float64
}

// figureTable lists the reproduced figures in paper order, one row
// each. EXPERIMENTS.md's headline table repeats the paper GMEANs and
// baselines; TestFigureTableMatchesExperimentsDoc keeps the two in step.
var figureTable = []figureSpec{
	{"fig6", Conv2GB, "Number of refreshes per second, 2GB DRAM", refreshRate, 691435},
	{"fig7", Conv2GB, "Relative refresh energy savings, 2GB DRAM", refreshSave, 52.57},
	{"fig8", Conv2GB, "Relative total energy savings, 2GB DRAM", totalSave, 12.13},
	{"fig9", Conv4GB, "Number of refreshes per second, 4GB DRAM", refreshRate, 2343691},
	{"fig10", Conv4GB, "Relative refresh energy savings, 4GB DRAM", refreshSave, 23.76},
	{"fig11", Conv4GB, "Relative total energy savings, 4GB DRAM", totalSave, 9.10},
	{"fig12", Stacked3D64, "Number of refreshes per second, 64MB 3D DRAM cache, 64ms", refreshRate, 795411},
	{"fig13", Stacked3D64, "Relative refresh energy savings, 64MB 3D DRAM cache, 64ms", refreshSave, 21.91},
	{"fig14", Stacked3D64, "Relative total energy savings, 64MB 3D DRAM cache, 64ms", totalSave, 9.37},
	{"fig15", Stacked3D32, "Number of refreshes per second, 64MB 3D DRAM cache, 32ms", refreshRate, 1724640},
	{"fig16", Stacked3D32, "Relative refresh energy savings, 64MB 3D DRAM cache, 32ms", refreshSave, 15.79},
	{"fig17", Stacked3D32, "Relative total energy savings, 64MB 3D DRAM cache, 32ms", totalSave, 6.87},
	{"fig18", Stacked3D32, "Performance improvement, 64MB 3D DRAM cache, 32ms", perfGain, 0.11},
}

// FigureIDs lists the reproducible figure identifiers in paper order.
func (s *Suite) FigureIDs() []string {
	ids := make([]string, len(figureTable))
	for i, f := range figureTable {
		ids[i] = f.id
	}
	return ids
}

// FigureByID returns one figure by its identifier ("fig6".."fig18"),
// running only the sweep that figure needs.
func (s *Suite) FigureByID(id string) (Figure, error) {
	for _, f := range figureTable {
		if f.id == id {
			return s.figure(f)
		}
	}
	return Figure{}, fmt.Errorf("experiment: unknown figure %q (known: %v)", id, s.FigureIDs())
}

// figure derives f from its configuration's sweep.
func (s *Suite) figure(f figureSpec) (Figure, error) {
	pairs, err := s.Sweep(f.kind)
	if err != nil {
		return Figure{}, err
	}
	series := stats.NewSeries(f.id)
	for _, pm := range pairs {
		series.Set(pm.Benchmark, f.metric.pick(pm))
	}
	fig := Figure{
		ID: f.id, Title: f.title, Unit: f.metric.unit,
		Series:        series,
		MeasuredGMean: series.GeoMean(),
		PaperGMean:    f.paper,
	}
	if f.metric.baseline {
		fig.Baseline = f.kind.DRAM().BaselineRefreshesPerSecond()
	}
	return fig, nil
}
