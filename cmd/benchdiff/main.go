// Command benchdiff runs the repository's Go benchmarks, records every
// reported metric (ns/op, B/op, allocs/op and custom b.ReportMetric
// series) as JSON, and gates a later run against a committed baseline
// with per-metric tolerances. It exists so the figure benchmarks form a
// regression fence: wall time is compared loosely (CI hardware varies),
// allocations tightly (they are machine-independent).
//
// Benchmarks run in two tiers. The hot-path micro-benchmarks (MicroBench)
// always run a fixed MicroBenchtime iterations, so their ns/op and
// allocs/op are steady-state costs rather than one cold-start call; every
// other selected benchmark runs at -benchtime (one iteration by default,
// enough for a whole figure).
//
// Examples:
//
//	benchdiff run -out BENCH_pr15.json
//	benchdiff run -out /tmp/bench.json -bench '^BenchmarkSuiteParallel$' -benchtime 1x
//	benchdiff compare -baseline BENCH_pr15.json -current /tmp/bench.json
//	benchdiff compare -baseline BENCH_pr15.json -current /tmp/bench.json -time-tol 300 -alloc-tol 15
//
// The compare exit status is 1 on any regression beyond tolerance, 2 on
// usage or I/O errors, 0 otherwise.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"smartrefresh/internal/atomicio"
)

// MicroBench selects the allocation-sensitive micro-benchmarks of the
// policy, controller, mapper, module and 3D-cache hot paths; they run at
// MicroBenchtime.
const MicroBench = `^Benchmark(Smart|DARP|SARP|RAIDR)PolicyAdvance$|^BenchmarkControllerSubmit$|^BenchmarkPowerStateAdvance$|^BenchmarkDRAMCacheAccess$|^BenchmarkModuleAccess$|^Benchmark(Smart)?RefreshDispatch$|^BenchmarkMapperMap$`

// MicroBenchtime is the fixed iteration count of the MicroBench tier:
// enough iterations that set-up and buffer growth amortise away, few
// enough that the whole tier stays well under a second.
const MicroBenchtime = "20000x"

// DefaultBench selects the figure benchmarks plus the headline sweep —
// the set the regression gate names — the per-job set-up benchmarks and
// the MicroBench tier.
const DefaultBench = `^BenchmarkSuiteParallel$|^BenchmarkFig[6-9]|^BenchmarkVaultShardedRun|` +
	`^BenchmarkSmartSetup2GB$|^BenchmarkVaultArraySetup$|` + MicroBench

// Run is one recorded benchmark execution: for every benchmark, every
// metric the testing package printed (unit -> value).
type Run struct {
	GoOS      string `json:"goos"`
	GoArch    string `json:"goarch"`
	Bench     string `json:"bench"`
	Benchtime string `json:"benchtime"`
	// MicroBenchtime is the fixed benchtime of the MicroBench tier.
	MicroBenchtime string                        `json:"micro_benchtime"`
	Benchmarks     map[string]map[string]float64 `json:"benchmarks"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, w io.Writer) int {
	if len(args) < 1 {
		fmt.Fprintln(w, "usage: benchdiff run|compare [flags]")
		return 2
	}
	switch args[0] {
	case "run":
		return runBench(args[1:], w)
	case "compare":
		return runCompare(args[1:], w)
	default:
		fmt.Fprintf(w, "benchdiff: unknown subcommand %q (want run or compare)\n", args[0])
		return 2
	}
}

func runBench(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("benchdiff run", flag.ContinueOnError)
	fs.SetOutput(w)
	out := fs.String("out", "", "output JSON path (default stdout)")
	bench := fs.String("bench", DefaultBench, "go test -bench regexp")
	benchtime := fs.String("benchtime", "1x", "go test -benchtime")
	pkg := fs.String("pkg", ".", "package to benchmark")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	names, err := goTest(w, *pkg, "-list", *bench)
	if err != nil {
		return 2
	}
	var figures, micros []string
	micro := regexp.MustCompile(MicroBench)
	for _, name := range strings.Fields(names) {
		switch {
		case !strings.HasPrefix(name, "Benchmark"):
		case micro.MatchString(name):
			micros = append(micros, name)
		default:
			figures = append(figures, name)
		}
	}

	r := Run{
		GoOS: runtime.GOOS, GoArch: runtime.GOARCH,
		Bench: *bench, Benchtime: *benchtime, MicroBenchtime: MicroBenchtime,
		Benchmarks: map[string]map[string]float64{},
	}
	for _, tier := range []struct {
		names     []string
		benchtime string
	}{{figures, *benchtime}, {micros, MicroBenchtime}} {
		if len(tier.names) == 0 {
			continue
		}
		raw, err := goTest(w, *pkg, "-bench", exactNames(tier.names),
			"-benchmem", "-benchtime", tier.benchtime)
		if err != nil {
			return 2
		}
		for name, m := range parseBenchOutput(raw) {
			r.Benchmarks[name] = m
		}
	}
	if len(r.Benchmarks) == 0 {
		fmt.Fprintln(w, "benchdiff: no benchmarks matched", *bench)
		return 2
	}
	enc, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		fmt.Fprintln(w, "benchdiff:", err)
		return 2
	}
	enc = append(enc, '\n')
	if *out == "" {
		w.Write(enc)
		return 0
	}
	if err := atomicio.WriteFileBytes(*out, enc); err != nil {
		fmt.Fprintln(w, "benchdiff:", err)
		return 2
	}
	fmt.Fprintf(w, "benchdiff: wrote %d benchmarks to %s\n", len(r.Benchmarks), *out)
	return 0
}

// goTest runs `go test -run ^$ <args> pkg` and returns its stdout; on
// failure it reports the error (and the tool's stderr) to w.
func goTest(w io.Writer, pkg string, args ...string) (string, error) {
	args = append(append([]string{"test", "-run", "^$"}, args...), pkg)
	raw, err := exec.Command("go", args...).Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			fmt.Fprintf(w, "benchdiff: go test failed: %s\n%s\n", err, ee.Stderr)
		} else {
			fmt.Fprintln(w, "benchdiff: go test failed:", err)
		}
	}
	return string(raw), err
}

// exactNames is a -bench regexp matching exactly the named top-level
// benchmarks.
func exactNames(names []string) string {
	quoted := make([]string, len(names))
	for i, n := range names {
		quoted[i] = regexp.QuoteMeta(n)
	}
	return "^(" + strings.Join(quoted, "|") + ")$"
}

// parseBenchOutput extracts metric maps from `go test -bench` output.
// A benchmark line is "BenchmarkName-8  <iters>  <value> <unit> ...";
// the GOMAXPROCS suffix is stripped so records compare across machines.
func parseBenchOutput(out string) map[string]map[string]float64 {
	res := map[string]map[string]float64{}
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		iters, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		m := map[string]float64{"iterations": iters}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			m[fields[i+1]] = v
		}
		res[name] = m
	}
	return res
}

// Regression is one metric that moved past its tolerance.
type Regression struct {
	Benchmark string
	Metric    string
	Baseline  float64
	Current   float64
	TolPct    float64
}

func (r Regression) String() string {
	return fmt.Sprintf("%s %s: %.6g -> %.6g (tolerance %.6g%%)",
		r.Benchmark, r.Metric, r.Baseline, r.Current, r.TolPct)
}

// compareRuns gates current against baseline. ns/op uses timeTolPct;
// B/op and allocs/op use allocTolPct plus a one-allocation absolute slack
// so a zero-alloc baseline tolerates measurement noise but not a real
// allocation on the hot path (which shows up in the thousands per op).
// Custom metrics are informational only — they depend on simulation
// outputs that internal/check already pins exactly. Benchmarks present in
// the baseline but missing from current are regressions (the fence must
// not silently narrow).
func compareRuns(baseline, current Run, timeTolPct, allocTolPct float64) []Regression {
	var regs []Regression
	names := make([]string, 0, len(baseline.Benchmarks))
	for name := range baseline.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		base := baseline.Benchmarks[name]
		cur, ok := current.Benchmarks[name]
		if !ok {
			regs = append(regs, Regression{Benchmark: name, Metric: "missing"})
			continue
		}
		for metric, bv := range base {
			cv, ok := cur[metric]
			if !ok {
				continue
			}
			var tol float64
			var slack float64
			switch metric {
			case "ns/op":
				tol = timeTolPct
			case "allocs/op", "B/op":
				tol = allocTolPct
				slack = 1 // absolute: one stray allocation / byte
			default:
				continue
			}
			if cv > bv*(1+tol/100)+slack {
				regs = append(regs, Regression{
					Benchmark: name, Metric: metric,
					Baseline: bv, Current: cv, TolPct: tol,
				})
			}
		}
	}
	return regs
}

func readRun(path string) (Run, error) {
	var r Run
	raw, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(raw, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

func runCompare(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("benchdiff compare", flag.ContinueOnError)
	fs.SetOutput(w)
	basePath := fs.String("baseline", "", "committed baseline JSON")
	curPath := fs.String("current", "", "freshly recorded JSON")
	timeTol := fs.Float64("time-tol", 300, "ns/op regression tolerance, percent (loose: hardware varies)")
	allocTol := fs.Float64("alloc-tol", 15, "allocs/op and B/op regression tolerance, percent")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *basePath == "" || *curPath == "" {
		fmt.Fprintln(w, "benchdiff compare: -baseline and -current are required")
		return 2
	}
	baseline, err := readRun(*basePath)
	if err != nil {
		fmt.Fprintln(w, "benchdiff:", err)
		return 2
	}
	current, err := readRun(*curPath)
	if err != nil {
		fmt.Fprintln(w, "benchdiff:", err)
		return 2
	}

	regs := compareRuns(baseline, current, *timeTol, *allocTol)
	if len(regs) == 0 {
		fmt.Fprintf(w, "benchdiff: %d benchmarks within tolerance (time %.0f%%, alloc %.0f%%)\n",
			len(baseline.Benchmarks), *timeTol, *allocTol)
		return 0
	}
	fmt.Fprintf(w, "benchdiff: %d regression(s):\n", len(regs))
	for _, r := range regs {
		if r.Metric == "missing" {
			fmt.Fprintf(w, "  %s: missing from current run\n", r.Benchmark)
			continue
		}
		fmt.Fprintf(w, "  %s\n", r)
	}
	return 1
}
