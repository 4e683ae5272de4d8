package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: smartrefresh
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSuiteParallel-8   	       1	1824512345 ns/op	 12345678 B/op	  123456 allocs/op	        91.23 reduction_%
BenchmarkSmartPolicyAdvance 	42179782	        25.62 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	smartrefresh	3.145s
`

func TestParseBenchOutput(t *testing.T) {
	got := parseBenchOutput(sampleOutput)
	if len(got) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(got))
	}
	par, ok := got["BenchmarkSuiteParallel"]
	if !ok {
		t.Fatalf("GOMAXPROCS suffix not stripped: %v", got)
	}
	for metric, want := range map[string]float64{
		"iterations":  1,
		"ns/op":       1824512345,
		"B/op":        12345678,
		"allocs/op":   123456,
		"reduction_%": 91.23,
	} {
		if par[metric] != want {
			t.Errorf("SuiteParallel %s = %v, want %v", metric, par[metric], want)
		}
	}
	if adv := got["BenchmarkSmartPolicyAdvance"]; adv["allocs/op"] != 0 || adv["ns/op"] != 25.62 {
		t.Errorf("SmartPolicyAdvance = %v", adv)
	}
}

func mkRun(ns, bytes, allocs float64) Run {
	return Run{Benchmarks: map[string]map[string]float64{
		"BenchmarkX": {"ns/op": ns, "B/op": bytes, "allocs/op": allocs},
	}}
}

func TestCompareRuns(t *testing.T) {
	base := mkRun(1000, 100, 10)
	cases := []struct {
		name    string
		current Run
		want    int
	}{
		{"identical", mkRun(1000, 100, 10), 0},
		{"within", mkRun(2000, 110, 11), 0},
		{"time regression", mkRun(4100, 100, 10), 1},
		{"alloc regression", mkRun(1000, 100, 13), 1},
		{"bytes regression", mkRun(1000, 200, 10), 1},
		{"all regressed", mkRun(9000, 900, 90), 3},
		{"improvement", mkRun(10, 0, 0), 0},
	}
	for _, tc := range cases {
		regs := compareRuns(base, tc.current, 300, 15)
		if len(regs) != tc.want {
			t.Errorf("%s: %d regressions (%v), want %d", tc.name, len(regs), regs, tc.want)
		}
	}
}

func TestCompareZeroAllocBaselineSlack(t *testing.T) {
	base := mkRun(100, 0, 0)
	// One stray byte/alloc is absorbed by the absolute slack...
	if regs := compareRuns(base, mkRun(100, 1, 1), 300, 15); len(regs) != 0 {
		t.Fatalf("slack did not absorb noise: %v", regs)
	}
	// ...but a real hot-path allocation (thousands per op) is not.
	if regs := compareRuns(base, mkRun(100, 4096, 2), 300, 15); len(regs) != 2 {
		t.Fatalf("zero-alloc baseline let a regression through: %v", regs)
	}
}

func TestCompareMissingBenchmark(t *testing.T) {
	base := mkRun(100, 0, 0)
	regs := compareRuns(base, Run{Benchmarks: map[string]map[string]float64{}}, 300, 15)
	if len(regs) != 1 || regs[0].Metric != "missing" {
		t.Fatalf("missing benchmark not flagged: %v", regs)
	}
}

func TestCompareCLIRoundTrip(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, r Run) string {
		raw, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	basePath := write("base.json", mkRun(1000, 100, 10))
	goodPath := write("good.json", mkRun(1100, 100, 10))
	badPath := write("bad.json", mkRun(9000, 100, 10))

	var out strings.Builder
	if code := run([]string{"compare", "-baseline", basePath, "-current", goodPath}, &out); code != 0 {
		t.Fatalf("clean compare exited %d: %s", code, out.String())
	}
	out.Reset()
	if code := run([]string{"compare", "-baseline", basePath, "-current", badPath}, &out); code != 1 {
		t.Fatalf("regressed compare exited %d: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "ns/op") {
		t.Errorf("regression report lacks metric: %s", out.String())
	}
}

func TestBenchTiers(t *testing.T) {
	micro := regexp.MustCompile(MicroBench)
	for _, name := range []string{
		"BenchmarkSmartPolicyAdvance", "BenchmarkRAIDRPolicyAdvance",
		"BenchmarkControllerSubmit", "BenchmarkPowerStateAdvance", "BenchmarkDRAMCacheAccess",
		"BenchmarkModuleAccess", "BenchmarkRefreshDispatch", "BenchmarkSmartRefreshDispatch",
		"BenchmarkMapperMap", "BenchmarkLadderRefreshWake", "BenchmarkIdleCloseDrain",
	} {
		if !micro.MatchString(name) {
			t.Errorf("%s not in the micro tier", name)
		}
	}
	for _, name := range []string{
		"BenchmarkSuiteParallel", "BenchmarkFig6RefreshesPerSec2GB", "BenchmarkVaultShardedRunSerial",
		"BenchmarkSmartSetup2GB", "BenchmarkVaultArraySetup",
	} {
		if micro.MatchString(name) {
			t.Errorf("%s in the micro tier", name)
		}
		if !regexp.MustCompile(DefaultBench).MatchString(name) {
			t.Errorf("%s not in the default set", name)
		}
	}
	exact := regexp.MustCompile(exactNames([]string{"BenchmarkFig6RefreshesPerSec2GB", "BenchmarkSuiteParallel"}))
	for name, want := range map[string]bool{
		"BenchmarkFig6RefreshesPerSec2GB": true, "BenchmarkSuiteParallel": true,
		"BenchmarkSuiteParallelX": false, "BenchmarkFig6": false,
	} {
		if got := exact.MatchString(name); got != want {
			t.Errorf("exactNames matches %s = %v, want %v", name, got, want)
		}
	}
}
