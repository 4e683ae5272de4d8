// Command simcheck sweeps the randomized differential-testing harness
// (internal/check) over a block of scenario seeds, plus the vetted
// configuration presets, and reports every violated invariant: retention
// deadlines, Smart Refresh's oracle/CBR refresh-count bounds, pending
// queue depth, energy-breakdown consistency, refresh-op accounting,
// module residency and bit-identical reruns.
//
// Examples:
//
//	simcheck -seeds 64
//	simcheck -seeds 1 -start 17 -v     # replay one failing seed verbosely
//	simcheck -seeds 256 -presets=false # random scenarios only
//	simcheck -seeds 64 -fingerprint    # print the sweep's SHA-256
//	simcheck -policies darp,sarp       # only the per-bank policy pair
//
// The exit status is 1 when any invariant is violated (or a scenario
// panics), 0 on a clean sweep, and 130 when interrupted by
// SIGINT/SIGTERM — long sweeps stop within milliseconds at the next
// cancellation point instead of running to completion.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"syscall"

	"smartrefresh/internal/check"
	"smartrefresh/internal/telemetry"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout))
}

func run(ctx context.Context, args []string, w io.Writer) int {
	fs := flag.NewFlagSet("simcheck", flag.ContinueOnError)
	fs.SetOutput(w)
	seeds := fs.Int("seeds", 64, "number of random scenario seeds to check")
	start := fs.Uint64("start", 1, "first seed of the block")
	workers := fs.Int("workers", 0, "concurrent scenario checks (0: one per CPU)")
	presets := fs.Bool("presets", true, "also check the vetted configuration presets")
	vaultSeeds := fs.Int("vault-seeds", 4,
		"vault-parallel scenarios to check (per-vault invariants plus sharded-determinism fingerprints; 0 disables)")
	verbose := fs.Bool("v", false, "describe every scenario, not just the dirty ones")
	fingerprint := fs.Bool("fingerprint", false,
		"print the SHA-256 fingerprint of all reports (for comparing sweeps across runs)")
	policiesFlag := fs.String("policies", "",
		"comma-separated policy subset to run (default all: "+strings.Join(check.PolicyNames(), ",")+")")
	var tf telemetry.Flags
	tf.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seeds < 0 {
		fmt.Fprintln(w, "simcheck: -seeds must be >= 0")
		return 2
	}
	policies, err := parsePolicies(*policiesFlag)
	if err != nil {
		fmt.Fprintln(w, "simcheck:", err)
		return 2
	}
	if err := tf.Start(); err != nil {
		fmt.Fprintln(w, "simcheck:", err)
		return 2
	}

	scenarios := make([]check.Scenario, 0, *seeds)
	for i := 0; i < *seeds; i++ {
		scenarios = append(scenarios, check.NewScenario(*start+uint64(i)))
	}
	if *presets {
		scenarios = append(scenarios, check.PresetScenarios()...)
	}

	reports := checkAll(ctx, scenarios, *workers, &tf, policies)
	if err := ctx.Err(); err != nil {
		fmt.Fprintf(w, "simcheck: interrupted after %d of %d scenarios\n", len(reports), len(scenarios))
		return 130
	}

	// The vault sweep runs each scenario serially here: its inner shard
	// sweep already exercises the worker parallelism under test. A
	// -policies filter naming no vault policy skips the sweep outright
	// rather than padding the summary with empty reports.
	if vaultPoliciesSelected(policies) {
		for i := 0; i < *vaultSeeds; i++ {
			rep, err := check.CheckVaultScenarioSelected(ctx, check.NewVaultScenario(*start+uint64(i)), nil, policies)
			if err != nil {
				fmt.Fprintf(w, "simcheck: interrupted during vault scenario %d of %d\n", i+1, *vaultSeeds)
				return 130
			}
			reports = append(reports, rep)
		}
	}

	var violations, dirty int
	for _, rep := range reports {
		if *verbose || !rep.Ok() {
			fmt.Fprintf(w, "%-24s %s\n", rep.Scenario.Name, describe(rep))
		}
		for _, v := range rep.Violations {
			fmt.Fprintf(w, "  VIOLATION %s\n", v)
		}
		if !rep.Ok() {
			dirty++
			violations += len(rep.Violations)
		}
	}

	fmt.Fprintf(w, "simcheck: %d scenarios, %d dirty, %d violations\n",
		len(reports), dirty, violations)
	if *fingerprint {
		fmt.Fprintf(w, "simcheck: fingerprint %s\n", check.FingerprintReports(reports))
	}
	if err := tf.Finish(); err != nil {
		fmt.Fprintln(w, "simcheck:", err)
		return 2
	}
	if violations > 0 {
		return 1
	}
	return 0
}

// checkAll evaluates the scenarios across a worker pool; the report
// order matches the scenario order regardless of worker count. The
// telemetry sinks are internally synchronised, so workers share them.
// On cancellation, dispatch stops, in-flight scenarios abort at their
// next cancellation point, and the completed prefix of reports is
// returned (the caller decides whether a prefix is worth printing).
func checkAll(ctx context.Context, scenarios []check.Scenario, workers int, tf *telemetry.Flags, policies []string) []check.Report {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(scenarios) {
		workers = len(scenarios)
	}
	tr, reg := tf.Tracer(), tf.Registry()
	out := make([]check.Report, len(scenarios))
	done := make([]bool, len(scenarios))
	if workers <= 1 {
		for i, sc := range scenarios {
			rep, err := check.CheckScenarioSelected(ctx, sc, tr, reg, policies)
			if err != nil {
				return completed(out, done)
			}
			out[i], done[i] = rep, true
		}
		return completed(out, done)
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				rep, err := check.CheckScenarioSelected(ctx, scenarios[i], tr, reg, policies)
				if err != nil {
					continue // drain remaining indices without running them
				}
				out[i], done[i] = rep, true
			}
		}()
	}
dispatch:
	for i := range scenarios {
		select {
		case next <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	return completed(out, done)
}

// parsePolicies splits and validates the -policies flag; empty selects
// the full differential set (nil filter).
func parsePolicies(s string) ([]string, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	policies := make([]string, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		if !slices.Contains(check.PolicyNames(), p) {
			return nil, fmt.Errorf("unknown policy %q (known: %s)", p, strings.Join(check.PolicyNames(), ","))
		}
		policies = append(policies, p)
	}
	if len(policies) == 0 {
		return nil, fmt.Errorf("-policies %q names no policies", s)
	}
	return policies, nil
}

// vaultPoliciesSelected reports whether a -policies filter (nil = all)
// selects at least one policy the vault differential set instantiates.
func vaultPoliciesSelected(policies []string) bool {
	if len(policies) == 0 {
		return true
	}
	for _, p := range policies {
		if slices.Contains(check.VaultPolicyNames(), p) {
			return true
		}
	}
	return false
}

// completed compacts the report slice to the contiguous completed
// prefix — an interrupted parallel sweep may have holes, and a report
// after a hole would misalign the seed order the output promises.
func completed(out []check.Report, done []bool) []check.Report {
	n := 0
	for n < len(done) && done[n] {
		n++
	}
	return out[:n]
}

// describe summarises one report: the policies run and the refresh
// requests each issued, or the violation count when dirty.
func describe(rep check.Report) string {
	if !rep.Ok() {
		return fmt.Sprintf("DIRTY (%d violations)", len(rep.Violations))
	}
	counts := make([]string, 0, len(rep.Runs))
	for _, run := range rep.Runs {
		counts = append(counts, fmt.Sprintf("%s:%d", run.Policy, run.Res.Policy.RefreshesRequested))
	}
	sort.Strings(counts)
	return "ok " + fmt.Sprint(counts)
}
