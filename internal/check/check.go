// Package check is a randomized differential-testing and invariant
// harness for the simulator. A Scenario (a DRAM configuration, a
// synthetic workload and a run length, all derived deterministically from
// a seed) is executed under every refresh policy — Smart Refresh, the
// CBR/burst/oracle/no-refresh baselines, the retention-aware extension,
// the RAIDR multirate Bloom-filter wheel and the per-bank
// refresh-access-parallelism pair (DARP/SARP) — and the results are
// cross-checked against the properties the paper's correctness and
// optimality arguments rest on:
//
//   - every refreshing policy honours the retention deadline (section
//     4.3), verified by the memctrl retention checker with a slack
//     matching the policy's documented transition bound — for DARP that
//     slack covers the full postponement/pull-in deferral window;
//   - Smart Refresh's refresh count lies between the oracle's and CBR's,
//     up to a quantization slack (sections 4.4 and 4.6), the per-bank
//     policies' counts match distributed CBR's nominal cadence up to the
//     deferral window, and RAIDR's count sits between the oracle's
//     (scaled by its multirate share) and CBR's — with every raidr run
//     also holding the *profiled* per-row retention deadlines;
//   - the per-bank refresh deficit never exceeds the JEDEC-style
//     postponement window (MaxPostpone owed refreshes);
//   - the pending refresh request queue never exceeds its configured
//     depth (section 5);
//   - the energy breakdown's components sum to its totals;
//   - policy-side and module-side refresh counts agree exactly, with
//     self-refresh-covered commands accounted separately and module ops
//     decomposing exactly into CBR + RAS-only + per-bank + all-bank; and
//   - rerunning a scenario is bit-identical, at every shard count.
//
// A scenario runs at its own geometry. A vaulted one drives its vault
// array at its real vault count, each vault controller is held to the
// invariants and bounds above at its own configuration, as a module is,
// and the stack's results must be the vault-order fold of the vaults'.
//
// The harness is exposed three ways: the property-test suite in this
// package, native fuzz targets over the configuration edge cases, and
// the cmd/simcheck sweep CLI.
package check

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"

	"smartrefresh/internal/config"
	"smartrefresh/internal/core"
	"smartrefresh/internal/dram"
	"smartrefresh/internal/experiment"
	"smartrefresh/internal/memctrl"
	"smartrefresh/internal/power"
	"smartrefresh/internal/sim"
	"smartrefresh/internal/telemetry"
	"smartrefresh/internal/workload"
)

// Scenario is one fully-specified simulation setup, executed identically
// under every policy.
type Scenario struct {
	// Name identifies the scenario in reports ("seed-17", "preset-...").
	Name string
	// Seed drives the workload generator and the retention map.
	Seed uint64
	Cfg  config.DRAM
	// Spec is the synthetic access stream (zero footprint = idle).
	Spec workload.StreamSpec
	// Duration is the simulated span; every policy runs [0, Duration].
	Duration sim.Duration
	// SelfRefreshAfter arms controller self-refresh when positive.
	SelfRefreshAfter sim.Duration
	// PowerStates arms the explicit per-rank power-down ladder (ACT-PDN /
	// PRE-PDN fast / PRE-PDN slow / SR slow-wake) when any threshold is
	// set; the zero value keeps the historical two-state behaviour.
	PowerStates memctrl.PowerStateConfig
}

// Violation is one failed invariant.
type Violation struct {
	Scenario  string
	Policy    string
	Invariant string
	Detail    string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s/%s: %s: %s", v.Scenario, v.Policy, v.Invariant, v.Detail)
}

// PolicyRun captures one policy's execution of a scenario. Errors are
// stored as strings so runs compare with reflect.DeepEqual (the
// determinism invariant).
type PolicyRun struct {
	Policy string
	Res    memctrl.Results
	// DroppedSelfRefresh counts policy refresh commands elided while
	// their rank slept (the module's engine covered them).
	DroppedSelfRefresh uint64
	// RetentionErr is the retention checker verdict ("" = clean).
	RetentionErr string
	// Panic is non-empty when the run panicked or was rejected.
	Panic string
}

// Report is the outcome of checking one scenario.
type Report struct {
	Scenario   Scenario
	Runs       []PolicyRun
	Violations []Violation
	// Skipped marks a scenario the policy filter left nothing to run
	// on: it named only policies the scenario's geometry refuses (the
	// RetentionMap ones on a vaulted stack). Nothing was checked, so a
	// skipped report is neither clean nor dirty.
	Skipped bool
}

// Ok reports whether every invariant held.
func (r Report) Ok() bool { return len(r.Violations) == 0 }

// policyCase is one registry entry bound to a scenario, with the checker
// slack for the scenario's self-refresh setting.
type policyCase struct {
	experiment.PolicyEntry
	slack sim.Duration
}

// policyCases enumerates the differential set for a scenario: every
// registered policy, in registry order, except on a vaulted scenario the
// RetentionMap policies, whose per-row map spans the whole module and
// which a vault array therefore refuses.
func policyCases(sc Scenario) []policyCase {
	var cases []policyCase
	for _, e := range experiment.Policies() {
		if e.RetentionMap && sc.Cfg.Geometry.Vaulted() {
			continue
		}
		cases = append(cases, policyCase{PolicyEntry: e, slack: e.Slack(sc.Cfg, sc.SelfRefreshAfter > 0)})
	}
	return cases
}

// PolicyNames lists the differential policy set in run order — the valid
// inputs to CheckScenario's filter (and cmd/simcheck's -policies flag).
func PolicyNames() []string { return experiment.PolicyNames() }

// addFunc records one violation.
type addFunc = func(policy, invariant, format string, args ...any)

// runOutcome is one policy's execution of a scenario: the PolicyRun the
// report carries, plus a vaulted run's per-vault breakdown. Its shape is
// deterministic, so DeepEqual-ing or fingerprinting two outcomes is
// exactly the bit-identical contract.
type runOutcome struct {
	PolicyRun
	// Per is each vault's result (nil on one vault); Dropped is each
	// controller's self-refresh-covered command count, one per vault.
	Per     []memctrl.Results
	Dropped []uint64
}

// vault is controller v's share of the outcome: its results and its
// self-refresh-covered count under the array's verdicts. A one-vault
// outcome is its controller's own.
func (o runOutcome) vault(v int) PolicyRun {
	if o.Per == nil {
		return o.PolicyRun
	}
	run := o.PolicyRun
	run.Res, run.DroppedSelfRefresh = o.Per[v], o.Dropped[v]
	return run
}

// vaultScenario is sc at one vault controller's configuration (see
// memctrl.VaultConfig); every vault of a stack shares it.
func vaultScenario(sc Scenario) Scenario {
	sc.Cfg = memctrl.VaultConfig(sc.Cfg, 0)
	return sc
}

// vaultAdd is add with vault v of sc named after the policy; a one-vault
// scenario's violations name the policy alone.
func vaultAdd(add addFunc, sc Scenario, v int) addFunc {
	if !sc.Cfg.Geometry.Vaulted() {
		return add
	}
	return func(policy, invariant, format string, args ...any) {
		add(fmt.Sprintf("%s/vault%02d", policy, v), invariant, format, args...)
	}
}

// rerunShards is the shard counts a policy's reruns take: each distinct
// count in {1, 2, vaults}. A one-vault scenario reruns once, serially.
func rerunShards(sc Scenario) []int {
	n := sc.Cfg.Geometry.VaultCount()
	return slices.Compact([]int{1, min(2, n), n})
}

// runPolicy executes one policy over [0, Duration] of the scenario's
// workload through experiment.RunStream, on a memctrl.VaultArray of the
// scenario's geometry advanced by shards workers. Panics and rejected
// options become a recorded failure instead of crashing the harness. The
// telemetry sinks may be nil (the disabled path). A cancelled context
// aborts the simulation early and leaves the run partial — the caller
// must discard it, which CheckScenario does by returning ctx's error
// instead of a report.
func runPolicy(ctx context.Context, sc Scenario, pc policyCase, shards int, tr *telemetry.Tracer, reg *telemetry.Registry) (out runOutcome) {
	out.Policy = pc.Name
	defer func() {
		if r := recover(); r != nil {
			out.Panic = fmt.Sprint(r)
		}
	}()
	if sc.Duration <= 0 {
		// RunStream would read a zero window as open-ended.
		out.Panic = fmt.Sprintf("non-positive duration %v", sc.Duration)
		return out
	}

	res, err := experiment.RunStream(ctx, sc.Cfg, pc.Kind, experiment.RunOptions{
		Measure:          sc.Duration,
		CheckRetention:   true,
		SelfRefreshAfter: sc.SelfRefreshAfter,
		PowerStates:      sc.PowerStates,
		Shards:           shards,
	}, experiment.Stream{
		Source:  workload.NewGenerator(sc.Spec, sc.Seed),
		Name:    sc.Name,
		Seed:    sc.Seed,
		Trace:   tr,
		Metrics: reg,
	})
	if err != nil {
		out.Panic = err.Error()
		return out
	}
	out.Res, out.Per, out.Dropped = res.Results, res.Vaults, res.Dropped
	for _, d := range res.Dropped {
		out.DroppedSelfRefresh += d
	}
	if res.RetentionErr != nil {
		out.RetentionErr = res.RetentionErr.Error()
	}
	return out
}

// CheckScenario runs every selected policy at the scenario's own
// geometry, a vaulted scenario through its memctrl.VaultArray at its
// real vault count, and evaluates all invariants per controller: each
// vault is checked as a module is, at its own configuration, and the
// stack-level results must be the fold of the vaults. policies names the
// subset of the differential set to run (nil or empty = everything); a
// cross-policy bound leg runs only when every policy it compares ran, so
// a filtered sweep never reports phantom bound violations against runs
// that did not happen. Unknown names are an error, not a silent no-op. A
// scenario on which the subset leaves no policy to run is returned
// Skipped, with no runs.
//
// Each policy's first run is serial and carries the telemetry: every
// DRAM command lands in tr and each controller's metrics register into
// reg under "<scenario>/<policy>". Its reruns, at each shard count of
// rerunShards, run without telemetry and must reproduce it bit for bit,
// per-vault breakdown included, so the comparison also proves that
// neither tracing nor sharding perturbs simulated results. Both sinks
// may be nil.
//
// The context is polled between policy runs and, through the
// controller's Interrupt hook, inside each simulation's event drains, so
// a SIGINT lands within milliseconds even mid-scenario. A cancelled
// check returns ctx's error and no report: partial runs are never
// evaluated against the invariants, which would produce phantom
// violations.
func CheckScenario(ctx context.Context, sc Scenario, tr *telemetry.Tracer, reg *telemetry.Registry, policies []string) (Report, error) {
	for _, n := range policies {
		if !slices.Contains(PolicyNames(), n) {
			return Report{}, fmt.Errorf("check: unknown policy %q (known: %s)", n, strings.Join(PolicyNames(), ", "))
		}
	}

	rep := Report{Scenario: sc}
	add := func(policy, invariant, format string, args ...any) {
		rep.Violations = append(rep.Violations, Violation{
			Scenario:  sc.Name,
			Policy:    policy,
			Invariant: invariant,
			Detail:    fmt.Sprintf(format, args...),
		})
	}

	outs := map[string]runOutcome{}
	cases := map[string]policyCase{}
	for _, pc := range policyCases(sc) {
		if len(policies) > 0 && !slices.Contains(policies, pc.Name) {
			continue
		}
		cases[pc.Name] = pc
		out := runPolicy(ctx, sc, pc, 1, tr, reg)
		for _, shards := range rerunShards(sc) {
			rerun := runPolicy(ctx, sc, pc, shards, nil, nil)
			if err := ctx.Err(); err != nil {
				return Report{Scenario: sc}, err
			}
			if !reflect.DeepEqual(out, rerun) {
				add(pc.Name, "determinism", "rerun at %d shards differs (first != rerun): %s", shards, fieldDiff(out, rerun))
			}
		}
		rep.Runs = append(rep.Runs, out.PolicyRun)
		outs[pc.Name] = out
		checkOutcome(sc, pc, out, add)
	}
	if len(cases) == 0 {
		rep.Skipped = true
		return rep, nil
	}
	vsc := vaultScenario(sc)
	for v := range sc.Cfg.Geometry.VaultCount() {
		runs := make(map[string]PolicyRun, len(outs))
		for name, out := range outs {
			runs[name] = out.vault(v)
		}
		vadd := vaultAdd(add, sc, v)
		checkRefreshBounds(vsc, runs, func() uint64 { return firstIntervalGap(ctx, sc, cases, v) }, vadd)
		checkPerBankBounds(vsc, runs, vadd)
		checkRAIDRBounds(vsc, runs, vadd)
	}
	if err := ctx.Err(); err != nil {
		// An interrupted first-interval run cut its count short.
		return Report{Scenario: sc}, err
	}
	return rep, nil
}

// checkOutcome evaluates one policy's outcome: the array's verdicts
// (panic, retention, the no-refresh run's checker sanity), checkRun on
// each vault controller's results at that vault's configuration, and on
// more than one vault the stack-level results as the vault-order fold.
func checkOutcome(sc Scenario, pc policyCase, out runOutcome, add addFunc) {
	if out.Panic != "" {
		add(pc.Name, "panic", "%s", out.Panic)
		return
	}
	if pc.Refreshes && out.RetentionErr != "" {
		add(pc.Name, "retention", "%s", out.RetentionErr)
	}
	// The no-refresh run doubles as a sanity check of the checker
	// itself: on an idle workload with self-refresh disarmed nothing
	// ever restores a row, so a run longer than the checked deadline
	// must be flagged. (An armed controller legitimately keeps idle
	// rows alive through the module's self-refresh engine.)
	if !pc.Refreshes && sc.Spec.FootprintBytes == 0 && sc.SelfRefreshAfter <= 0 {
		deadline := sc.Cfg.Timing.RefreshInterval + memctrl.RetentionGrace + pc.slack
		if sim.Time(sc.Duration) > sim.Time(deadline) && out.RetentionErr == "" {
			add(pc.Name, "checker-sanity", "no-refresh run of %v passed a %v retention deadline", sc.Duration, deadline)
		}
	}

	vsc := vaultScenario(sc)
	for v := range sc.Cfg.Geometry.VaultCount() {
		checkRun(vsc, pc, out.vault(v), vaultAdd(add, sc, v))
	}
	if out.Per != nil {
		if fold := foldVaults(out); !reflect.DeepEqual(fold, out.Res) {
			add(pc.Name, "vault-aggregation", "aggregate != vault-order fold: %s", fieldDiff(out.Res, fold))
		}
	}
}

// foldVaults is the stack-level summary a vaulted outcome's vaults fold
// to: every counter, the module and policy statistics and the energy
// breakdown summed in vault order. The latency summaries and the refresh
// rate derive from merged samples and the window rather than from the
// vaults' summaries, so they are taken from the aggregate; any other
// field the aggregate sets and the fold leaves zero is a mismatch.
func foldVaults(out runOutcome) memctrl.Results {
	agg := out.Res
	f := memctrl.Results{Span: agg.Span, AvgLatencyNS: agg.AvgLatencyNS, P50LatencyNS: agg.P50LatencyNS,
		P99LatencyNS: agg.P99LatencyNS, RefreshPerSecond: agg.RefreshPerSecond}
	for _, r := range out.Per {
		f.Requests += r.Requests
		f.RowHits += r.RowHits
		f.RefreshOps += r.RefreshOps
		f.RefreshCBR += r.RefreshCBR
		f.RefreshRASOnly += r.RefreshRASOnly
		f.RefreshPerBank += r.RefreshPerBank
		f.DemandStall += r.DemandStall
		f.RefreshesDroppedSelfRefresh += r.RefreshesDroppedSelfRefresh
		f.Module = f.Module.Add(r.Module)
		f.Policy = f.Policy.Add(r.Policy)
		f.Energy = f.Energy.Add(r.Energy)
	}
	return f
}

// checkRun evaluates the invariants of one controller's results: a
// module's, or one vault's at that vault's configuration.
func checkRun(sc Scenario, pc policyCase, run PolicyRun, add addFunc) {
	ps, ms := run.Res.Policy, run.Res.Module

	// Section 5: a tick emits at most Segments requests and the queue
	// drains every Advance, so its high-water mark is bounded by the
	// configured depth. The per-bank pair has its own burst bound instead:
	// one slot emits at most a full catch-up plus a full pull-in.
	depth := sc.Cfg.Smart.QueueDepth
	if pc.PerBank != nil {
		depth = pc.PerBank.MaxPostpone + pc.PerBank.MaxPullIn
	}
	if ps.MaxPendingPerTick > depth {
		add(pc.Name, "queue-depth", "MaxPendingPerTick %d > depth %d", ps.MaxPendingPerTick, depth)
	}

	// The per-bank deficit must stay inside the JEDEC-style postponement
	// window: DARP forces at the cap, SARP never accumulates.
	if pc.PerBank != nil && ps.MaxRefreshDeficit > pc.PerBank.MaxPostpone {
		add(pc.Name, "deficit-window", "MaxRefreshDeficit %d > MaxPostpone %d",
			ps.MaxRefreshDeficit, pc.PerBank.MaxPostpone)
	}

	// Every emitted refresh command either reached the module or was
	// covered by self-refresh — exactly, no leaks in either direction.
	if ps.RefreshesRequested != ms.RefreshOps+run.DroppedSelfRefresh {
		add(pc.Name, "refresh-accounting", "requested %d != module ops %d + dropped %d",
			ps.RefreshesRequested, ms.RefreshOps, run.DroppedSelfRefresh)
	}
	// The Results surface must agree with the accessor it mirrors.
	if run.Res.RefreshesDroppedSelfRefresh != run.DroppedSelfRefresh {
		add(pc.Name, "refresh-accounting", "Results dropped-SR %d != accessor %d",
			run.Res.RefreshesDroppedSelfRefresh, run.DroppedSelfRefresh)
	}
	if allBank := uint64(sc.Cfg.Geometry.Banks) * ms.RefreshAllBankOps; ms.RefreshOps !=
		ms.RefreshCBROps+ms.RefreshRASOnlyOps+ms.RefreshPerBankOps+allBank {
		add(pc.Name, "refresh-accounting", "ops %d != CBR %d + RAS-only %d + per-bank %d + %d banks x all-bank %d",
			ms.RefreshOps, ms.RefreshCBROps, ms.RefreshRASOnlyOps, ms.RefreshPerBankOps,
			sc.Cfg.Geometry.Banks, ms.RefreshAllBankOps)
	}
	if pc.Name == "none" && ms.RefreshOps != 0 {
		add(pc.Name, "refresh-accounting", "no-refresh policy issued %d refresh ops", ms.RefreshOps)
	}
	// Overlapped issue is a subset of per-bank issue: everything for SARP,
	// nothing for DARP, impossible for the row-granular policies.
	if ms.RefreshOverlapOps > ms.RefreshPerBankOps {
		add(pc.Name, "refresh-accounting", "overlap ops %d > per-bank ops %d", ms.RefreshOverlapOps, ms.RefreshPerBankOps)
	}
	switch pc.Name {
	case "sarp":
		if ms.RefreshOverlapOps != ms.RefreshPerBankOps {
			add(pc.Name, "refresh-accounting", "sarp issued %d of %d per-bank ops overlapped", ms.RefreshOverlapOps, ms.RefreshPerBankOps)
		}
	case "darp":
		if ms.RefreshOverlapOps != 0 {
			add(pc.Name, "refresh-accounting", "darp issued %d overlapped ops", ms.RefreshOverlapOps)
		}
	}

	checkEnergy(pc.Name, run.Res.Energy, add)
	checkResidency(sc, pc.Name, ms, add)
	checkPowerStateEnergy(sc.Cfg, pc.Name, run.Res, add)

	// Latency summaries must be finite and ordered (the histogram
	// quantile overflow clamp).
	for _, q := range []struct {
		label string
		v     float64
	}{{"avg", run.Res.AvgLatencyNS}, {"p50", run.Res.P50LatencyNS}, {"p99", run.Res.P99LatencyNS}} {
		if math.IsNaN(q.v) || math.IsInf(q.v, 0) {
			add(pc.Name, "latency", "%s latency %v not finite", q.label, q.v)
		}
	}
	if run.Res.P50LatencyNS > run.Res.P99LatencyNS {
		add(pc.Name, "latency", "p50 %v > p99 %v", run.Res.P50LatencyNS, run.Res.P99LatencyNS)
	}
}

// checkEnergy verifies the breakdown is finite, non-negative and
// internally consistent with its aggregate accessors.
func checkEnergy(policy string, b power.Breakdown, add addFunc) {
	comps := []struct {
		label string
		v     power.Energy
	}{
		{"Background", b.Background}, {"ActPre", b.ActPre},
		{"Read", b.Read}, {"Write", b.Write},
		{"RefreshArray", b.RefreshArray}, {"RefreshBus", b.RefreshBus},
		{"RefreshCounter", b.RefreshCounter},
	}
	var sum float64
	for _, c := range comps {
		v := float64(c.v)
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			add(policy, "energy-sum", "component %s = %v", c.label, c.v)
		}
		sum += v
	}
	if !closeEnough(sum, float64(b.Total())) {
		add(policy, "energy-sum", "components sum to %v, Total() = %v", sum, b.Total())
	}
	refresh := float64(b.RefreshArray) + float64(b.RefreshBus) + float64(b.RefreshCounter)
	if !closeEnough(refresh, float64(b.RefreshRelated())) {
		add(policy, "energy-sum", "refresh components sum to %v, RefreshRelated() = %v", refresh, b.RefreshRelated())
	}
	if policy == "none" && b.RefreshRelated() != 0 {
		add(policy, "energy-sum", "no-refresh run charged %v refresh energy", b.RefreshRelated())
	}
}

func closeEnough(a, b float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*scale+1e-9
}

// checkResidency verifies the module's time accounting: rank-time is
// conserved (active + idle covers every rank over the whole run; the
// module may run slightly past the end to complete in-flight ops) and
// the low-power residencies are subsets of idle time.
func checkResidency(sc Scenario, policy string, ms dram.ModuleStats, add addFunc) {
	ranks := sim.Duration(sc.Cfg.Geometry.Channels * sc.Cfg.Geometry.Ranks)
	span := ms.ActiveTime + ms.IdleTime
	if ms.ActiveTime < 0 || ms.IdleTime < 0 {
		add(policy, "residency", "negative residency: active %v idle %v", ms.ActiveTime, ms.IdleTime)
	}
	if span < ranks*sc.Duration {
		add(policy, "residency", "active %v + idle %v < %d ranks x %v", ms.ActiveTime, ms.IdleTime, ranks, sc.Duration)
	}
	if ms.SelfRefreshTime < 0 || ms.SelfRefreshTime > ms.IdleTime {
		add(policy, "residency", "self-refresh time %v outside idle time %v", ms.SelfRefreshTime, ms.IdleTime)
	}
	if ms.PowerDownTime < 0 || ms.PowerDownTime > ms.IdleTime {
		add(policy, "residency", "power-down time %v outside idle time %v", ms.PowerDownTime, ms.IdleTime)
	}
	if sc.SelfRefreshAfter <= 0 && (ms.SelfRefreshTime != 0 || ms.SelfRefreshEntries != 0) {
		add(policy, "residency", "self-refresh engaged (%v, %d entries) without arming",
			ms.SelfRefreshTime, ms.SelfRefreshEntries)
	}
	checkPowerStateResidency(policy, ms, sc.PowerStates.Enabled(), add)
}

// checkPowerStateResidency verifies the explicit power-state machine's
// residency vector: every low-power residency is a subset of the time
// class it is carved from (ACT-PDN of active time; PRE-PDN and
// self-refresh, which are mutually exclusive, of idle time; slow-wake of
// self-refresh time), and nothing accumulates unless the ladder was
// armed.
func checkPowerStateResidency(policy string, ms dram.ModuleStats, armed bool, add addFunc) {
	if !ms.PowerStatesTracked {
		if ms.ActPdnTime != 0 || ms.PrePdnFastTime != 0 || ms.PrePdnSlowTime != 0 ||
			ms.SelfRefreshSlowTime != 0 || ms.PowerDownEntries != 0 {
			add(policy, "residency", "power-down residency (%v/%v/%v/%v, %d entries) without tracking",
				ms.ActPdnTime, ms.PrePdnFastTime, ms.PrePdnSlowTime, ms.SelfRefreshSlowTime, ms.PowerDownEntries)
		}
		return
	}
	if !armed {
		add(policy, "residency", "power-state tracking on without an armed ladder")
	}
	if ms.ActPdnTime < 0 || ms.ActPdnTime > ms.ActiveTime {
		add(policy, "residency", "ACT-PDN time %v outside active time %v", ms.ActPdnTime, ms.ActiveTime)
	}
	if ms.PrePdnFastTime < 0 || ms.PrePdnSlowTime < 0 {
		add(policy, "residency", "negative PRE-PDN residency: fast %v slow %v", ms.PrePdnFastTime, ms.PrePdnSlowTime)
	}
	if ms.PrePdnFastTime+ms.PrePdnSlowTime+ms.SelfRefreshTime > ms.IdleTime {
		add(policy, "residency", "PRE-PDN %v+%v + self-refresh %v exceed idle time %v",
			ms.PrePdnFastTime, ms.PrePdnSlowTime, ms.SelfRefreshTime, ms.IdleTime)
	}
	if ms.SelfRefreshSlowTime < 0 || ms.SelfRefreshSlowTime > ms.SelfRefreshTime {
		add(policy, "residency", "slow-wake time %v outside self-refresh time %v",
			ms.SelfRefreshSlowTime, ms.SelfRefreshTime)
	}
}

// checkPowerStateEnergy recomputes background energy from the residency
// vector — each state's standby power (per-device current x VDD x
// devices x scale) times its residency, awake shares as remainders —
// and requires the model's Breakdown.Background to match. Only
// meaningful when the explicit machine ran.
func checkPowerStateEnergy(cfg config.DRAM, policy string, res memctrl.Results, add addFunc) {
	ms := res.Module
	if !ms.PowerStatesTracked {
		return
	}
	m := cfg.Power
	cur := m.Currents
	scale := m.BackgroundScale
	if scale == 0 {
		scale = 1
	}
	pw := func(ma float64) float64 {
		return ma * cur.VDD * float64(m.Geometry.DevicesPerRank) * scale
	}
	clamp := func(v float64) float64 {
		if v < 0 {
			return 0
		}
		return v
	}
	srMS := ms.SelfRefreshTime.Milliseconds()
	idleMS := clamp(ms.IdleTime.Milliseconds() - srMS)
	actPdnMS := ms.ActPdnTime.Milliseconds()
	fastMS := ms.PrePdnFastTime.Milliseconds()
	slowMS := ms.PrePdnSlowTime.Milliseconds()
	srSlowMS := ms.SelfRefreshSlowTime.Milliseconds()
	want := pw(cur.IDD3N)*clamp(ms.ActiveTime.Milliseconds()-actPdnMS) +
		pw(cur.IDD3P)*actPdnMS +
		pw(cur.IDD2N)*clamp(idleMS-fastMS-slowMS) +
		pw(cur.IDD2P)*fastMS +
		pw(cur.IDD2P0)*slowMS +
		pw(cur.IDD6)*clamp(srMS-srSlowMS) +
		pw(cur.IDD6L)*srSlowMS
	if got := float64(res.Energy.Background); !closeEnough(want*1e6, got) {
		add(policy, "residency-energy", "background %v pJ != residency recompute %v pJ", got, want*1e6)
	}
}

// firstIntervalGap is how many fewer refreshes Smart Refresh requests
// than the oracle on vault v over the scenario's first refresh interval
// (zero when it requests as many or more), taken from runs of both cut
// at the end of that interval. In the first interval each policy
// refreshes every row at most once, at a seeded stagger time. The oracle
// staggers rows in flat order, so a sequential sweep reaches each row
// just after its refresh; Smart's position-major counter seeding does
// not follow the sweep, so the sweep restores most of its rows before
// their counters expire. The gap is up to one refresh per row, and it
// says nothing about Smart under-refreshing, so the lower bound leaves
// it out. cases must hold both policies.
func firstIntervalGap(ctx context.Context, sc Scenario, cases map[string]policyCase, v int) uint64 {
	head := sc
	head.Duration = min(sc.Duration, sc.Cfg.RefreshInterval())
	s := runPolicy(ctx, head, cases["smart"], 1, nil, nil).vault(v).Res.Policy.RefreshesRequested
	o := runPolicy(ctx, head, cases["oracle"], 1, nil, nil).vault(v).Res.Policy.RefreshesRequested
	if o <= s {
		return 0
	}
	return o - s
}

// checkRefreshBounds places Smart Refresh's request count between the
// oracle's (the section 4.4 optimum) and distributed CBR's (the
// baseline it improves on), and the retention-aware extension at or
// below plain Smart Refresh. Counter quantization, segment stagger and
// mode switches shift counts by bounded amounts, absorbed by boundSlack.
// The lower leg compares counts from the second refresh interval on:
// when Smart falls short of the oracle, its first-interval shortfall
// (firstGap, which costs two more runs of one interval each) is added to
// its side. Each leg needs only the two policies it compares to have run
// cleanly; a panicked run is already reported.
func checkRefreshBounds(sc Scenario, byName map[string]PolicyRun, firstGap func() uint64, add addFunc) {
	ran := func(name string) (uint64, bool) {
		run, ok := byName[name]
		return run.Res.Policy.RefreshesRequested, ok && run.Panic == ""
	}
	s, ok := ran("smart")
	if !ok {
		return
	}
	slack := boundSlack(sc, byName["smart"].Res.Policy)
	if c, ok := ran("cbr"); ok && s > c+slack {
		add("smart", "refresh-bound-upper", "smart requested %d > cbr %d + slack %d", s, c, slack)
	}
	if o, ok := ran("oracle"); ok && s+slack < o {
		if first := firstGap(); s+slack+first < o {
			add("smart", "refresh-bound-lower", "smart requested %d + slack %d + first-interval gap %d < oracle %d", s, slack, first, o)
		}
	}
	if r, ok := ran("smart-retention"); ok && r > s+slack {
		add("smart-retention", "refresh-bound-upper", "retention-aware requested %d > smart %d + slack %d", r, s, slack)
	}
}

// checkPerBankBounds ties the per-bank pair's request counts to
// distributed CBR's: both walk TotalRows refreshes per interval, so the
// counts may differ only by the deferral window (postponed refreshes
// still owed, pulled-in refreshes banked ahead) plus end-of-run phase per
// bank. Skipped when cbr or the per-bank policy was filtered out.
func checkPerBankBounds(sc Scenario, byName map[string]PolicyRun, add addFunc) {
	cbr, okC := byName["cbr"]
	if !okC || cbr.Panic != "" {
		return
	}
	pbCfg := core.DefaultPerBankConfig()
	banks := uint64(sc.Cfg.Geometry.TotalBanks())
	slack := banks*uint64(pbCfg.MaxPostpone+pbCfg.MaxPullIn+2) + 64
	c := cbr.Res.Policy.RefreshesRequested
	for _, name := range []string{"darp", "sarp"} {
		run, ok := byName[name]
		if !ok || run.Panic != "" {
			continue
		}
		v := run.Res.Policy.RefreshesRequested
		if v > c+slack {
			add(name, "refresh-bound-upper", "%s requested %d > cbr %d + slack %d", name, v, c, slack)
		}
		if v+slack < c {
			add(name, "refresh-bound-lower", "%s requested %d + slack %d < cbr %d", name, v, slack, c)
		}
	}
}

// checkRAIDRBounds places the multirate wheel's request count between a
// share-scaled oracle and distributed CBR. RAIDR is demand-oblivious,
// so on sparse traffic it refreshes *less* than the full-rate oracle —
// the lower leg therefore scales the oracle's count by the wheel's
// multirate share (computed from the actual programmed filters,
// including false positives). Upper leg: the share never exceeds one,
// so the wheel can never out-refresh CBR beyond end-of-run phase.
// Skipped when cbr, oracle or raidr was filtered out.
func checkRAIDRBounds(sc Scenario, byName map[string]PolicyRun, add addFunc) {
	raidr, okR := byName["raidr"]
	cbr, okC := byName["cbr"]
	oracle, okO := byName["oracle"]
	if !okR || !okC || !okO || raidr.Panic != "" || cbr.Panic != "" || oracle.Panic != "" {
		return
	}
	rmap := experiment.DefaultRetentionMap(sc.Cfg.Geometry, sc.Seed)
	share := experiment.PolicyRAIDR.Entry().New(sc.Cfg, rmap).(*core.RAIDR).RefreshShare()
	slack := 2*uint64(sc.Cfg.Geometry.TotalRows()) + 64
	r, c, o := raidr.Res.Policy.RefreshesRequested, cbr.Res.Policy.RefreshesRequested, oracle.Res.Policy.RefreshesRequested
	if r > c+slack {
		add("raidr", "refresh-bound-upper", "raidr requested %d > cbr %d + slack %d", r, c, slack)
	}
	if scaled := uint64(share * float64(o)); r+slack < scaled {
		add("raidr", "refresh-bound-lower", "raidr requested %d + slack %d < share %.3f x oracle %d = %d",
			r, slack, share, o, scaled)
	}
}

// boundSlack bounds the count differences the mechanisms themselves
// introduce: up to one counter-access period of phase per row
// (rows/2^bits), segment- and bank-granularity rounding at the window
// edges, and one full counter-zeroing sweep per re-enable switch
// (section 4.6 re-enables conservatively by zeroing every counter).
func boundSlack(sc Scenario, smart core.PolicyStats) uint64 {
	rows := uint64(sc.Cfg.Geometry.TotalRows())
	modulus := uint64(1) << uint(sc.Cfg.Smart.CounterBits)
	slack := rows/modulus + 2*uint64(sc.Cfg.Smart.Segments+sc.Cfg.Geometry.TotalBanks()) + 64
	slack += (smart.EnableSwitches + smart.DisableSwitches) * rows
	return slack
}
