package experiment

import (
	"fmt"
	"io"

	"smartrefresh/internal/memctrl"
	"smartrefresh/internal/sim"
	"smartrefresh/internal/workload"
)

// Power-state policy sweep: the idle-mode search over the per-rank
// power-state ladder (memctrl.PowerStateConfig). Each named policy is
// one point of the threshold grid; the sweep runs every point against
// every workload, measures total energy and added demand latency versus
// the never-sleep baseline, and marks the Pareto frontier of the
// (energy, latency) trade-off — the figure the ROADMAP's "idle-mode
// policy search" item asks for.

// PowerStatePolicy is one point of the threshold grid: a label plus the
// controller arming it implies.
type PowerStatePolicy struct {
	Name             string
	SelfRefreshAfter sim.Duration
	Cfg              memctrl.PowerStateConfig
}

// PowerStatePolicies returns the sweep's threshold grid. The ladder
// interleaves with the default 2 us page-close timeout: ACT-PDN must
// undercut it, the PRE-PDN rungs and self-refresh must exceed it in
// depth order (see PowerStateConfig.validate).
func PowerStatePolicies() []PowerStatePolicy {
	const us = sim.Microsecond
	return []PowerStatePolicy{
		{Name: "never-sleep"},
		{Name: "act-pdn-1us", Cfg: memctrl.PowerStateConfig{ActPdnAfter: 1 * us}},
		{Name: "pre-fast-5us", Cfg: memctrl.PowerStateConfig{PrePdnFastAfter: 5 * us}},
		{Name: "pre-fast-20us", Cfg: memctrl.PowerStateConfig{PrePdnFastAfter: 20 * us}},
		{Name: "pre-ladder-5-50us", Cfg: memctrl.PowerStateConfig{
			PrePdnFastAfter: 5 * us, PrePdnSlowAfter: 50 * us}},
		{Name: "sr-100us", SelfRefreshAfter: 100 * us},
		{Name: "pre-fast+sr-100us", SelfRefreshAfter: 100 * us,
			Cfg: memctrl.PowerStateConfig{PrePdnFastAfter: 5 * us}},
		{Name: "ladder-full", SelfRefreshAfter: 200 * us,
			Cfg: memctrl.PowerStateConfig{
				ActPdnAfter:     1 * us,
				PrePdnFastAfter: 5 * us,
				PrePdnSlowAfter: 50 * us,
				SRSlowAfter:     1000 * us,
			}},
	}
}

// PowerStatePoint is one (policy, workload) cell of the sweep.
type PowerStatePoint struct {
	Policy    string
	Benchmark string
	// TotalEnergyMJ and BackgroundMJ are the measured-window energies.
	TotalEnergyMJ float64
	BackgroundMJ  float64
	// AvgLatencyNS is the mean demand latency; AddedLatencyNS is the
	// increase over the same workload's never-sleep baseline (the cost
	// of the wake-up latencies the ladder inserts).
	AvgLatencyNS   float64
	AddedLatencyNS float64
	// Residency percentages of total rank-time in the measured window.
	ActPdnPct float64
	PrePdnPct float64
	SRPct     float64
	PDEntries uint64
	SREntries uint64
	// Pareto marks the point as non-dominated on (TotalEnergyMJ,
	// AvgLatencyNS) within its workload: no other point is at least as
	// good on both axes and strictly better on one.
	Pareto bool
	// Fingerprint is the hex SHA-256 of the run's measured results (the
	// vault-scaling digest), for cross-run determinism checks.
	Fingerprint string
	// Err is non-nil when the underlying run failed; the other fields
	// are then meaningless.
	Err error
}

// PowerStateSweep is the full grid, points grouped by workload with the
// never-sleep baseline first (the order of PowerStatePolicies).
type PowerStateSweep struct {
	Config string
	Points []PowerStatePoint
}

// RunPowerStateSweep executes the threshold grid against each workload
// on the Conv2GB configuration, using eng's worker pool (nil = default
// engine). A nil workload list defaults to the near-idle profile — where
// the ladder has room to act — plus gcc as the busy contrast.
func RunPowerStateSweep(eng *Engine, profiles []workload.Profile, opts RunOptions) PowerStateSweep {
	eng = ensureEngine(eng)
	if len(profiles) == 0 {
		gcc, err := workload.ByName("gcc")
		if err != nil {
			panic(err) // the built-in profile table always has gcc
		}
		profiles = []workload.Profile{workload.Idle(), gcc}
	}
	cfg := Conv2GB.DRAM()
	policies := PowerStatePolicies()

	jobs := make([]Job, 0, len(profiles)*len(policies))
	for _, prof := range profiles {
		for _, pol := range policies {
			o := opts
			o.SelfRefreshAfter = pol.SelfRefreshAfter
			o.PowerStates = pol.Cfg
			jobs = append(jobs, Job{Cfg: cfg, Prof: prof, Policy: PolicyCBR, Opts: o})
		}
	}
	res := eng.RunJobs(jobs)

	ranks := cfg.Geometry.Channels * cfg.Geometry.Ranks
	sweep := PowerStateSweep{Config: cfg.Name}
	normOpts := opts.withDefaults(cfg.RefreshInterval())
	rankTime := normOpts.Measure.Seconds() * float64(ranks)
	for wi, prof := range profiles {
		base := res[wi*len(policies)] // never-sleep is always index 0
		for pi, pol := range policies {
			r := res[wi*len(policies)+pi]
			pt := PowerStatePoint{Policy: pol.Name, Benchmark: prof.Name, Err: r.Err}
			if r.Err == nil {
				ms := r.Results.Module
				pt.TotalEnergyMJ = r.Results.Energy.Total().Millijoules()
				pt.BackgroundMJ = r.Results.Energy.Background.Millijoules()
				pt.AvgLatencyNS = r.Results.AvgLatencyNS
				if base.Err == nil {
					pt.AddedLatencyNS = pt.AvgLatencyNS - base.Results.AvgLatencyNS
				}
				if rankTime > 0 {
					pt.ActPdnPct = 100 * ms.ActPdnTime.Seconds() / rankTime
					pt.PrePdnPct = 100 * (ms.PrePdnFastTime + ms.PrePdnSlowTime).Seconds() / rankTime
					pt.SRPct = 100 * ms.SelfRefreshTime.Seconds() / rankTime
				}
				pt.PDEntries = ms.PowerDownEntries
				pt.SREntries = ms.SelfRefreshEntries
				pt.Fingerprint = fingerprintResult(r)
			}
			sweep.Points = append(sweep.Points, pt)
		}
		markPareto(sweep.Points[wi*len(policies) : (wi+1)*len(policies)])
	}
	return sweep
}

// markPareto flags the non-dominated points of one workload's group on
// (TotalEnergyMJ, AvgLatencyNS) — lower is better on both axes.
func markPareto(points []PowerStatePoint) {
	for i := range points {
		if points[i].Err != nil {
			continue
		}
		dominated := false
		for j := range points {
			if i == j || points[j].Err != nil {
				continue
			}
			if points[j].TotalEnergyMJ <= points[i].TotalEnergyMJ &&
				points[j].AvgLatencyNS <= points[i].AvgLatencyNS &&
				(points[j].TotalEnergyMJ < points[i].TotalEnergyMJ ||
					points[j].AvgLatencyNS < points[i].AvgLatencyNS) {
				dominated = true
				break
			}
		}
		points[i].Pareto = !dominated
	}
}

// Render writes the sweep as an aligned text table, one block per
// workload, frontier points starred.
func (s PowerStateSweep) Render(w io.Writer) {
	fmt.Fprintf(w, "Power-state ladder sweep: %s (policy grid x workload, * = Pareto frontier)\n", s.Config)
	fmt.Fprintf(w, " note: armed ladder policies replace the PowerDownFraction idle calibration\n")
	fmt.Fprintf(w, " with measured per-state residency, so awake-idle time is charged at full IDD2N.\n")
	last := ""
	for _, pt := range s.Points {
		if pt.Benchmark != last {
			last = pt.Benchmark
			fmt.Fprintf(w, " %s:\n", pt.Benchmark)
			fmt.Fprintf(w, "   %-19s %10s %10s %9s %8s %7s %7s %7s %5s\n",
				"policy", "total mJ", "bg mJ", "lat ns", "+lat ns", "actp%", "prep%", "sr%", "")
		}
		if pt.Err != nil {
			fmt.Fprintf(w, "   %-19s ERROR: %v\n", pt.Policy, pt.Err)
			continue
		}
		star := ""
		if pt.Pareto {
			star = "*"
		}
		fmt.Fprintf(w, "   %-19s %10.3f %10.3f %9.1f %8.1f %7.2f %7.2f %7.2f %5s\n",
			pt.Policy, pt.TotalEnergyMJ, pt.BackgroundMJ, pt.AvgLatencyNS,
			pt.AddedLatencyNS, pt.ActPdnPct, pt.PrePdnPct, pt.SRPct, star)
	}
}

// RenderFingerprints writes one line per point — policy, workload and
// result fingerprint — with no floats formatted and no wall times, so
// the output is byte-stable across runs and machines. The CI smoke diffs
// this against a committed expectation.
func (s PowerStateSweep) RenderFingerprints(w io.Writer) {
	for _, pt := range s.Points {
		if pt.Err != nil {
			fmt.Fprintf(w, "%s/%s/%s ERROR %v\n", s.Config, pt.Benchmark, pt.Policy, pt.Err)
			continue
		}
		fmt.Fprintf(w, "%s/%s/%s %s\n", s.Config, pt.Benchmark, pt.Policy, pt.Fingerprint)
	}
}
