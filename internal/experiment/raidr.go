package experiment

import (
	"fmt"

	"smartrefresh/internal/core"
	"smartrefresh/internal/workload"
)

// The RAIDR ablation: a bin-count x profile-error sweep of the
// multirate Bloom-filter wheel against the CBR baseline. Each point
// builds a *profiled* retention map through the workload package's VRT
// and profile-error injection, programs the wheel's filters from it,
// and runs with the retention checker bound to that same profiled map —
// the tentpole property "no row ever crosses its profiled retention
// deadline". Whether the *profile* matches reality is reported
// separately: AtRiskRows counts rows whose worst-case true retention
// (under VRT) is shorter than the rate the wheel operates them at, an
// analytic quantity the sweep computes without simulating failures.

// RAIDRPoint is one row of the RAIDR ablation study.
type RAIDRPoint struct {
	// Policy labels the row: "cbr" for the baseline, "raidr" otherwise.
	Policy string
	// Bins is the bin count of the wheel (0 for the baseline row).
	Bins int
	// ProfileError and VRTFlipFraction echo the injection knobs.
	ProfileError    float64
	VRTFlipFraction float64

	RefreshOps          uint64
	RefreshReductionPct float64 // vs the CBR baseline row
	RefreshEnergyMJ     float64
	TotalEnergyMJ       float64

	// Bloom telemetry from the policy (zero for the baseline).
	BloomLookups        uint64
	BloomFalsePositives uint64
	FilterBytes         int

	// AtRiskRows counts rows the wheel operates at a weaker rate than
	// their worst-case true retention multiplier — the rows a wrong
	// profile actually endangers. TotalRows gives the denominator.
	AtRiskRows int
	TotalRows  int

	// RetentionClean reports that the run's checker (bound to the
	// profiled map) saw no violation.
	RetentionClean bool
}

// RAIDRStudy sweeps bin count x profile error for one benchmark stream.
// binCounts entries must be in 1..5: bin count n refreshes at
// multipliers {1, 2, ..., 2^(n-1)} of the base interval, and the
// retention-map ceiling (16x) caps the strongest bin. The vrt spec's
// FlipFraction/Period apply to every raidr point; its ProfileError is
// overridden by each profileErrors entry. The first returned point is
// the CBR baseline. Retention checking is forced on for every run, with
// each raidr run checked against its own profiled map.
func RAIDRStudy(eng *Engine, prof workload.Profile, binCounts []int, profileErrors []float64, vrt workload.VRTSpec, opts RunOptions) ([]RAIDRPoint, error) {
	eng = ensureEngine(eng)
	cfg := noSelfDisable(Conv2GB.DRAM())
	opts.CheckRetention = true

	nominal := DefaultRetentionMap(cfg.Geometry, prof.Seed()).Multipliers()

	type point struct {
		bins     int
		profErr  float64
		profMap  *core.RetentionMap
		analysis *core.RAIDR // filter state for the analytic columns
		injected *workload.VRT
	}
	jobs := []Job{{Cfg: cfg, Prof: prof, Policy: PolicyCBR, Opts: opts}}
	points := []point{{}} // baseline placeholder
	for _, bins := range binCounts {
		if bins < 1 || bins > 5 {
			panic(fmt.Sprintf("experiment: raidr bin count %d outside 1..5", bins))
		}
		mults := make([]int, bins)
		for i := range mults {
			mults[i] = 1 << i
		}
		for _, pe := range profileErrors {
			spec := vrt
			spec.ProfileError = pe
			injected := workload.NewVRT(spec, nominal, prof.Seed()^0x52414944)
			profMap := core.NewRetentionMapFromMultipliers(cfg.Geometry, injected.Profiled())
			rcfg := core.DefaultRAIDRConfig()
			rcfg.BinMultipliers = mults
			analysis := newRAIDR(cfg, rcfg, profMap)
			points = append(points, point{bins: bins, profErr: pe, profMap: profMap, analysis: analysis, injected: injected})
			jobs = append(jobs, Job{
				// The custom bins and the injected profile replace the
				// registry's default wheel and seed-derived map; the
				// variant name tells the points apart.
				Cfg:  variant(cfg, fmt.Sprintf("raidr%d-pe%g", bins, pe)),
				Prof: prof, Policy: PolicyRAIDR, Opts: opts,
				RetentionMap: profMap,
				MakePolicy:   func() core.Policy { return newRAIDR(cfg, rcfg, profMap) },
			})
		}
	}

	res := eng.RunJobs(jobs)
	out := make([]RAIDRPoint, len(res))
	for i, r := range res {
		p := points[i]
		out[i] = RAIDRPoint{
			Policy:          r.Policy.String(),
			Bins:            p.bins,
			ProfileError:    p.profErr,
			VRTFlipFraction: vrt.FlipFraction,
			RefreshOps:      r.Results.Module.RefreshOps,
			RefreshEnergyMJ: r.Results.Energy.RefreshRelated().Millijoules(),
			TotalEnergyMJ:   r.Results.Energy.Total().Millijoules(),
			RetentionClean:  r.RetentionErr == nil && r.Err == nil,
			TotalRows:       cfg.Geometry.TotalRows(),
		}
		if p.analysis == nil {
			out[i].VRTFlipFraction = 0
			continue
		}
		out[i].BloomLookups = r.Results.Policy.BloomLookups
		out[i].BloomFalsePositives = r.Results.Policy.BloomFalsePositives
		out[i].FilterBytes = p.analysis.FilterSizeBytes()
		for flat := 0; flat < cfg.Geometry.TotalRows(); flat++ {
			if p.analysis.BinMultiplier(flat) > int(p.injected.WorstMultiplier(flat)) {
				out[i].AtRiskRows++
			}
		}
	}
	base := out[0]
	for i := range out {
		if base.RefreshOps > 0 {
			out[i].RefreshReductionPct = 100 * (1 - float64(out[i].RefreshOps)/float64(base.RefreshOps))
		}
	}
	return out, jobsErr(res)
}

// FormatRAIDRStudy renders the study as a table string.
func FormatRAIDRStudy(points []RAIDRPoint) string {
	s := fmt.Sprintf("%-6s %4s %8s %8s %10s %11s %11s %12s %9s %9s %9s %6s\n",
		"policy", "bins", "profErr", "vrtFlip", "refreshes", "reduction%",
		"lookups", "bloomFP", "filterKB", "atRisk", "totalE mJ", "clean")
	for _, p := range points {
		s += fmt.Sprintf("%-6s %4d %8.2f %8.2f %10d %11.2f %11d %12d %9.1f %9d %9.3f %6v\n",
			p.Policy, p.Bins, p.ProfileError, p.VRTFlipFraction, p.RefreshOps,
			p.RefreshReductionPct, p.BloomLookups, p.BloomFalsePositives,
			float64(p.FilterBytes)/1024, p.AtRiskRows, p.TotalEnergyMJ, p.RetentionClean)
	}
	return s
}
