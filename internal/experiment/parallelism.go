package experiment

import (
	"fmt"

	"smartrefresh/internal/sim"
	"smartrefresh/internal/workload"
)

// RefreshParallelismPoint is one row of the refresh-access-parallelism
// sweep: how much demand stall each policy's refresh scheduling costs,
// and what it pays in refresh operations and energy.
type RefreshParallelismPoint struct {
	Policy string
	// RefreshOps counts module refresh operations in the window;
	// PerBankOps and OverlapOps are its REFpb and overlapped-issue
	// subsets.
	RefreshOps uint64
	PerBankOps uint64
	OverlapOps uint64
	// DemandStall is total bank-busy wait charged to demand accesses;
	// RefreshStall is the refresh-induced part (DemandStall minus the
	// no-refresh run's floor, clamped at zero).
	DemandStall  sim.Duration
	RefreshStall sim.Duration
	// StallReductionPct is the refresh-stall reduction vs distributed CBR.
	StallReductionPct float64
	// Postponed/PulledIn/Forced are the DARP arbiter decisions (zero for
	// the row-granular policies and SARP).
	Postponed, PulledIn, Forced uint64
	RefreshEnergyMJ             float64
	TotalEnergyMJ               float64
}

// RefreshParallelismStudy runs the full policy zoo — the no-refresh
// floor, distributed CBR, Smart Refresh, burst, oracle and the per-bank
// DARP/SARP pair — over one benchmark stream on the 2 GB module and
// reports each policy's refresh-induced demand stall against the CBR
// baseline, alongside its refresh-operation and energy cost. The runs
// execute on eng's worker pool (nil = default engine).
func RefreshParallelismStudy(eng *Engine, prof workload.Profile, opts RunOptions) ([]RefreshParallelismPoint, error) {
	eng = ensureEngine(eng)
	cfg := noSelfDisable(Conv2GB.DRAM())

	kinds := []PolicyKind{PolicyNone, PolicyCBR, PolicySmart, PolicyBurst, PolicyOracle, PolicyDARP, PolicySARP}
	jobs := make([]Job, len(kinds))
	for i, k := range kinds {
		jobs[i] = Job{Cfg: cfg, Prof: prof, Policy: k, Opts: opts}
	}
	res := eng.RunJobs(jobs)

	out := make([]RefreshParallelismPoint, len(res))
	for i, r := range res {
		ms, ps := r.Results.Module, r.Results.Policy
		out[i] = RefreshParallelismPoint{
			Policy:          kinds[i].String(),
			RefreshOps:      ms.RefreshOps,
			PerBankOps:      ms.RefreshPerBankOps,
			OverlapOps:      ms.RefreshOverlapOps,
			DemandStall:     ms.DemandStall,
			Postponed:       ps.RefreshesPostponed,
			PulledIn:        ps.RefreshesPulledIn,
			Forced:          ps.RefreshesForced,
			RefreshEnergyMJ: r.Results.Energy.RefreshRelated().Millijoules(),
			TotalEnergyMJ:   r.Results.Energy.Total().Millijoules(),
		}
	}

	// The no-refresh run stalls only on demand-vs-demand bank conflicts —
	// the same conflicts every policy pays, since all runs see the same
	// stream — so it is the floor that isolates the refresh-induced part.
	floor := out[0].DemandStall
	for i := range out {
		out[i].RefreshStall = out[i].DemandStall - floor
		if out[i].RefreshStall < 0 {
			out[i].RefreshStall = 0
		}
	}
	base := out[1].RefreshStall // distributed CBR
	for i := range out {
		if base > 0 {
			out[i].StallReductionPct = 100 * (1 - float64(out[i].RefreshStall)/float64(base))
		}
	}
	return out, jobsErr(res)
}

// FormatRefreshParallelismStudy renders the study as a table string.
func FormatRefreshParallelismStudy(points []RefreshParallelismPoint) string {
	s := fmt.Sprintf("%-8s %10s %10s %10s %14s %12s %9s %9s %9s %11s %11s\n",
		"policy", "refreshes", "per-bank", "overlap", "refresh stall", "reduction%",
		"postponed", "pulled-in", "forced", "refreshE mJ", "totalE mJ")
	for _, p := range points {
		s += fmt.Sprintf("%-8s %10d %10d %10d %14v %12.2f %9d %9d %9d %11.3f %11.3f\n",
			p.Policy, p.RefreshOps, p.PerBankOps, p.OverlapOps, p.RefreshStall,
			p.StallReductionPct, p.Postponed, p.PulledIn, p.Forced,
			p.RefreshEnergyMJ, p.TotalEnergyMJ)
	}
	return s
}
