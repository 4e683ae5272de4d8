package experiment

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"time"

	"smartrefresh/internal/config"
	"smartrefresh/internal/memctrl"
	"smartrefresh/internal/workload"
)

// VaultScalePoint is one shard count's execution of the same vaulted
// run: its wall time, its speedup over the serial reference, and the
// fingerprint of its measured results.
type VaultScalePoint struct {
	// Shards is the worker count (1 = the serial reference schedule).
	Shards int
	// Wall is the simulation wall time at this shard count.
	Wall time.Duration
	// Speedup is the serial point's wall time divided by this one's.
	Speedup float64
	// Fingerprint is the hex SHA-256 of the run's measured results
	// (aggregate plus per-vault). Every point of a study must agree —
	// that is the determinism contract the sharding is built on.
	Fingerprint string
	// Timing is the vault array's host-side barrier timing: each vault's
	// busy time and the barriers' wait beyond an even split of it. It
	// explains the speedup and is not part of the fingerprint.
	Timing memctrl.VaultTiming
}

// VaultScaling is the intra-run scaling study: one vaulted run repeated
// across shard counts, checking that parallelism buys wall time without
// changing a single bit of the results.
type VaultScaling struct {
	Config    string
	Benchmark string
	Policy    PolicyKind
	// Vaults is the stack's vault count (the parallelism ceiling).
	Vaults int
	Points []VaultScalePoint
	// Deterministic reports whether every point fingerprinted
	// identically to the serial reference.
	Deterministic bool
}

// fingerprintResult digests the deterministic portion of a run result:
// the measured aggregate and the per-vault breakdown. Wall time is
// excluded by construction — RunResult carries none.
func fingerprintResult(res RunResult) string {
	data, err := json.Marshal(struct {
		Results any
		Vaults  any
	}{res.Results, res.Vaults})
	if err != nil {
		// RunResult's measured fields are plain scalars; a failure here
		// is a programming error, not an input condition.
		panic(fmt.Sprintf("experiment: fingerprint: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// RunVaultScaling executes the same vaulted run once per shard count and
// compares wall time and result fingerprints. A nil or empty shard list
// defaults to {1, 2, vaults}; a shard count below 1 is rejected before
// anything runs. The serial point (shards = 1) is always run first, once,
// and is the speedup and fingerprint reference; if absent from the list
// it is prepended.
func RunVaultScaling(ctx context.Context, cfg config.DRAM, prof workload.Profile, kind PolicyKind, opts RunOptions, shards []int) (VaultScaling, error) {
	if !cfg.Geometry.Vaulted() {
		return VaultScaling{}, fmt.Errorf("experiment: %s is not a vaulted geometry", cfg.Name)
	}
	if len(shards) == 0 {
		shards = []int{1, 2, cfg.Geometry.VaultCount()}
	}
	for _, s := range shards {
		if s < 1 {
			return VaultScaling{}, fmt.Errorf("experiment: shard count %d < 1", s)
		}
	}
	shards = append([]int{1}, slices.DeleteFunc(slices.Clone(shards), func(s int) bool { return s == 1 })...)

	study := VaultScaling{
		Config:        cfg.Name,
		Benchmark:     prof.Name,
		Policy:        kind,
		Vaults:        cfg.Geometry.VaultCount(),
		Deterministic: true,
	}
	var refWall time.Duration
	var refPrint string
	for _, s := range shards {
		o := opts.withDefaults(cfg.RefreshInterval())
		o.Shards = s
		var timing memctrl.VaultTiming
		start := time.Now()
		j := newRunJob(cfg, prof, kind, o, prof.NewSource(o.Stacked))
		j.inspect = func(t *runTarget) { timing = t.va.Timing() }
		res, err := execute(ctx, &j)
		if err != nil {
			return VaultScaling{}, err
		}
		pt := VaultScalePoint{
			Shards:      s,
			Wall:        time.Since(start),
			Fingerprint: fingerprintResult(res),
			Timing:      timing,
		}
		if refPrint == "" {
			refWall, refPrint = pt.Wall, pt.Fingerprint
		}
		if pt.Wall > 0 {
			pt.Speedup = float64(refWall) / float64(pt.Wall)
		}
		if pt.Fingerprint != refPrint {
			study.Deterministic = false
		}
		study.Points = append(study.Points, pt)
	}
	return study, nil
}

// Render writes the study's deterministic part — each shard count's
// result fingerprint and the verdict — so the text is byte-stable across
// runs and machines. RenderTiming writes the measured wall times.
func (v VaultScaling) Render(w io.Writer) {
	fmt.Fprintf(w, "Vault scaling: %s / %s / %s (%d vaults)\n",
		v.Config, v.Benchmark, v.Policy, v.Vaults)
	fmt.Fprintf(w, "  %8s  %s\n", "shards", "fingerprint")
	for _, pt := range v.Points {
		fmt.Fprintf(w, "  %8d  %s\n", pt.Shards, pt.Fingerprint[:16])
	}
	if v.Deterministic {
		fmt.Fprintf(w, "  results bit-identical at every shard count\n")
	} else {
		fmt.Fprintf(w, "  WARNING: results differ across shard counts\n")
	}
}

// RenderTiming writes the study's host-side measurement as an aligned
// text table: each shard count's wall time and speedup over the serial
// point, with the per-vault busy time and barrier wait that explain it.
func (v VaultScaling) RenderTiming(w io.Writer) {
	fmt.Fprintf(w, "Vault scaling timing: %s / %s / %s (%d vaults)\n",
		v.Config, v.Benchmark, v.Policy, v.Vaults)
	fmt.Fprintf(w, "  %8s %14s %9s %14s %11s %9s %12s\n",
		"shards", "wall", "speedup", "vault busy", "busy/serial", "max/mean", "wait/epoch")
	for _, pt := range v.Points {
		fmt.Fprintf(w, "  %8d %14s %8.2fx %14s %10.2fx %8.2fx %12s\n",
			pt.Shards, pt.Wall.Round(time.Microsecond), pt.Speedup,
			pt.Timing.TotalBusy().Round(time.Microsecond), v.busyInflation(pt), busySkew(pt.Timing),
			pt.Timing.WaitPerBarrier().Round(time.Microsecond))
	}
	fmt.Fprintf(w, "  vault busy: summed per-vault flush time; busy/serial: that over the serial point's,\n")
	fmt.Fprintf(w, "  the work vaults running at once add to each other (cache traffic, false sharing);\n")
	fmt.Fprintf(w, "  max/mean: busiest vault over the mean;\n")
	fmt.Fprintf(w, "  wait/epoch: barrier time beyond an even split of that work over min(shards, CPUs)\n")
}

// busyInflation is pt's summed vault busy time over the serial point's.
// Both points do the same simulated work, so anything above 1 is time
// the vaults cost each other by running at once: unlike the speedup, it
// leaves out dispatch, imbalance and the serial router. Zero when the
// study has no serial point or that point measured no busy time.
func (v VaultScaling) busyInflation(pt VaultScalePoint) float64 {
	i := slices.IndexFunc(v.Points, func(p VaultScalePoint) bool { return p.Shards == 1 })
	if i < 0 {
		return 0
	}
	serial := v.Points[i].Timing.TotalBusy()
	if serial <= 0 {
		return 0
	}
	return float64(pt.Timing.TotalBusy()) / float64(serial)
}

// busySkew is the busiest vault's flush time over the mean: the
// barrier's imbalance bound, since no schedule finishes before its
// heaviest vault.
func busySkew(t memctrl.VaultTiming) float64 {
	total := t.TotalBusy()
	if total <= 0 {
		return 0
	}
	return float64(slices.Max(t.Busy)) * float64(len(t.Busy)) / float64(total)
}
