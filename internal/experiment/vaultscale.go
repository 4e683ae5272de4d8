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
// defaults to {1, 2, vaults}. The serial point (shards = 1) is always
// run first and is the speedup and fingerprint reference; if absent from
// the list it is prepended.
func RunVaultScaling(ctx context.Context, cfg config.DRAM, prof workload.Profile, kind PolicyKind, opts RunOptions, shards []int) (VaultScaling, error) {
	if !cfg.Geometry.Vaulted() {
		return VaultScaling{}, fmt.Errorf("experiment: %s is not a vaulted geometry", cfg.Name)
	}
	if len(shards) == 0 {
		shards = []int{1, 2, cfg.Geometry.VaultCount()}
	}
	if shards[0] != 1 {
		shards = append([]int{1}, shards...)
	}

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
		if s < 1 {
			return VaultScaling{}, fmt.Errorf("experiment: shard count %d < 1", s)
		}
		o := opts.withDefaults(cfg.RefreshInterval())
		o.Shards = s
		var timing memctrl.VaultTiming
		start := time.Now()
		j := newRunJob(cfg, prof, kind, o, prof.NewSource(o.Stacked))
		j.inspect = func(t *runTarget) { timing = t.va.Timing() }
		res, err := execute(ctx, j)
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

// Render writes the study as an aligned text table.
func (v VaultScaling) Render(w io.Writer) {
	fmt.Fprintf(w, "Vault scaling: %s / %s / %s (%d vaults)\n",
		v.Config, v.Benchmark, v.Policy, v.Vaults)
	fmt.Fprintf(w, "  %8s %14s %9s %14s %9s %12s  %s\n",
		"shards", "wall", "speedup", "vault busy", "max/mean", "wait/epoch", "fingerprint")
	for _, pt := range v.Points {
		fmt.Fprintf(w, "  %8d %14s %8.2fx %14s %8.2fx %12s  %s\n",
			pt.Shards, pt.Wall.Round(time.Microsecond), pt.Speedup,
			pt.Timing.TotalBusy().Round(time.Microsecond), busySkew(pt.Timing),
			pt.Timing.WaitPerBarrier().Round(time.Microsecond), pt.Fingerprint[:16])
	}
	fmt.Fprintf(w, "  vault busy: summed per-vault flush time; max/mean: busiest vault over the mean;\n")
	fmt.Fprintf(w, "  wait/epoch: barrier time beyond an even split of that work over min(shards, CPUs)\n")
	if v.Deterministic {
		fmt.Fprintf(w, "  results bit-identical at every shard count\n")
	} else {
		fmt.Fprintf(w, "  WARNING: results differ across shard counts\n")
	}
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
