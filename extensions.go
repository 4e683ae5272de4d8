package smartrefresh

import (
	"context"
	"io"

	"smartrefresh/internal/config"
	"smartrefresh/internal/core"
	"smartrefresh/internal/experiment"
	"smartrefresh/internal/memctrl"
	"smartrefresh/internal/report"
	"smartrefresh/internal/thermal"
	"smartrefresh/internal/workload"
)

// This file exposes the library's extensions beyond the paper's core
// mechanism: the thermal model behind the 3D cache's doubled refresh
// rate, the retention-aware (RAPID/VRA-style) combination the paper's
// related work describes as orthogonal, and report rendering.

// Thermal model (section 4.5's motivation).

// Stacked3DTemp is the stacked-DRAM operating temperature the paper
// cites (90.27 degC).
const Stacked3DTemp = thermal.Stacked3DTemp

// RefreshIntervalAt returns the refresh interval required at tempC given
// the base interval, applying the vendor derating rule: halving per
// 10 degC band above 85 degC. It panics beyond the 105 degC rated
// envelope; use RefreshIntervalAtChecked to handle that case.
func RefreshIntervalAt(base Duration, tempC float64) Duration {
	return thermal.MustRefreshInterval(base, tempC)
}

// RefreshIntervalAtChecked is RefreshIntervalAt returning an error for
// temperatures beyond the vendor-rated envelope instead of panicking.
func RefreshIntervalAtChecked(base Duration, tempC float64) (Duration, error) {
	return thermal.RefreshInterval(base, tempC)
}

// StackLayerTemp estimates the temperature of the n-th stacked DRAM
// layer with the default die-stack parameters (layer 1 reproduces the
// paper's 90.27 degC).
func StackLayerTemp(layer int) float64 {
	return thermal.DefaultStack().LayerTemp(layer)
}

// Retention-aware extension.

type (
	// RetentionClass is one bin of rows sharing a retention multiplier.
	RetentionClass = core.RetentionClass
	// RetentionMap assigns a retention multiplier to every row.
	RetentionMap = core.RetentionMap
)

// DefaultRetentionClasses returns the 20/50/30% distribution at 1x/2x/4x
// retention used by the extension study.
func DefaultRetentionClasses() []RetentionClass { return core.DefaultRetentionClasses() }

// NewRetentionMap assigns rows to retention classes deterministically.
func NewRetentionMap(g Geometry, classes []RetentionClass, seed uint64) *RetentionMap {
	return core.NewRetentionMap(g, classes, seed)
}

// NewRetentionAwarePolicy combines Smart Refresh with per-row retention
// classes: idle rows of class c are refreshed every c intervals.
func NewRetentionAwarePolicy(cfg Config, rmap *RetentionMap) Policy {
	return core.NewRetentionAwareSmart(cfg.Geometry, cfg.RefreshInterval(), cfg.Smart, rmap)
}

// RAIDR multirate refresh (Liu et al., related work).

type (
	// RAIDRConfig sizes the multirate wheel's retention bins and the
	// Bloom filters that resolve them.
	RAIDRConfig = core.RAIDRConfig
	// VRTSpec injects variable-retention-time flips and profiling error
	// into a workload's retention profile.
	VRTSpec = workload.VRTSpec
)

// DefaultRAIDRConfig returns the paper-scale defaults: bins at 1x/2x/4x
// the base interval with 128 KB Bloom filters per explicit bin.
func DefaultRAIDRConfig() RAIDRConfig { return core.DefaultRAIDRConfig() }

// NewRAIDRPolicy builds the RAIDR multirate wheel: rows are refreshed
// every m base intervals, where m is the retention-bin multiplier the
// Bloom filters resolve. False positives only demote rows to a
// stronger (more frequent) rate, so lookups are always conservative.
func NewRAIDRPolicy(cfg Config, raidr RAIDRConfig, rmap *RetentionMap) Policy {
	return core.NewRAIDR(cfg.Geometry, cfg.RefreshInterval(), raidr, rmap)
}

// Report rendering.

// ReportFormat selects figure/table output encoding.
type ReportFormat = report.Format

// Report formats.
const (
	FormatText     = report.Text
	FormatCSV      = report.CSV
	FormatMarkdown = report.Markdown
	FormatJSON     = report.JSON
)

// WriteFigure renders one reproduced figure.
func WriteFigure(w io.Writer, fig Figure, format ReportFormat) error {
	return report.WriteFigure(w, fig, format)
}

// WriteEngineStats renders an engine's job counters (simulations run,
// memoisation hits, summed simulation wall time).
func WriteEngineStats(w io.Writer, st EngineStats, format ReportFormat) error {
	return report.WriteEngineStats(w, st, format)
}

// Ablation studies (DESIGN.md section 5).

type (
	// CounterWidthPoint is one row of the section 4.4 optimality study.
	CounterWidthPoint = experiment.CounterWidthPoint
	// StaggerPoint compares staggered and uniform counter seeding.
	StaggerPoint = experiment.StaggerPoint
	// SegmentsPoint is one row of the queue sizing study.
	SegmentsPoint = experiment.SegmentsPoint
	// BusOverheadPoint isolates the RAS-only address-bus cost.
	BusOverheadPoint = experiment.BusOverheadPoint
	// RetentionAwarePoint is one row of the extension study.
	RetentionAwarePoint = experiment.RetentionAwarePoint
	// RAIDRPoint is one row of the RAIDR bin-count x profile-error study.
	RAIDRPoint = experiment.RAIDRPoint
	// DisableStudyResult captures the section 4.6 idle-OS experiment.
	DisableStudyResult = experiment.DisableStudyResult
)

// CounterWidthStudy sweeps the time-out counter width (section 4.4). A
// nil engine runs the study on a private single-use engine; pass a shared
// engine to pool workers and progress hooks across studies. Like every
// study that simulates, it returns its points with the joined errors of
// the jobs that failed, whose points hold zeros.
func CounterWidthStudy(eng *Engine, prof Profile, bits []int, opts RunOptions) ([]CounterWidthPoint, error) {
	return experiment.CounterWidthStudy(eng, prof, bits, opts)
}

// StaggerStudy measures the figure 2 burst hazard with and without the
// staggered seed.
func StaggerStudy(kind ConfigKind) []StaggerPoint {
	return experiment.StaggerStudy(kind)
}

// SegmentsStudy sweeps the segment count / pending queue depth.
func SegmentsStudy(eng *Engine, prof Profile, segments []int, opts RunOptions) ([]SegmentsPoint, error) {
	return experiment.SegmentsStudy(eng, prof, segments, opts)
}

// BusOverheadStudy isolates the RAS-only refresh bus cost.
func BusOverheadStudy(eng *Engine, prof Profile, opts RunOptions) ([]BusOverheadPoint, error) {
	return experiment.BusOverheadStudy(eng, prof, opts)
}

// RetentionAwareStudy compares CBR, Smart and retention-aware Smart.
func RetentionAwareStudy(eng *Engine, prof Profile, opts RunOptions) ([]RetentionAwarePoint, error) {
	return experiment.RetentionAwareStudy(eng, prof, opts)
}

// RAIDRStudy sweeps RAIDR bin counts and profile-error rates against a
// CBR baseline under VRT injection.
func RAIDRStudy(eng *Engine, prof Profile, binCounts []int, profileErrors []float64, vrt VRTSpec, opts RunOptions) ([]RAIDRPoint, error) {
	return experiment.RAIDRStudy(eng, prof, binCounts, profileErrors, vrt, opts)
}

// FormatRAIDRStudy renders the study as a table string.
func FormatRAIDRStudy(points []RAIDRPoint) string {
	return experiment.FormatRAIDRStudy(points)
}

// DisableStudy runs the section 4.6 idle-OS experiment.
func DisableStudy(eng *Engine, opts RunOptions) (DisableStudyResult, error) {
	return experiment.DisableStudy(eng, opts)
}

// Per-rank power-state ladder (ACT-PDN / PRE-PDN / self-refresh).

type (
	// PowerStateConfig arms the explicit per-rank power-down ladder; the
	// zero value keeps the historical two-state (awake / self-refresh)
	// behaviour bit for bit.
	PowerStateConfig = memctrl.PowerStateConfig
	// PowerState identifies one rung of the ladder.
	PowerState = memctrl.PowerState
	// PowerStatePolicy is one labeled point of the sweep's threshold grid.
	PowerStatePolicy = experiment.PowerStatePolicy
	// PowerStateSweep is the energy-vs-added-latency Pareto study over
	// the ladder's threshold grid.
	PowerStateSweep = experiment.PowerStateSweep
	// PowerStatePoint is one (policy, workload) cell of the sweep.
	PowerStatePoint = experiment.PowerStatePoint
)

// PowerStatePolicies returns the sweep's built-in threshold grid.
func PowerStatePolicies() []PowerStatePolicy { return experiment.PowerStatePolicies() }

// RunPowerStateSweep runs the threshold grid x workload study and marks
// the Pareto frontier of the (energy, added latency) trade-off.
func RunPowerStateSweep(eng *Engine, profiles []Profile, opts RunOptions) PowerStateSweep {
	return experiment.RunPowerStateSweep(eng, profiles, opts)
}

// Vault-parallel stacked DRAM (HMC-style scale-out).

type (
	// VaultArray drives one independent memory controller per vault of a
	// vaulted stacked-DRAM geometry, advancing them across a bounded
	// worker pool. Results are bit-identical at every worker count.
	VaultArray = memctrl.VaultArray
	// VaultOptions extends ControllerOptions with the worker bound.
	VaultOptions = memctrl.VaultOptions
	// VaultPolicyFactory builds the refresh policy for one vault from its
	// per-vault configuration slice.
	VaultPolicyFactory = memctrl.PolicyFactory
	// VaultScaling is one intra-run shard-count scaling study.
	VaultScaling = experiment.VaultScaling
	// VaultScalePoint is one shard count's wall time and result digest.
	VaultScalePoint = experiment.VaultScalePoint
)

// HMC8V selects the 8-vault x 4-layer stacked configuration.
const HMC8V = experiment.HMC8V

// HMC8Vault returns the HMC-style 8-vault, 4-layer stacked-DRAM module
// (32 ms refresh via the thermal derating model).
func HMC8Vault() Config { return config.HMC8Vault() }

// NewVaultArray builds one controller per vault of cfg's geometry. A
// conventional module is the one-vault case: its controller runs on cfg
// under cfg's name and reports its own results.
func NewVaultArray(cfg Config, factory VaultPolicyFactory, opts VaultOptions) (*VaultArray, error) {
	return memctrl.NewVaultArray(cfg, factory, opts)
}

// RunVaultScaling sweeps a vaulted run across intra-run shard counts,
// timing each and digesting its results; the study reports whether every
// shard count reproduced the serial schedule bit for bit.
func RunVaultScaling(ctx context.Context, cfg Config, prof Profile, kind PolicyKind, opts RunOptions, shards []int) (VaultScaling, error) {
	return experiment.RunVaultScaling(ctx, cfg, prof, kind, opts, shards)
}

// IdlePowerPoint is one row of the idle-power management comparison.
type IdlePowerPoint = experiment.IdlePowerPoint

// IdlePowerStudy compares CBR, Smart-with-disable and module self-refresh
// on the near-idle workload.
func IdlePowerStudy(eng *Engine, opts RunOptions) ([]IdlePowerPoint, error) {
	return experiment.IdlePowerStudy(eng, opts)
}

// RefreshParallelismPoint is one row of the refresh-access-parallelism
// study: a policy's refresh-induced demand stall against the CBR
// baseline, with its per-bank/overlap operation mix and arbiter counts.
type RefreshParallelismPoint = experiment.RefreshParallelismPoint

// RefreshParallelismStudy runs the policy zoo — no-refresh floor, CBR,
// Smart, burst, oracle, DARP and SARP — over one benchmark stream and
// isolates each policy's refresh-induced demand stall.
func RefreshParallelismStudy(eng *Engine, prof Profile, opts RunOptions) ([]RefreshParallelismPoint, error) {
	return experiment.RefreshParallelismStudy(eng, prof, opts)
}

// FormatRefreshParallelismStudy renders the study as a table string.
func FormatRefreshParallelismStudy(points []RefreshParallelismPoint) string {
	return experiment.FormatRefreshParallelismStudy(points)
}

// EDRAMPoint is one row of the embedded-DRAM refresh-interval study.
type EDRAMPoint = experiment.EDRAMPoint

// EDRAMStudy sweeps the refresh intervals the paper's introduction cites
// (64 ms commodity, 4 ms NEC eDRAM, 64 us IBM eDRAM) with one fixed
// workload, showing where Smart Refresh's benefit holds and where no
// realistic traffic can beat the retention deadline.
func EDRAMStudy(eng *Engine) ([]EDRAMPoint, error) { return experiment.EDRAMStudy(eng) }
