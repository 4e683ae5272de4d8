// Package smartrefresh is a from-scratch reproduction of "Smart Refresh:
// An Enhanced Memory Controller Design for Reducing Energy in Conventional
// and 3D Die-Stacked DRAMs" (Ghosh & Lee, MICRO-40, 2007).
//
// The library bundles a DDR2 DRAM device and timing model, a Micron-style
// energy model, a memory controller, SRAM caches and a 3D die-stacked
// DRAM cache, the Smart Refresh policy itself (per-row
// time-out counters with staggered countdown and a bounded pending refresh
// queue) alongside CBR/burst/oracle baselines, synthetic benchmark
// workloads calibrated to the paper's evaluation, and an experiment
// harness that regenerates every figure of the paper (Figures 6-18).
//
// Quick start:
//
//	prof, _ := smartrefresh.ProfileByName("gcc")
//	pm := smartrefresh.RunPair(smartrefresh.Table1_2GB(), prof, smartrefresh.RunOptions{})
//	fmt.Printf("refresh ops reduced by %.1f%%\n", pm.RefreshReductionPct)
//
// The package re-exports the library's internal building blocks through
// type aliases, so the full simulator is scriptable without reaching into
// internal packages.
package smartrefresh

import (
	"io"

	"smartrefresh/internal/config"
	"smartrefresh/internal/core"
	"smartrefresh/internal/dram"
	"smartrefresh/internal/experiment"
	"smartrefresh/internal/memctrl"
	"smartrefresh/internal/power"
	"smartrefresh/internal/sim"
	"smartrefresh/internal/telemetry"
	"smartrefresh/internal/trace"
	"smartrefresh/internal/workload"
)

// Version identifies the library release.
const Version = "1.0.0"

// Simulation time base.
type (
	// Time is a simulation timestamp in picoseconds.
	Time = sim.Time
	// Duration is a span of simulated time in picoseconds.
	Duration = sim.Duration
)

// Time units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Configuration types and presets (Tables 1-3 of the paper).
type (
	// Config bundles geometry, timing, power model and Smart Refresh
	// parameters for one DRAM module.
	Config = config.DRAM
	// CacheConfig describes an SRAM cache level or the 3D cache shape.
	CacheConfig = config.CacheConfig
	// Geometry is the physical organisation of a module.
	Geometry = dram.Geometry
	// Timing is the DDR2 command timing set.
	Timing = dram.Timing
	// PowerModel converts module activity into energy.
	PowerModel = power.Model
	// Energy is picojoules.
	Energy = power.Energy
	// EnergyBreakdown attributes energy to components.
	EnergyBreakdown = power.Breakdown
)

// Table1_2GB returns the paper's 2 GB conventional DDR2 module (Table 1).
func Table1_2GB() Config { return config.Table1_2GB() }

// Table1_4GB returns the 4 GB variant with doubled banks (Table 1).
func Table1_4GB() Config { return config.Table1_4GB() }

// Table2_3D64 returns the 64 MB 3D die-stacked DRAM cache at a 64 ms
// refresh interval (Table 2).
func Table2_3D64() Config { return config.Table2_3D64(64 * sim.Millisecond) }

// Table2_3D32 returns the Table 2 cache at the doubled 32 ms rate required
// above 85 degC.
func Table2_3D32() Config { return config.Table2_3D32() }

// Table1L2 returns the paper's 1 MB 8-way L2 (Table 1).
func Table1L2() CacheConfig { return config.Table1L2() }

// Table2_3DCache returns the 64 MB direct-mapped 3D cache organisation.
func Table2_3DCache() CacheConfig { return config.Table2_3DCache() }

// Refresh policies (the paper's contribution and its baselines).
type (
	// Policy schedules refresh operations.
	Policy = core.Policy
	// SmartConfig parameterises the Smart Refresh policy.
	SmartConfig = core.SmartConfig
	// PolicyStats is policy-side telemetry.
	PolicyStats = core.PolicyStats
	// RefreshCommand is one refresh operation emitted by Policy.Advance;
	// exported so callers can hold a reusable command buffer.
	RefreshCommand = core.Command
)

// NewSmartPolicy builds the Smart Refresh policy for a configuration.
func NewSmartPolicy(cfg Config) Policy {
	return core.NewSmart(cfg.Geometry, cfg.RefreshInterval(), cfg.Smart)
}

// NewCBRPolicy builds the distributed CAS-before-RAS baseline.
func NewCBRPolicy(cfg Config) Policy {
	return core.NewCBR(cfg.Geometry, cfg.RefreshInterval())
}

// NewBurstPolicy builds the burst refresh policy.
func NewBurstPolicy(cfg Config) Policy {
	return core.NewBurst(cfg.Geometry, cfg.RefreshInterval())
}

// NewOraclePolicy builds the 100%-optimality oracle bound.
func NewOraclePolicy(cfg Config) Policy {
	return core.NewOracle(cfg.Geometry, cfg.RefreshInterval(), cfg.Timing.TRefreshRow*16)
}

// PerBankConfig parameterises the per-bank DARP/SARP policy family.
type PerBankConfig = core.PerBankConfig

// DefaultPerBankConfig returns the JEDEC-flavoured per-bank defaults
// (8 postponements, 8 pull-ins).
func DefaultPerBankConfig() PerBankConfig { return core.DefaultPerBankConfig() }

// NewDARPPolicy builds the DARP-style per-bank policy: refresh slots are
// postponed at read-busy banks, pulled into idle ones, and forced at the
// deficit cap.
func NewDARPPolicy(cfg Config, pb PerBankConfig) Policy {
	return core.NewDARP(cfg.Geometry, cfg.RefreshInterval(), pb)
}

// NewSARPPolicy builds the SARP-style per-bank policy: every refresh is
// issued in the overlapped form so demand to the bank's other subarrays
// proceeds underneath it.
func NewSARPPolicy(cfg Config, pb PerBankConfig) Policy {
	return core.NewSARP(cfg.Geometry, cfg.RefreshInterval(), pb)
}

// Optimality returns the section 4.4 metric (1 - 2^-bits).
func Optimality(counterBits int) float64 { return core.Optimality(counterBits) }

// CounterAreaKB returns the section 4.7 counter-array storage overhead.
func CounterAreaKB(g Geometry, counterBits int) float64 {
	return core.CounterAreaKB(g, counterBits)
}

// Memory controller.
type (
	// Controller owns one DRAM module and one refresh policy.
	Controller = memctrl.Controller
	// Request is one demand memory transaction.
	Request = memctrl.Request
	// ControllerOptions tunes controller construction.
	ControllerOptions = memctrl.Options
	// Results summarises a finished controller run.
	Results = memctrl.Results
)

// NewController builds a memory controller for a configuration and policy.
func NewController(cfg Config, policy Policy, opts ControllerOptions) (*Controller, error) {
	return memctrl.New(cfg, policy, opts)
}

// Workloads and traces.
type (
	// Profile is one benchmark's calibrated synthetic stand-in.
	Profile = workload.Profile
	// StreamSpec parameterises one synthetic access stream.
	StreamSpec = workload.StreamSpec
	// TraceRecord is one demand access.
	TraceRecord = trace.Record
	// TraceSource streams access records in time order.
	TraceSource = trace.Source
	// TraceStream decodes a byte stream (binary or text, gzip or plain,
	// auto-detected) into records with bounded memory.
	TraceStream = trace.StreamSource
	// TraceStreamOptions tunes a TraceStream's buffering and torn-tail
	// tolerance.
	TraceStreamOptions = trace.StreamOptions
	// TraceCapture tees a source through a binary writer for bit-exact
	// replay.
	TraceCapture = trace.Capture
	// TraceValidator enforces the Source ordering contract, failing at
	// the offending record index.
	TraceValidator = trace.Validator
	// TraceBinaryWriter encodes records in the compact binary format.
	TraceBinaryWriter = trace.BinaryWriter
)

// Profiles returns the 32 paper benchmarks in figure order.
func Profiles() []Profile { return workload.Profiles() }

// ProfileByName returns one benchmark profile.
func ProfileByName(name string) (Profile, error) { return workload.ByName(name) }

// BenchmarkNames lists the benchmark names in figure order.
func BenchmarkNames() []string { return workload.Names() }

// IdleProfile returns the near-idle workload of section 4.6.
func IdleProfile() Profile { return workload.Idle() }

// NewGenerator builds a deterministic stream generator.
func NewGenerator(spec StreamSpec, seed uint64) TraceSource {
	return workload.NewGenerator(spec, seed)
}

// NewTraceStream opens a bounded-memory streaming decoder over r,
// sniffing gzip compression and the trace format.
func NewTraceStream(r io.Reader, opts TraceStreamOptions) (*TraceStream, error) {
	return trace.NewStreamSource(r, opts)
}

// NewTraceCapture tees src through w, recording every yielded record.
func NewTraceCapture(src TraceSource, w *TraceBinaryWriter) *TraceCapture {
	return trace.NewCapture(src, w)
}

// NewTraceValidator wraps src with Source-contract enforcement.
func NewTraceValidator(src TraceSource) *TraceValidator {
	return trace.NewValidator(src)
}

// NewTraceBinaryWriter returns a binary trace encoder writing to w.
func NewTraceBinaryWriter(w io.Writer) *TraceBinaryWriter {
	return trace.NewBinaryWriter(w)
}

// Experiments (one figure-table row per paper figure).
type (
	// Suite runs benchmark sweeps and derives figures with memoisation.
	Suite = experiment.Suite
	// Figure is one reproduced evaluation figure.
	Figure = experiment.Figure
	// RunOptions controls a single simulation run.
	RunOptions = experiment.RunOptions
	// RunResult is one run's measured window.
	RunResult = experiment.RunResult
	// PairMetrics compares Smart Refresh against the CBR baseline.
	PairMetrics = experiment.PairMetrics
	// PolicyKind selects a refresh policy by name.
	PolicyKind = experiment.PolicyKind
	// ConfigKind selects one of the four evaluated configurations.
	ConfigKind = experiment.ConfigKind
	// Engine executes simulation jobs on a worker pool with memoisation.
	Engine = experiment.Engine
	// Job is one fully-specified (non-memoised) engine simulation.
	Job = experiment.Job
	// JobEvent describes one engine job to instrumentation hooks.
	JobEvent = experiment.JobEvent
	// EngineStats counts an engine's work.
	EngineStats = experiment.EngineStats
)

// Policy kinds.
const (
	PolicyCBR    = experiment.PolicyCBR
	PolicySmart  = experiment.PolicySmart
	PolicyBurst  = experiment.PolicyBurst
	PolicyNone   = experiment.PolicyNone
	PolicyOracle = experiment.PolicyOracle
	PolicyDARP   = experiment.PolicyDARP
	PolicySARP   = experiment.PolicySARP

	PolicySmartRetention = experiment.PolicySmartRetention
	PolicyRAIDR          = experiment.PolicyRAIDR
)

// Evaluated configurations.
const (
	Conv2GB     = experiment.Conv2GB
	Conv4GB     = experiment.Conv4GB
	Stacked3D64 = experiment.Stacked3D64
	Stacked3D32 = experiment.Stacked3D32
)

// Telemetry (command tracing and metrics; see internal/telemetry).
type (
	// Tracer records DRAM command events and engine job spans as Chrome
	// trace-event JSON (Perfetto-loadable). Attach one to Engine.Trace.
	Tracer = telemetry.Tracer
	// MetricsRegistry collects named counters, gauges and histograms
	// from simulation runs. Attach one to Engine.Metrics.
	MetricsRegistry = telemetry.Registry
	// CommandKind enumerates the traced DRAM command event types.
	CommandKind = telemetry.CommandKind
)

// Traced DRAM command event types.
const (
	CmdActivate       = telemetry.CmdActivate
	CmdPrecharge      = telemetry.CmdPrecharge
	CmdRead           = telemetry.CmdRead
	CmdWrite          = telemetry.CmdWrite
	CmdRefreshRASOnly = telemetry.CmdRefreshRASOnly
	CmdRefreshCBR     = telemetry.CmdRefreshCBR
	CmdRefreshPB      = telemetry.CmdRefreshPB
	CmdRefreshAB      = telemetry.CmdRefreshAB
	CmdSelfRefresh    = telemetry.CmdSelfRefresh
	CmdIdleClose      = telemetry.CmdIdleClose
)

// NewTracer returns an enabled command tracer.
func NewTracer() *Tracer { return telemetry.NewTracer() }

// NewMetricsRegistry returns an enabled metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return telemetry.NewRegistry() }

// NewSuite builds an experiment suite with default options.
func NewSuite() *Suite { return experiment.NewSuite() }

// NewEngine builds a simulation engine with the given worker bound
// (workers <= 0 means one worker per CPU).
func NewEngine(workers int) *Engine { return experiment.NewEngine(workers) }

// Run simulates one benchmark against one configuration and policy. A
// run that could not be simulated comes back with RunResult.Err set.
func Run(cfg Config, prof Profile, kind PolicyKind, opts RunOptions) RunResult {
	return experiment.Run(cfg, prof, kind, opts)
}

// RunPair runs CBR and Smart Refresh on the same stream and compares them.
func RunPair(cfg Config, prof Profile, opts RunOptions) PairMetrics {
	return experiment.RunPair(cfg, prof, opts)
}
