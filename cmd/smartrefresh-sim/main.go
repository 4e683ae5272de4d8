// Command smartrefresh-sim runs one DRAM simulation: a module preset, a
// refresh policy, and either a synthetic benchmark workload or a trace
// stream, printing refresh, energy and latency results.
//
// Trace replay is streaming: the input may be binary or text, plain or
// gzip-compressed, a file or stdin ("-trace -"), and is decoded with
// bounded memory — a day-long trace never fits in RAM and never has to.
// With -serve the simulator becomes a long-lived service accepting trace
// streams over HTTP POST and emitting incremental telemetry snapshots
// while each replay runs.
//
// Examples:
//
//	smartrefresh-sim -config table1-2gb -policy smart -benchmark gcc
//	smartrefresh-sim -config table2-3d-32ms -policy cbr -benchmark mummer
//	smartrefresh-sim -config hmc-8vault -policy smart -shards 8
//	smartrefresh-sim -config table1-2gb -policy smart -trace run.trc
//	zcat day.trc.gz | smartrefresh-sim -policy smart -trace -
//	smartrefresh-sim -serve localhost:8080
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"sort"
	"strings"
	"syscall"

	"smartrefresh/internal/atomicio"
	"smartrefresh/internal/config"
	"smartrefresh/internal/core"
	"smartrefresh/internal/experiment"
	"smartrefresh/internal/memctrl"
	"smartrefresh/internal/sim"
	"smartrefresh/internal/telemetry"
	"smartrefresh/internal/trace"
	"smartrefresh/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "smartrefresh-sim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("smartrefresh-sim", flag.ContinueOnError)
	cfgName := fs.String("config", "table1-2gb", "module preset: "+strings.Join(presetNames(), ", "))
	policyName := fs.String("policy", "smart", "refresh policy: "+strings.Join(experiment.PolicyNames(), ", "))
	benchmark := fs.String("benchmark", "gcc", "benchmark profile (see -list); ignored with -trace")
	tracePath := fs.String("trace", "", "replay a trace stream instead of a synthetic benchmark (file path, or '-' for stdin; binary/text, gzip auto-detected)")
	warmupMS := fs.Int("warmup-ms", 64, "warmup excluded from measurement, ms")
	measureMS := fs.Int("measure-ms", 256, "measured window, ms")
	check := fs.Bool("check", false, "verify the retention invariant during the run")
	shards := fs.Int("shards", 0, "vault workers for vaulted presets like hmc-8vault (0 = one per CPU, 1 = serial); results are bit-identical at any value")
	selfRefreshUS := fs.Int("selfrefresh-us", 0, "enter module self-refresh after this demand-idle time (0 = off)")
	actPdnUS := fs.Float64("actpdn-us", 0, "enter ACT-PDN (pages open, CKE low) after this rank-idle time in us (0 = off; must undercut the page-close timeout)")
	preFastUS := fs.Float64("prepdn-fast-us", 0, "enter fast-exit PRE-PDN after this rank-idle time in us (0 = off; must exceed the page-close timeout)")
	preSlowUS := fs.Float64("prepdn-slow-us", 0, "deepen to slow-exit (DLL-off) PRE-PDN after this rank-idle time in us (0 = off; requires -prepdn-fast-us)")
	srSlowUS := fs.Float64("sr-slow-us", 0, "drop to slow-wake self-refresh this long after SR entry in us (0 = off; requires -selfrefresh-us)")
	list := fs.Bool("list", false, "list presets, policies and benchmarks, then exit")
	serveAddr := fs.String("serve", "", "run as a trace-replay service on this address (e.g. localhost:8080) instead of a batch job")
	capturePath := fs.String("capture", "", "record the replayed or generated access stream to this binary trace file for later bit-exact replay")
	snapshotMS := fs.Int("snapshot-ms", 0, "emit an incremental telemetry snapshot every N simulated ms during trace replay (0 = off)")
	snapshotOut := fs.String("snapshot-out", "-", "incremental snapshot sink: '-' streams JSON lines to stdout, a path is atomically rewritten with the latest snapshot")
	bufferKB := fs.Int("stream-buffer-kb", trace.DefaultStreamBuffer/1024, "trace read-ahead buffer in KiB; bounds trace-side memory however large the input")
	tornOK := fs.Bool("torn-ok", false, "tolerate a trace cut mid-record: replay the complete prefix instead of failing")
	// -trace is taken by access-trace replay, so the telemetry trace
	// output is -trace-out here.
	var tf telemetry.Flags
	tf.RegisterNamed(fs, "trace-out", "metrics", "pprof")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		fmt.Fprintln(stdout, "presets:   ", strings.Join(presetNames(), ", "))
		fmt.Fprintln(stdout, "policies:  ", strings.Join(experiment.PolicyNames(), ", "))
		fmt.Fprintln(stdout, "benchmarks:", strings.Join(workload.Names(), ", "))
		return nil
	}
	if err := tf.Start(); err != nil {
		return err
	}

	if *serveAddr != "" {
		return runServe(*serveAddr, stdout)
	}

	cfg, ok := config.Presets()[*cfgName]
	if !ok {
		return fmt.Errorf("unknown preset %q (want one of %s)", *cfgName, strings.Join(presetNames(), ", "))
	}
	opts := experiment.RunOptions{
		Warmup:           sim.Time(*warmupMS) * sim.Millisecond,
		Measure:          sim.Time(*measureMS) * sim.Millisecond,
		Stacked:          strings.HasPrefix(*cfgName, "table2"),
		CheckRetention:   *check,
		SelfRefreshAfter: sim.Time(*selfRefreshUS) * sim.Microsecond,
		Shards:           *shards,
		PowerStates: memctrl.PowerStateConfig{
			ActPdnAfter:     usToDuration(*actPdnUS),
			PrePdnFastAfter: usToDuration(*preFastUS),
			PrePdnSlowAfter: usToDuration(*preSlowUS),
			SRSlowAfter:     usToDuration(*srSlowUS),
		},
	}
	policy, err := experiment.ParsePolicy(*policyName)
	if err != nil {
		return err
	}

	if *tracePath != "" {
		if err := checkReplayable(policy); err != nil {
			return err
		}
		if err := checkReplayFlags(fs); err != nil {
			return err
		}
		p := replayParams{
			cfg:       cfg,
			policy:    policy,
			check:     *check,
			shards:    *shards,
			bufKB:     *bufferKB,
			tornOK:    *tornOK,
			tracer:    tf.Tracer(),
			reg:       tf.Registry(),
			snapEvery: sim.Time(*snapshotMS) * sim.Millisecond,
		}
		if p.snapEvery > 0 {
			if *snapshotOut == "-" {
				p.snapEmit = telemetry.JSONLEmitter(stdout)
			} else {
				p.snapEmit = telemetry.FileEmitter(*snapshotOut)
			}
		}
		return runTrace(*tracePath, stdin, *capturePath, p, &tf, stdout)
	}

	prof, err := workload.ByName(*benchmark)
	if err != nil {
		return err
	}
	eng := experiment.NewEngine(1)
	eng.Trace = tf.Tracer()
	eng.Metrics = tf.Registry()
	res, err := runBenchmark(eng, experiment.Job{Cfg: cfg, Prof: prof, Policy: policy.Kind, Opts: opts}, *capturePath)
	if err != nil {
		return err
	}
	printResults(stdout, cfg, res.Results, res.Window, res.RetentionErr)
	printVaults(stdout, res.Vaults)
	if policy.Kind == experiment.PolicyRAIDR {
		printRAIDR(stdout, cfg, prof, res.Results)
	}
	return tf.Finish()
}

// runBenchmark runs one benchmark job. With a capture path it also
// records the stream the job consumed: the capture wraps the job's own
// source, so it holds exactly the window the run simulated. It goes
// through the atomic writer, so a failed run leaves no torn trace.
func runBenchmark(eng *experiment.Engine, job experiment.Job, capturePath string) (experiment.RunResult, error) {
	if capturePath == "" {
		res := eng.RunJobs([]experiment.Job{job})[0]
		return res, res.Err
	}
	var res experiment.RunResult
	err := atomicio.WriteFile(capturePath, func(w io.Writer) error {
		bw := trace.NewBinaryWriter(w)
		var capture *trace.Capture
		job.MakeSource = func() trace.Source {
			capture = trace.NewCapture(job.Prof.NewSource(job.Opts.Stacked), bw)
			return capture
		}
		if res = eng.RunJobs([]experiment.Job{job})[0]; res.Err != nil {
			return res.Err
		}
		if err := capture.Err(); err != nil {
			return err
		}
		return bw.Flush()
	})
	return res, err
}

// checkReplayable rejects the policies a trace replay cannot build: a
// trace carries no workload seed to derive a retention map from.
func checkReplayable(policy experiment.PolicyEntry) error {
	if policy.RetentionMap {
		return fmt.Errorf("policy %s needs a per-row retention map derived from a benchmark seed, which trace replay does not have", policy.Name)
	}
	return nil
}

// replayUnusedFlags are the run flags a trace replay has no use for: it
// measures the whole stream, without power-down or self-refresh.
var replayUnusedFlags = []string{
	"warmup-ms", "measure-ms", "selfrefresh-us", "actpdn-us", "prepdn-fast-us", "prepdn-slow-us", "sr-slow-us",
}

// checkReplayFlags rejects the replayUnusedFlags set on the command line,
// naming each, instead of replaying as if they were absent.
func checkReplayFlags(fs *flag.FlagSet) error {
	var set []string
	fs.Visit(func(f *flag.Flag) {
		if slices.Contains(replayUnusedFlags, f.Name) {
			set = append(set, "-"+f.Name)
		}
	})
	if len(set) > 0 {
		return fmt.Errorf("%s not supported with -trace: a replay measures the whole stream, without power-down or self-refresh", strings.Join(set, ", "))
	}
	return nil
}

// replayableNames lists the policies checkReplayable accepts.
func replayableNames() []string {
	var names []string
	for _, e := range experiment.Policies() {
		if checkReplayable(e) == nil {
			names = append(names, e.Name)
		}
	}
	return names
}

// printRAIDR appends the multirate wheel's filter summary. The wheel is
// rebuilt from the seed-derived map the run used, for its analytic
// share and filter size.
func printRAIDR(w io.Writer, cfg config.DRAM, prof workload.Profile, res memctrl.Results) {
	rmap := experiment.DefaultRetentionMap(cfg.Geometry, prof.Seed())
	wheel := experiment.PolicyRAIDR.Entry().New(cfg, rmap).(*core.RAIDR)
	fmt.Fprintf(w, "raidr             %.1f%% multirate share, %d KB filter storage, %d bloom lookups, %d false positives\n",
		100*wheel.RefreshShare(), wheel.FilterSizeBytes()/1024,
		res.Policy.BloomLookups, res.Policy.BloomFalsePositives)
}

// printVaults appends the per-vault breakdown of a vaulted run (no-op
// for monolithic presets, whose results carry no vault entries).
func printVaults(w io.Writer, vaults []memctrl.Results) {
	if len(vaults) == 0 {
		return
	}
	fmt.Fprintf(w, "vaults            %d\n", len(vaults))
	for v, r := range vaults {
		fmt.Fprintf(w, "  vault%02d         %8d accesses, %8d refresh ops, %10.3f mJ\n",
			v, r.Module.Accesses, r.Module.RefreshOps, r.Energy.Total().Millijoules())
	}
}

// usToDuration converts a microsecond flag value (fractional values
// allowed, e.g. -actpdn-us 0.5) to a simulation duration.
func usToDuration(us float64) sim.Duration {
	return sim.Duration(us * float64(sim.Microsecond))
}

func presetNames() []string {
	var names []string
	for n := range config.Presets() {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// replayParams configure one streaming trace replay.
type replayParams struct {
	cfg       config.DRAM
	policy    experiment.PolicyEntry
	check     bool
	shards    int
	bufKB     int
	tornOK    bool
	snapEvery sim.Duration
	snapEmit  func(telemetry.Snapshot) error
	tracer    *telemetry.Tracer
	reg       *telemetry.Registry
	capture   *trace.BinaryWriter
}

// replayOutcome is what a streaming replay produced: the run (its Window
// ends one refresh interval after the last record) and the ingest facts.
type replayOutcome struct {
	experiment.RunResult
	Records uint64
	Format  trace.StreamFormat
	Gzipped bool
	Torn    bool
}

// errSource is a trace.Source that latches its first error.
type errSource interface {
	trace.Source
	Err() error
}

// replayStream drives a trace stream through the experiment record loop
// with bounded memory: the raw bytes are decoded chunk by chunk (gzip and
// format auto-detected), every record is validated against the Source
// contract (nondecreasing, nonnegative time — a malformed trace fails
// at its offending record index instead of corrupting accounting), and
// incremental telemetry snapshots are emitted on the simulated-time
// cadence of p.snapEvery. The replay has no warmup and an open end (see
// experiment.RunStream); a vaulted preset replays through its vault
// array with p.shards workers. Cancelling ctx ends the replay with its
// error.
func replayStream(ctx context.Context, r io.Reader, p replayParams) (replayOutcome, error) {
	var out replayOutcome

	stream, err := trace.NewStreamSource(r, trace.StreamOptions{
		BufferBytes:  p.bufKB * 1024,
		TolerateTorn: p.tornOK,
	})
	if err != nil {
		return out, err
	}
	out.Format, out.Gzipped = stream.Format(), stream.Gzipped()

	var src errSource = trace.NewValidator(stream)
	if p.capture != nil {
		src = trace.NewCapture(src, p.capture)
	}
	reg := p.reg
	var snap *telemetry.Snapshotter
	if p.snapEvery > 0 && p.snapEmit != nil {
		if reg == nil {
			reg = telemetry.NewRegistry()
		}
		snap = telemetry.NewSnapshotter(reg, p.snapEvery, p.snapEmit)
	}
	obs := &observer{src: src, snap: snap}

	res, err := experiment.RunStream(ctx, p.cfg, p.policy.Kind,
		experiment.RunOptions{CheckRetention: p.check, Shards: p.shards},
		experiment.Stream{Source: obs, Trace: p.tracer, Metrics: reg})
	out.RunResult, out.Records = res.RunResult, obs.records
	if err == nil {
		err = obs.Err()
	}
	if err != nil {
		return out, err
	}
	out.Torn = stream.Torn()
	if err := snap.Final(out.Window, out.Records); err != nil {
		return out, fmt.Errorf("snapshot: %w", err)
	}
	return out, nil
}

// observer counts the records a replay consumed and advances the
// snapshot clock. A record is observed when the run asks for the next
// one, after it was simulated, so a snapshot's metrics include it. A
// snapshot emit failure ends the stream and latches in Err.
type observer struct {
	src     errSource
	snap    *telemetry.Snapshotter
	records uint64
	last    sim.Time
	err     error
}

// Next implements trace.Source.
func (o *observer) Next() (trace.Record, bool) {
	if o.err != nil {
		return trace.Record{}, false
	}
	if o.records > 0 {
		if err := o.snap.Observe(o.last, o.records); err != nil {
			o.err = fmt.Errorf("snapshot: %w", err)
			return trace.Record{}, false
		}
	}
	rec, ok := o.src.Next()
	if ok {
		o.records++
		o.last = rec.Time
	}
	return rec, ok
}

// Err returns the snapshot error, or the wrapped source's.
func (o *observer) Err() error {
	if o.err != nil {
		return o.err
	}
	return o.src.Err()
}

// runTrace replays a trace stream (file or stdin) against the
// controller; SIGINT or SIGTERM stops the replay with an error.
func runTrace(path string, stdin io.Reader, capturePath string, p replayParams, tf *telemetry.Flags, stdout io.Writer) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var r io.Reader
	if path == "-" {
		r = stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}

	var out replayOutcome
	var err error
	if capturePath != "" {
		// The capture rides the atomic writer: a replay that fails —
		// including on a validation error — leaves no half-recorded
		// trace behind.
		err = atomicio.WriteFile(capturePath, func(w io.Writer) error {
			bw := trace.NewBinaryWriter(w)
			p.capture = bw
			var rerr error
			out, rerr = replayStream(ctx, r, p)
			if rerr != nil {
				return rerr
			}
			return bw.Flush()
		})
	} else {
		out, err = replayStream(ctx, r, p)
	}
	if err != nil {
		return err
	}
	if out.Torn {
		fmt.Fprintf(os.Stderr, "smartrefresh-sim: warning: trace was cut mid-record; replayed the complete prefix (%d records)\n", out.Records)
	}
	printResults(stdout, p.cfg, out.Results, out.Window, out.RetentionErr)
	printVaults(stdout, out.Vaults)
	return tf.Finish()
}

func printResults(w io.Writer, cfg config.DRAM, res memctrl.Results, window sim.Duration, retErr error) {
	e := res.Energy
	fmt.Fprintf(w, "config            %s (%d rows, %v refresh interval)\n",
		cfg.Name, cfg.Geometry.TotalRows(), cfg.Timing.RefreshInterval)
	fmt.Fprintf(w, "window            %v\n", window)
	fmt.Fprintf(w, "demand accesses   %d (%.1f%% row hits)\n",
		res.Module.Accesses, pct(res.Module.RowHits, res.Module.Accesses))
	fmt.Fprintf(w, "latency           avg %.1f ns, p50 %.0f ns, p99 %.0f ns\n",
		res.AvgLatencyNS, res.P50LatencyNS, res.P99LatencyNS)
	fmt.Fprintf(w, "refresh ops       %d (%d CBR, %d RAS-only; %.0f/s)\n",
		res.Module.RefreshOps, res.Module.RefreshCBROps, res.Module.RefreshRASOnlyOps,
		float64(res.Module.RefreshOps)/window.Seconds())
	fmt.Fprintf(w, "baseline rate     %.0f/s\n", cfg.BaselineRefreshesPerSecond())
	fmt.Fprintf(w, "demand stall      %v\n", res.Module.DemandStall)
	if ms := res.Module; ms.PowerStatesTracked {
		fmt.Fprintf(w, "power states      %d power-down entries, %d self-refresh entries\n",
			ms.PowerDownEntries, ms.SelfRefreshEntries)
		fmt.Fprintf(w, "  residency       act-pdn %v, pre-pdn fast %v, pre-pdn slow %v, sr %v (slow-wake %v)\n",
			ms.ActPdnTime, ms.PrePdnFastTime, ms.PrePdnSlowTime, ms.SelfRefreshTime, ms.SelfRefreshSlowTime)
	}
	fmt.Fprintln(w, "energy breakdown:")
	fmt.Fprintf(w, "  background      %10.3f mJ\n", e.Background.Millijoules())
	fmt.Fprintf(w, "  activate/pre    %10.3f mJ\n", e.ActPre.Millijoules())
	fmt.Fprintf(w, "  read            %10.3f mJ\n", e.Read.Millijoules())
	fmt.Fprintf(w, "  write           %10.3f mJ\n", e.Write.Millijoules())
	fmt.Fprintf(w, "  refresh array   %10.3f mJ\n", e.RefreshArray.Millijoules())
	fmt.Fprintf(w, "  refresh bus     %10.3f mJ\n", e.RefreshBus.Millijoules())
	fmt.Fprintf(w, "  counter array   %10.3f mJ\n", e.RefreshCounter.Millijoules())
	fmt.Fprintf(w, "  TOTAL           %10.3f mJ (refresh-related %.3f mJ, %.1f%%)\n",
		e.Total().Millijoules(), e.RefreshRelated().Millijoules(),
		100*float64(e.RefreshRelated())/float64(e.Total()))
	if ps := res.Policy; ps.CounterReads > 0 || ps.TimeDisabled > 0 {
		fmt.Fprintf(w, "policy            %d counter reads, %d writes, %d access resets, max %d pending/tick",
			ps.CounterReads, ps.CounterWrites, ps.AccessResets, ps.MaxPendingPerTick)
		if ps.TimeDisabled > 0 {
			fmt.Fprintf(w, ", disabled for %v", ps.TimeDisabled)
		}
		fmt.Fprintln(w)
	}
	if retErr != nil {
		fmt.Fprintf(w, "RETENTION VIOLATION: %v\n", retErr)
	}
}

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}
