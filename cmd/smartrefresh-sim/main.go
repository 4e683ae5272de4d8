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
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"

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
	if *capturePath != "" {
		// Record the generator stream over the run window first; the
		// generators are deterministic per seed, so the engine run below
		// sees a bit-identical stream and a later replay of the capture
		// reproduces exactly what was simulated.
		if err := captureBenchmark(prof, opts, *capturePath); err != nil {
			return err
		}
	}
	eng := experiment.NewEngine(1)
	eng.Trace = tf.Tracer()
	eng.Metrics = tf.Registry()
	res := eng.RunJobs([]experiment.Job{{Cfg: cfg, Prof: prof, Policy: policy.Kind, Opts: opts}})[0]
	if res.Err != nil {
		return res.Err
	}
	printResults(stdout, cfg, res.Results, res.Window, res.RetentionErr)
	printVaults(stdout, res.Vaults)
	if policy.Kind == experiment.PolicyRAIDR {
		printRAIDR(stdout, cfg, prof, res.Results)
	}
	return tf.Finish()
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

// captureBenchmark records prof's access stream over the run window as
// a binary trace, via the atomic writer so an interrupted capture never
// leaves a torn file that looks like a trace.
func captureBenchmark(prof workload.Profile, opts experiment.RunOptions, path string) error {
	return atomicio.WriteFile(path, func(w io.Writer) error {
		bw := trace.NewBinaryWriter(w)
		src := trace.NewCapture(prof.NewSource(opts.Stacked), bw)
		end := opts.Warmup + opts.Measure
		for {
			rec, ok := src.Next()
			if !ok || rec.Time >= end {
				break
			}
		}
		if err := src.Err(); err != nil {
			return err
		}
		return bw.Flush()
	})
}

// replayParams configure one streaming trace replay.
type replayParams struct {
	cfg       config.DRAM
	policy    experiment.PolicyEntry
	check     bool
	bufKB     int
	tornOK    bool
	snapEvery sim.Duration
	snapEmit  func(telemetry.Snapshot) error
	tracer    *telemetry.Tracer
	reg       *telemetry.Registry
	capture   *trace.BinaryWriter
}

// replayOutcome is what a streaming replay produced.
type replayOutcome struct {
	Records      uint64
	End          sim.Time
	Format       trace.StreamFormat
	Gzipped      bool
	Torn         bool
	Results      memctrl.Results
	RetentionErr error
}

// replayStream drives a trace stream through a fresh controller with
// bounded memory: the raw bytes are decoded chunk by chunk (gzip and
// format auto-detected), every record is validated against the Source
// contract (nondecreasing, nonnegative time — a malformed trace fails
// at its offending record index instead of corrupting accounting), and
// incremental telemetry snapshots are emitted on the simulated-time
// cadence of p.snapEvery.
func replayStream(r io.Reader, p replayParams) (replayOutcome, error) {
	var out replayOutcome

	stream, err := trace.NewStreamSource(r, trace.StreamOptions{
		BufferBytes:  p.bufKB * 1024,
		TolerateTorn: p.tornOK,
	})
	if err != nil {
		return out, err
	}
	out.Format, out.Gzipped = stream.Format(), stream.Gzipped()

	v := trace.NewValidator(stream)
	var src interface {
		trace.Source
		Err() error
	} = v
	if p.capture != nil {
		src = trace.NewCapture(v, p.capture)
	}

	reg := p.reg
	var snap *telemetry.Snapshotter
	if p.snapEvery > 0 && p.snapEmit != nil {
		if reg == nil {
			reg = telemetry.NewRegistry()
		}
		snap = telemetry.NewSnapshotter(reg, p.snapEvery, p.snapEmit)
	}

	ctl, err := memctrl.New(p.cfg, p.policy.New(p.cfg, nil), memctrl.Options{
		CheckRetention: p.check,
		RetentionSlack: p.policy.Slack(p.cfg, false),
		Trace:          p.tracer,
		Metrics:        reg,
	})
	if err != nil {
		return out, err
	}

	var end sim.Time
	for {
		rec, ok := src.Next()
		if !ok {
			break
		}
		ctl.Submit(memctrl.Request{Time: rec.Time, Addr: rec.Addr, Write: rec.Write})
		end = rec.Time
		out.Records++
		if err := snap.Observe(rec.Time, out.Records); err != nil {
			return out, fmt.Errorf("snapshot: %w", err)
		}
	}
	if err := src.Err(); err != nil {
		return out, err
	}
	out.Torn = stream.Torn()

	end += p.cfg.Timing.RefreshInterval
	ctl.Finish(end)
	out.End = end
	out.Results = ctl.Results(end)
	out.RetentionErr = ctl.RetentionErr()
	if err := snap.Final(end, out.Records); err != nil {
		return out, fmt.Errorf("snapshot: %w", err)
	}
	return out, nil
}

// runTrace replays a trace stream (file or stdin) against the
// controller.
func runTrace(path string, stdin io.Reader, capturePath string, p replayParams, tf *telemetry.Flags, stdout io.Writer) error {
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
			out, rerr = replayStream(r, p)
			if rerr != nil {
				return rerr
			}
			return bw.Flush()
		})
	} else {
		out, err = replayStream(r, p)
	}
	if err != nil {
		return err
	}
	if out.Torn {
		fmt.Fprintf(os.Stderr, "smartrefresh-sim: warning: trace was cut mid-record; replayed the complete prefix (%d records)\n", out.Records)
	}
	printResults(stdout, p.cfg, out.Results, out.End, out.RetentionErr)
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
