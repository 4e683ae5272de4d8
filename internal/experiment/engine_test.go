package experiment

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"smartrefresh/internal/cache"
	"smartrefresh/internal/core"
	"smartrefresh/internal/sim"
	"smartrefresh/internal/telemetry"
	"smartrefresh/internal/trace"
	"smartrefresh/internal/workload"
)

// engineSubset crosses the four benchmark suites while keeping engine
// tests fast.
var engineSubset = []string{"fasta", "gcc", "radix", "perl_twolf"}

func engineOpts() RunOptions {
	return RunOptions{Warmup: 16 * sim.Millisecond, Measure: 32 * sim.Millisecond}
}

func sweepWith(t *testing.T, workers int) []PairMetrics {
	t.Helper()
	s := NewSuite()
	s.Benchmarks = engineSubset
	s.Opts = engineOpts()
	s.Engine = NewEngine(workers)
	pairs, err := s.Sweep(Conv2GB)
	if err != nil {
		t.Fatal(err)
	}
	return pairs
}

// The tentpole's core promise: sweep output is identical for any worker
// count, and identical to running the pairs serially without an engine.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	// The sweep reports benchmarks in the paper's figure order; build the
	// serial expectation in the same order.
	profs, err := (&Suite{Benchmarks: engineSubset}).profiles()
	if err != nil {
		t.Fatal(err)
	}
	if len(profs) != len(engineSubset) {
		t.Fatalf("resolved %d of %d profiles", len(profs), len(engineSubset))
	}
	serial := make([]PairMetrics, 0, len(profs))
	cfg := Conv2GB.DRAM()
	for _, prof := range profs {
		serial = append(serial, RunPair(cfg, prof, engineOpts()))
	}

	for _, workers := range []int{1, 2, 8} {
		got := sweepWith(t, workers)
		if !reflect.DeepEqual(got, serial) {
			t.Errorf("workers=%d: sweep differs from serial RunPair output\n got: %+v\nwant: %+v",
				workers, got, serial)
		}
	}
}

// One engine used from many goroutines: every caller sees the same
// results, and each unique spec simulates exactly once.
func TestEngineConcurrentUse(t *testing.T) {
	eng := NewEngine(4)
	specs := []RunSpec{
		{Config: Conv2GB, Benchmark: "fasta", Policy: PolicyCBR, Opts: engineOpts()},
		{Config: Conv2GB, Benchmark: "fasta", Policy: PolicySmart, Opts: engineOpts()},
		{Config: Conv2GB, Benchmark: "gcc", Policy: PolicyCBR, Opts: engineOpts()},
		{Config: Conv2GB, Benchmark: "gcc", Policy: PolicySmart, Opts: engineOpts()},
	}

	const callers = 8
	results := make([][]RunResult, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := eng.RunAll(specs)
			if err != nil {
				t.Error(err)
				return
			}
			results[c] = res
		}()
	}
	wg.Wait()

	for c := 1; c < callers; c++ {
		if !reflect.DeepEqual(results[c], results[0]) {
			t.Errorf("caller %d saw different results", c)
		}
	}
	st := eng.Stats()
	if st.Started != len(specs) || st.Finished != len(specs) {
		t.Errorf("started=%d finished=%d, want %d simulations", st.Started, st.Finished, len(specs))
	}
	if want := (callers - 1) * len(specs); st.CacheHits != want {
		t.Errorf("cache hits = %d, want %d", st.CacheHits, want)
	}
	if st.SimWall <= 0 {
		t.Errorf("sim wall time = %v, want > 0", st.SimWall)
	}
}

// Specs describing the same work memoise to the same entry: zero options
// resolve to the configuration's defaults, the stacked flag is forced by
// the configuration kind, and Shards moves nothing.
func TestRunSpecKeyCanonical(t *testing.T) {
	resolve := func(s RunSpec) Job {
		t.Helper()
		job, err := s.job()
		if err != nil {
			t.Fatal(err)
		}
		return job
	}
	same := func(what string, a, b RunSpec) {
		t.Helper()
		ja, jb := resolve(a), resolve(b)
		if ja.ID() != jb.ID() || !reflect.DeepEqual(ja.work(), jb.work()) {
			t.Errorf("%s: %s and %s are not one memo entry", what, ja.ID(), jb.ID())
		}
	}
	cfg := Conv2GB.DRAM()
	zero := RunSpec{Config: Conv2GB, Benchmark: "gcc", Policy: PolicySmart}
	explicit := zero
	explicit.Opts = RunOptions{Warmup: cfg.RefreshInterval(), Measure: 4 * cfg.RefreshInterval()}
	same("default options", zero, explicit)
	sharded := zero
	sharded.Opts.Shards = 8
	same("shards", zero, sharded)

	plain := RunSpec{Config: Stacked3D64, Benchmark: "gcc", Policy: PolicyCBR, Opts: engineOpts()}
	stacked := plain
	stacked.Opts.Stacked = true
	same("stacked flag", plain, stacked)
	other, stackedJob := resolve(RunSpec{Config: Conv2GB, Benchmark: "gcc", Policy: PolicyCBR, Opts: engineOpts()}), resolve(plain)
	if other.ID() == stackedJob.ID() {
		t.Errorf("distinct configs share identity %s", other.ID())
	}
}

// The identity is the label plus one token per option that differs from
// its default, each duration rendered exactly in its largest whole unit.
func TestJobIdentity(t *testing.T) {
	const us, ms = sim.Microsecond, sim.Millisecond
	full := PowerStatePolicies()[len(PowerStatePolicies())-1]
	for _, tc := range []struct {
		opts RunOptions
		want string
	}{
		{RunOptions{}, "table1-2gb/idle-os/cbr"},
		{RunOptions{Warmup: 64 * ms, Measure: 256 * ms, Shards: 4, Stacked: false}, "table1-2gb/idle-os/cbr"},
		{RunOptions{SelfRefreshAfter: 100 * us}, "table1-2gb/idle-os/cbr@sr100us"},
		{RunOptions{Warmup: 16 * ms, Measure: 1500 * sim.Nanosecond, CheckRetention: true},
			"table1-2gb/idle-os/cbr@w16ms@m1500ns@ret"},
		{RunOptions{Measure: 2*ms + 1}, "table1-2gb/idle-os/cbr@m2000000001ps"},
		{RunOptions{SelfRefreshAfter: full.SelfRefreshAfter, PowerStates: full.Cfg},
			"table1-2gb/idle-os/cbr@sr200us@actpdn1us@prepdn-fast5us@prepdn-slow50us@sr-slow1ms"},
	} {
		job := Job{Cfg: Conv2GB.DRAM(), Prof: workload.Idle(), Policy: PolicyCBR, Opts: tc.opts}
		if got := job.ID(); got != tc.want {
			t.Errorf("ID(%+v) = %s, want %s", tc.opts, got, tc.want)
		}
	}
}

func TestEngineRunUnknownBenchmark(t *testing.T) {
	eng := NewEngine(1)
	if _, err := eng.Run(RunSpec{Config: Conv2GB, Benchmark: "no-such-benchmark", Policy: PolicyCBR}); err == nil {
		t.Fatal("unknown benchmark did not error")
	}
	if _, err := eng.RunAll([]RunSpec{{Config: Conv2GB, Benchmark: "no-such-benchmark", Policy: PolicyCBR}}); err == nil {
		t.Fatal("RunAll with unknown benchmark did not error")
	}
}

// Figures sharing a configuration reuse one sweep's runs: the second and
// third figures of a group cost only memo hits, no new simulations.
func TestSuiteFiguresShareSweepRuns(t *testing.T) {
	s := NewSuite()
	s.Benchmarks = []string{"gcc"}
	s.Opts = engineOpts()
	s.Engine = NewEngine(2)

	if _, err := s.FigureByID("fig6"); err != nil {
		t.Fatal(err)
	}
	st := s.Engine.Stats()
	if st.Finished != 2 || st.CacheHits != 0 {
		t.Fatalf("after fig6: finished=%d hits=%d, want 2 simulations and no hits", st.Finished, st.CacheHits)
	}

	for _, id := range []string{"fig7", "fig8"} {
		if _, err := s.FigureByID(id); err != nil {
			t.Fatal(err)
		}
	}
	st = s.Engine.Stats()
	if st.Finished != 2 {
		t.Errorf("fig7/fig8 re-simulated: finished=%d, want still 2", st.Finished)
	}
	if st.CacheHits != 4 {
		t.Errorf("cache hits = %d, want 4 (2 runs x 2 reused figures)", st.CacheHits)
	}
}

// RunJobs preserves job order for any worker count and matches the
// memoised path's results for identical work.
func TestEngineRunJobsOrderAndEquivalence(t *testing.T) {
	cfg := Conv2GB.DRAM()
	opts := engineOpts()
	jobs := make([]Job, 0, 2*len(engineSubset))
	for _, name := range engineSubset {
		prof, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs,
			Job{Cfg: cfg, Prof: prof, Policy: PolicyCBR, Opts: opts},
			Job{Cfg: cfg, Prof: prof, Policy: PolicySmart, Opts: opts})
	}

	parallelRes := NewEngine(8).RunJobs(jobs)
	serialRes := NewEngine(1).RunJobs(jobs)
	if !reflect.DeepEqual(parallelRes, serialRes) {
		t.Error("RunJobs results depend on worker count")
	}
	for i, job := range jobs {
		if parallelRes[i].Benchmark != job.Prof.Name || parallelRes[i].Policy != job.Policy {
			t.Errorf("result %d out of order: got %s/%s, want %s/%s", i,
				parallelRes[i].Benchmark, parallelRes[i].Policy, job.Prof.Name, job.Policy)
		}
		direct := Run(cfg, job.Prof, job.Policy, opts)
		if !reflect.DeepEqual(parallelRes[i], direct) {
			t.Errorf("result %d differs from direct Run", i)
		}
	}
}

// Machines outlive their Engine, so the test drives the engine the way
// the benchmark does: two fresh Engines in sequence, one and two
// workers, over interleaved configurations (the 2 GB module, the 32 ms
// 3D cache, the 8-vault stack on the full power-state ladder), CBR and
// Smart jobs, a retention-map policy and a MakePolicy job; between the
// engines a job is cancelled mid-stream, and in the list a stacked job
// fails on an address beyond the tag store, both leaving their machine
// mid-run. Every job's result must equal the same job's run against an
// emptied machine store.
func TestEngineReusedBuffersKeepResults(t *testing.T) {
	opts := RunOptions{Warmup: 2 * sim.Millisecond, Measure: 6 * sim.Millisecond}
	stacked := opts
	stacked.Stacked = true
	ladder := PowerStatePolicies()
	full := ladder[len(ladder)-1]
	hmc := opts
	hmc.SelfRefreshAfter, hmc.PowerStates, hmc.Shards = full.SelfRefreshAfter, full.Cfg, 2
	gcc, radix := mustProfile(t, "gcc"), mustProfile(t, "radix")
	conv, s32, hmc8 := Conv2GB.DRAM(), Stacked3D32.DRAM(), HMC8V.DRAM()
	// A stacked stream that runs into an address the tag store cannot
	// hold once it is well under way.
	beyond := func() trace.Source {
		src := gcc.NewSource(true)
		n := 0
		return sourceFunc(func() (trace.Record, bool) {
			rec, ok := src.Next()
			if n++; n == 3000 {
				rec.Addr = 1 << 60
			}
			return rec, ok
		})
	}
	rawCBR := func() core.Policy { return core.NewCBR(conv.Geometry, conv.RefreshInterval()) }
	jobs := []Job{
		{Cfg: conv, Prof: gcc, Policy: PolicyCBR, Opts: opts},
		{Cfg: s32, Prof: gcc, Policy: PolicySmart, Opts: stacked},
		{Cfg: hmc8, Prof: gcc, Policy: PolicySmart, Opts: hmc},
		{Cfg: conv, Prof: radix, Policy: PolicySmart, Opts: opts},
		{Cfg: s32, Prof: radix, Policy: PolicyCBR, Opts: stacked, MakeSource: beyond},
		{Cfg: conv, Prof: gcc, Policy: PolicySmartRetention, Opts: opts},
		{Cfg: s32, Prof: radix, Policy: PolicySmart, Opts: stacked},
		{Cfg: hmc8, Prof: workload.Idle(), Policy: PolicyCBR, Opts: hmc},
		{Cfg: conv, Prof: radix, Policy: PolicySmart, Opts: opts, MakePolicy: rawCBR},
		{Cfg: conv, Prof: gcc, Policy: PolicySmart, Opts: opts},
		{Cfg: s32, Prof: gcc, Policy: PolicyCBR, Opts: stacked},
		{Cfg: hmc8, Prof: gcc, Policy: PolicyCBR, Opts: hmc},
		{Cfg: conv, Prof: radix, Policy: PolicyCBR, Opts: opts},
	}
	const failing = 4
	outcome := func(res RunResult) string {
		if res.Err != nil {
			return "error: " + res.Err.Error()
		}
		return fingerprintResult(res)
	}
	want := make([]string, len(jobs))
	for i, job := range jobs {
		machines.empty()
		res := NewEngine(1).RunJobs([]Job{job})[0]
		switch {
		case i == failing && !errors.Is(res.Err, cache.ErrAddrRange):
			t.Fatalf("job %d: error %v, want ErrAddrRange", i, res.Err)
		case i != failing && res.Err != nil:
			t.Fatalf("job %d: %v", i, res.Err)
		case i != failing && res.Results.Requests == 0 && job.Prof.Name != "idle-os":
			t.Fatalf("job %d (%s/%s) served no requests", i, res.Config, res.Benchmark)
		}
		want[i] = outcome(res)
	}

	machines.empty()
	check := func(name string, got []RunResult) {
		t.Helper()
		for i, res := range got {
			if o := outcome(res); o != want[i] {
				t.Errorf("%s: job %d (%s/%s/%s) gives %s, on an empty store %s",
					name, i, res.Config, res.Benchmark, res.Policy, o, want[i])
			}
		}
	}
	check("first engine, one worker", NewEngine(1).RunJobs(jobs))
	if n := idleMachines(); n == 0 {
		t.Fatal("the first engine left no idle machine to reuse")
	}

	// A job cancelled mid-stream on a reused machine.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelled := jobs[3]
	cancelled.MakeSource = func() trace.Source {
		src := radix.NewSource(false)
		n := 0
		return sourceFunc(func() (trace.Record, bool) {
			if n++; n == 3*cancelCheckStride {
				cancel()
			}
			return src.Next()
		})
	}
	eng := NewEngine(1)
	eng.Ctx = ctx
	if res := eng.RunJobs([]Job{cancelled})[0]; !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("cancelled job: error %v, want context.Canceled", res.Err)
	}

	check("second engine, two workers", NewEngine(2).RunJobs(jobs))
}

// sourceFunc adapts a function to trace.Source.
type sourceFunc func() (trace.Record, bool)

func (f sourceFunc) Next() (trace.Record, bool) { return f() }

// empty drops every idle machine.
func (s *machineStore) empty() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.idle = nil
}

// idleMachines counts the store's idle machines.
func idleMachines() int {
	machines.mu.Lock()
	defer machines.mu.Unlock()
	return len(machines.idle)
}

// A RunSpec and the Job it describes run through the same runner: the
// same result, the same hook events (labelled by the configuration's
// name) and one started and finished job each.
func TestEngineSpecAndJobShareRunner(t *testing.T) {
	spec := RunSpec{Config: Conv2GB, Benchmark: "gcc", Policy: PolicySmart, Opts: engineOpts()}
	job := Job{Cfg: Conv2GB.DRAM(), Prof: mustProfile(t, "gcc"), Policy: PolicySmart, Opts: engineOpts()}

	record := func(eng *Engine) *[]JobEvent {
		var evs []JobEvent
		hook := func(ev JobEvent) {
			ev.Wall = 0 // host timing, not part of the event's identity
			evs = append(evs, ev)
		}
		eng.OnJobStart, eng.OnJobDone = hook, hook
		return &evs
	}
	specEng, jobEng := NewEngine(1), NewEngine(1)
	specEvs, jobEvs := record(specEng), record(jobEng)

	specRes, err := specEng.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	jobRes := jobEng.RunJobs([]Job{job})[0]
	if !reflect.DeepEqual(specRes, jobRes) {
		t.Errorf("spec and job results differ:\n spec: %+v\n  job: %+v", specRes, jobRes)
	}
	if !reflect.DeepEqual(*specEvs, *jobEvs) {
		t.Errorf("spec and job events differ:\n spec: %+v\n  job: %+v", *specEvs, *jobEvs)
	}
	if want := "table1-2gb"; len(*specEvs) == 0 || (*specEvs)[0].Config != want {
		t.Errorf("spec events = %+v, want Config %q", *specEvs, want)
	}
	for name, eng := range map[string]*Engine{"spec": specEng, "job": jobEng} {
		if st := eng.Stats(); st.Started != 1 || st.Finished != 1 || st.CacheHits != 0 {
			t.Errorf("%s engine stats = %+v, want one started and finished job", name, st)
		}
	}
}

// panicJob is a memoised job whose flight panics: workload.NewGenerator
// panics on a stream spec that fails validation, here a write fraction
// above one, and the job's source is built inside the flight.
func panicJob(t *testing.T) Job {
	prof := mustProfile(t, "gcc")
	prof.Name, prof.WriteFraction = "gcc-badmix", 2
	return Job{Cfg: Conv2GB.DRAM(), Prof: prof, Policy: PolicySmart, Opts: engineOpts()}
}

// Regression for the singleflight deadlock: a panic inside the memoised
// simulation used to leave the entry's done channel unclosed, hanging
// every other claimant of that job forever. All claimants must now
// receive the panic as an error.
func TestEngineRunPanicDoesNotDeadlock(t *testing.T) {
	eng := NewEngine(4)
	job := panicJob(t)

	const claimants = 4
	errs := make(chan error, claimants)
	for c := 0; c < claimants; c++ {
		go func() {
			errs <- eng.RunJobs([]Job{job})[0].Err
		}()
	}
	for c := 0; c < claimants; c++ {
		select {
		case err := <-errs:
			if err == nil || !strings.Contains(err.Error(), "panicked") {
				t.Errorf("claimant of a panicking job got error %v, want the panic", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("claimant %d of %d hung on the panicked flight", c+1, claimants)
		}
	}

	// The memoised failure is served to later callers too.
	if err := eng.RunJobs([]Job{job})[0].Err; err == nil {
		t.Error("memoised panicked job returned nil error")
	}
	// The engine stays usable after a failed flight.
	if _, err := eng.Run(RunSpec{Config: Conv2GB, Benchmark: "gcc", Policy: PolicyCBR, Opts: engineOpts()}); err != nil {
		t.Errorf("healthy spec after a panicked flight: %v", err)
	}
}

// A panicking job must not take down RunJobs' worker pool: it reports
// through RunResult.Err while the remaining jobs complete normally.
func TestEngineRunJobsPanicIsolated(t *testing.T) {
	cfg := Conv2GB.DRAM()
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	opts := engineOpts()
	jobs := []Job{
		{Cfg: cfg, Prof: prof, Policy: PolicySmart, Opts: opts,
			MakePolicy: func() core.Policy { panic("constructor failure") }},
		{Cfg: cfg, Prof: prof, Policy: PolicyCBR, Opts: opts},
	}

	res := NewEngine(2).RunJobs(jobs)
	if res[0].Err == nil {
		t.Error("panicking job reported nil RunResult.Err")
	}
	if res[1].Err != nil {
		t.Errorf("healthy job reported Err: %v", res[1].Err)
	}
	if direct := Run(cfg, prof, PolicyCBR, opts); !reflect.DeepEqual(res[1], direct) {
		t.Error("healthy job's result differs from direct Run after a sibling panicked")
	}
}

// The instrumentation hooks see every job exactly once, with cache hits
// marked, and need no locking of their own.
func TestEngineHooks(t *testing.T) {
	eng := NewEngine(4)
	var started, done, cached int
	eng.OnJobStart = func(ev JobEvent) { started++ }
	eng.OnJobDone = func(ev JobEvent) {
		done++
		if ev.Cached {
			cached++
			if ev.Wall != 0 {
				t.Errorf("cached job reported wall time %v", ev.Wall)
			}
		} else if ev.Wall <= 0 {
			t.Errorf("simulated job reported no wall time")
		}
	}

	specs := []RunSpec{
		{Config: Conv2GB, Benchmark: "gcc", Policy: PolicyCBR, Opts: engineOpts()},
		{Config: Conv2GB, Benchmark: "gcc", Policy: PolicySmart, Opts: engineOpts()},
		{Config: Conv2GB, Benchmark: "gcc", Policy: PolicyCBR, Opts: engineOpts()},
	}
	if _, err := eng.RunAll(specs); err != nil {
		t.Fatal(err)
	}
	if started != 2 {
		t.Errorf("start events = %d, want 2 (third spec is a duplicate)", started)
	}
	if done != 3 || cached != 1 {
		t.Errorf("done events = %d (cached %d), want 3 with 1 cached", done, cached)
	}
}

// TestEngineTelemetry runs a spec and a raw job through an instrumented
// engine and checks that the tracer sees job spans plus DRAM command
// events, that the registry holds both controller and engine rows, and
// that telemetry does not perturb the simulated results.
func TestEngineTelemetry(t *testing.T) {
	tr := telemetry.NewTracer()
	reg := telemetry.NewRegistry()
	eng := NewEngine(2)
	eng.Trace = tr
	eng.Metrics = reg

	spec := RunSpec{Config: Conv2GB, Benchmark: "gcc", Policy: PolicySmart, Opts: engineOpts()}
	traced, err := eng.Run(spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	prof, _ := workload.ByName("fasta")
	jobRes := eng.RunJobs([]Job{{Cfg: Conv2GB.DRAM(), Prof: prof, Policy: PolicyCBR, Opts: engineOpts()}})
	if jobRes[0].Err != nil {
		t.Fatalf("RunJobs: %v", jobRes[0].Err)
	}

	plain, err := NewEngine(1).Run(spec)
	if err != nil {
		t.Fatalf("plain Run: %v", err)
	}
	if !reflect.DeepEqual(traced, plain) {
		t.Errorf("telemetry changed results:\n traced: %+v\n  plain: %+v", traced, plain)
	}

	if tr.CommandCount(telemetry.CmdActivate) == 0 ||
		tr.CommandCount(telemetry.CmdRead) == 0 ||
		tr.CommandCount(telemetry.CmdRefreshRASOnly) == 0 {
		t.Error("trace missing demand/refresh command events")
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"table1-2gb/gcc/smart@w16ms@m32ms", "table1-2gb/fasta/cbr@w16ms@m32ms"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing job span %q", want)
		}
	}

	names := map[string]bool{}
	for _, m := range reg.Snapshot() {
		names[m.Name] = true
	}
	for _, want := range []string{
		"engine/jobs_started", "engine/cache_hits",
		"table1-2gb/gcc/smart@w16ms@m32ms/requests", "table1-2gb/gcc/smart@w16ms@m32ms/latency_ns",
		"table1-2gb/fasta/cbr@w16ms@m32ms/refresh_ops",
	} {
		if !names[want] {
			t.Errorf("registry missing %q (have %d rows)", want, len(names))
		}
	}

	// A memoised re-run must not duplicate registry rows.
	before := len(reg.Snapshot())
	if _, err := eng.Run(spec); err != nil {
		t.Fatalf("re-run: %v", err)
	}
	if after := len(reg.Snapshot()); after != before {
		t.Errorf("memoised re-run grew registry from %d to %d rows", before, after)
	}
}
