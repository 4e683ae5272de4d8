package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"smartrefresh/internal/sim"
	"smartrefresh/internal/telemetry"
	"smartrefresh/internal/trace"
	"smartrefresh/internal/workload"
)

// engineSpans returns the name of every engine job span in tr's trace.
func engineSpans(t *testing.T, tr *telemetry.Tracer) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, ev := range file.TraceEvents {
		if ev.Cat == "engine" && ev.Ph == "X" {
			names = append(names, ev.Name)
		}
	}
	return names
}

// Every figure, every ablation study and the power-state sweep, through
// one engine with telemetry attached: each simulated job has its own
// identity — its trace span's name — and each metrics row belongs to
// exactly one of them. Studies that edit a preset name their variant, so
// nothing collides, and the studies that run the same job share one
// simulation.
func TestEverySimulatedJobHasOneIdentity(t *testing.T) {
	eng := NewEngine(2)
	tr := telemetry.NewTracer()
	tr.SetEventLimit(1024) // only the job spans matter here
	eng.Trace, eng.Metrics = tr, telemetry.NewRegistry()
	opts := RunOptions{Warmup: 2 * sim.Millisecond, Measure: 4 * sim.Millisecond}
	gcc, fasta := mustProfile(t, "gcc"), mustProfile(t, "fasta")

	suite := &Suite{Engine: eng, Opts: opts, Benchmarks: []string{"gcc"}}
	for _, id := range suite.FigureIDs() {
		if _, err := suite.FigureByID(id); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	if _, err := CounterWidthStudy(eng, gcc, []int{2, 3}, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := SegmentsStudy(eng, fasta, []int{4, 8}, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := BusOverheadStudy(eng, gcc, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := RetentionAwareStudy(eng, gcc, opts); err != nil {
		t.Fatal(err)
	}
	raidr, err := RAIDRStudy(eng, gcc, []int{1, 2}, []float64{0, 0.05},
		workload.VRTSpec{FlipFraction: 0.02, Period: 256 * sim.Millisecond}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RefreshParallelismStudy(eng, gcc, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := DisableStudy(eng, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := IdlePowerStudy(eng, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := DisableThresholdStudy(eng, 0.002, [][2]float64{{0.05, 0.1}, {0.001, 0.002}}, opts); err != nil {
		t.Fatal(err)
	}
	sweep := RunPowerStateSweep(eng, nil, opts)
	for _, pt := range sweep.Points {
		if pt.Err != nil {
			t.Fatalf("power-state point %s/%s: %v", pt.Benchmark, pt.Policy, pt.Err)
		}
	}
	for _, pt := range raidr {
		if !pt.RetentionClean {
			t.Fatalf("raidr point %+v failed", pt)
		}
	}
	if err := eng.Err(); err != nil {
		t.Fatalf("a study job failed: %v", err)
	}

	spans := engineSpans(t, tr)
	st := eng.Stats()
	if len(spans) != st.Finished || st.Finished == 0 {
		t.Fatalf("%d job spans for %d simulated jobs", len(spans), st.Finished)
	}
	if st.CacheHits == 0 {
		t.Error("no study shared a job with another")
	}
	ids := map[string]bool{}
	for _, name := range spans {
		if ids[name] {
			t.Errorf("two simulated jobs share the identity %s", name)
		}
		ids[name] = true
	}

	rows := 0
	for _, m := range eng.Metrics.Snapshot() {
		if strings.HasPrefix(m.Name, "engine/") {
			continue
		}
		rows++
		var owners []string
		for id := range ids {
			if strings.HasPrefix(m.Name, id+"/") {
				owners = append(owners, id)
			}
		}
		if len(owners) != 1 {
			t.Errorf("metrics row %s belongs to %d jobs %v, want 1", m.Name, len(owners), owners)
		}
	}
	requests := 0
	for id := range ids {
		found := false
		for _, m := range eng.Metrics.Snapshot() {
			found = found || m.Name == id+"/requests"
		}
		if found {
			requests++
		}
	}
	if requests != len(ids) || rows == 0 {
		t.Errorf("%d of %d jobs have a requests row (%d rows)", requests, len(ids), rows)
	}
}

// The memo's one key is the identity: a second job of the same identity
// but another configuration fails with an error naming the identity,
// whether a raw job or a sweep submits it, and the first job's result
// stands.
func TestIdentityCollisionFails(t *testing.T) {
	opts := RunOptions{Warmup: sim.Millisecond, Measure: 2 * sim.Millisecond}
	first := Job{Cfg: Conv2GB.DRAM(), Prof: mustProfile(t, "gcc"), Policy: PolicySmart, Opts: opts}
	second := first
	second.Cfg.Smart.CounterBits = 2 // an edited preset that kept the preset's name

	eng := NewEngine(1)
	res := eng.RunJobs([]Job{first, second})
	if res[0].Err != nil {
		t.Fatalf("first job: %v", res[0].Err)
	}
	if err := res[1].Err; err == nil || !strings.Contains(err.Error(), first.ID()) {
		t.Fatalf("colliding job: error %v, want one naming %s", err, first.ID())
	}
	if eng.Err() != res[1].Err {
		t.Errorf("Engine.Err = %v, want the colliding job's error", eng.Err())
	}
	sweep := func(eng *Engine) error {
		_, err := (&Suite{Benchmarks: []string{"gcc"}, Opts: opts, Engine: eng}).Sweep(Conv2GB)
		return err
	}
	if err := sweep(eng); err != nil {
		t.Errorf("the sweep holding the first job: %v", err)
	}
	again := NewEngine(1)
	if res := again.RunJobs([]Job{second}); res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	if err := sweep(again); err == nil || !strings.Contains(err.Error(), first.ID()) {
		t.Errorf("sweep colliding with a raw job: error %v, want one naming %s", err, first.ID())
	}

	// Jobs with constructors bypass the memo; their collision surfaces
	// in the metrics registry, naming the row.
	withSource := func(j Job) Job {
		j.MakeSource = func() trace.Source { return j.Prof.NewSource(false) }
		return j
	}
	eng = NewEngine(1)
	eng.Metrics = telemetry.NewRegistry()
	res = eng.RunJobs([]Job{withSource(first), withSource(second)})
	if res[0].Err != nil {
		t.Fatalf("first job: %v", res[0].Err)
	}
	if err := res[1].Err; err == nil || !strings.Contains(err.Error(), first.ID()+"/requests") {
		t.Errorf("colliding job with a source: error %v, want one naming %s/requests", err, first.ID())
	}
}

// A flight the engine's context aborts leaves no metrics behind: the
// same job run again registers its rows afresh.
func TestAbortedFlightReRunsWithMetrics(t *testing.T) {
	opts := RunOptions{Warmup: sim.Millisecond, Measure: 8 * sim.Millisecond}
	prof := mustProfile(t, "radix")
	ctx, cancel := context.WithCancel(context.Background())
	cancelling := Job{Cfg: Conv2GB.DRAM(), Prof: prof, Policy: PolicySmart, Opts: opts,
		MakeSource: func() trace.Source {
			src, n := prof.NewSource(false), 0
			return sourceFunc(func() (trace.Record, bool) {
				if n++; n == 3*cancelCheckStride {
					cancel()
				}
				return src.Next()
			})
		}}
	eng := NewEngine(1)
	eng.Ctx = ctx
	eng.Metrics = telemetry.NewRegistry()
	if res := eng.RunJobs([]Job{cancelling}); !errors.Is(res[0].Err, context.Canceled) {
		t.Fatalf("cancelled job: error %v, want context.Canceled", res[0].Err)
	}
	for _, m := range eng.Metrics.Snapshot() {
		if !strings.HasPrefix(m.Name, "engine/") {
			t.Fatalf("the aborted job left metrics row %s", m.Name)
		}
	}

	eng.Ctx = nil
	plain := cancelling
	plain.MakeSource = nil
	for i, job := range []Job{plain, plain} {
		if res := eng.RunJobs([]Job{job}); res[0].Err != nil {
			t.Fatalf("run %d after the abort: %v", i, res[0].Err)
		}
	}
	found := false
	for _, m := range eng.Metrics.Snapshot() {
		found = found || m.Name == plain.ID()+"/requests"
	}
	if !found {
		t.Errorf("the re-run registered no %s/requests row", plain.ID())
	}
}

// A flight the engine's context aborts leaves nothing in the trace: the
// same job run again holds the only trace scope of its identity.
func TestAbortedFlightReRunsWithOneTraceScope(t *testing.T) {
	opts := RunOptions{Warmup: sim.Millisecond, Measure: 8 * sim.Millisecond}
	prof := mustProfile(t, "radix")
	ctx, cancel := context.WithCancel(context.Background())
	job := Job{Cfg: Conv2GB.DRAM(), Prof: prof, Policy: PolicySmart, Opts: opts}
	cancelling := job
	cancelling.MakeSource = func() trace.Source {
		src, n := prof.NewSource(false), 0
		return sourceFunc(func() (trace.Record, bool) {
			if n++; n == 3*cancelCheckStride {
				cancel()
			}
			return src.Next()
		})
	}
	eng := NewEngine(1)
	eng.Ctx = ctx
	eng.Trace = telemetry.NewTracer()
	if res := eng.RunJobs([]Job{cancelling}); !errors.Is(res[0].Err, context.Canceled) {
		t.Fatalf("cancelled job: error %v, want context.Canceled", res[0].Err)
	}
	eng.Ctx = nil
	if res := eng.RunJobs([]Job{job}); res[0].Err != nil {
		t.Fatalf("re-run: %v", res[0].Err)
	}
	var buf bytes.Buffer
	if err := eng.Trace.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Args struct {
				Name string `json:"name"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, ev := range file.TraceEvents {
		if ev.Name == "process_name" && ev.Args.Name == job.ID() {
			n++
		}
	}
	if job.ID() != "table1-2gb/radix/smart@w1ms@m8ms" || n != 1 {
		t.Errorf("the trace holds %d process_name rows for %s, want 1", n, job.ID())
	}
}
