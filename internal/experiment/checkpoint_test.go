package experiment

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"smartrefresh/internal/sim"
	"smartrefresh/internal/workload"
)

func mustProfile(t *testing.T, name string) workload.Profile {
	t.Helper()
	prof, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return prof
}

// A checkpoint written by one engine and loaded by another restores
// every result exactly — including the string-encoded retention error —
// so the restored sweep is indistinguishable from the original.
func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")

	eng := NewEngine(2)
	eng.Checkpoint = NewCheckpoint(path)
	specs := []RunSpec{
		{Config: Conv2GB, Benchmark: "fasta", Policy: PolicyCBR, Opts: engineOpts()},
		{Config: Conv2GB, Benchmark: "fasta", Policy: PolicySmart, Opts: engineOpts()},
		{Config: Stacked3D64, Benchmark: "gcc", Policy: PolicySmart, Opts: engineOpts()},
	}
	want, err := eng.RunAll(specs)
	if err != nil {
		t.Fatal(err)
	}

	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Len() != len(specs) {
		t.Fatalf("loaded %d results, want %d", cp.Len(), len(specs))
	}
	for i, spec := range specs {
		job, err := spec.job()
		if err != nil {
			t.Fatal(err)
		}
		got, ok := cp.lookup(job.ID())
		if !ok {
			t.Fatalf("checkpoint missing %s", job.ID())
		}
		// RetentionErr round-trips as a string; compare it separately.
		w := want[i]
		if (got.RetentionErr == nil) != (w.RetentionErr == nil) ||
			(got.RetentionErr != nil && got.RetentionErr.Error() != w.RetentionErr.Error()) {
			t.Errorf("spec %d retention error mismatch: %v vs %v", i, got.RetentionErr, w.RetentionErr)
		}
		got.RetentionErr, w.RetentionErr = nil, nil
		if !reflect.DeepEqual(got, w) {
			t.Errorf("spec %d restored result differs\n got: %+v\nwant: %+v", i, got, w)
		}
	}

	// Serving restored entries: all cache hits, no simulations.
	resumed := NewEngine(2)
	resumed.Checkpoint = cp
	again, err := resumed.RunAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, want) {
		t.Error("restored results differ from the original run")
	}
	if st := resumed.Stats(); st.Started != 0 || st.CacheHits != len(specs) {
		t.Errorf("resumed engine started=%d hits=%d, want 0 and %d", st.Started, st.CacheHits, len(specs))
	}
}

// A checkpoint with garbage after a valid prefix (a torn tail from a
// hard kill of an older, non-atomic writer) still loads the complete
// prefix instead of failing the resume outright.
func TestCheckpointTornTailTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	eng := NewEngine(1)
	eng.Checkpoint = NewCheckpoint(path)
	if _, err := eng.Run(RunSpec{Config: Conv2GB, Benchmark: "fasta", Policy: PolicyCBR, Opts: engineOpts()}); err != nil {
		t.Fatal(err)
	}

	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"half-written`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("torn tail failed the load: %v", err)
	}
	if cp.Len() != 1 {
		t.Errorf("loaded %d results, want the 1 complete record", cp.Len())
	}
}

func TestLoadCheckpointRejectsForeignFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	if _, err := LoadCheckpoint(filepath.Join(dir, "missing.ckpt")); err == nil {
		t.Error("missing file loaded without error")
	}
	if _, err := LoadCheckpoint(write("empty.ckpt", "")); err == nil {
		t.Error("empty file accepted as a checkpoint")
	}
	if _, err := LoadCheckpoint(write("json.ckpt", `{"some":"object"}`+"\n")); err == nil {
		t.Error("arbitrary JSON accepted as a checkpoint")
	}
	future := `{"format":"smartrefresh-sweep-checkpoint","version":999}` + "\n"
	if _, err := LoadCheckpoint(write("future.ckpt", future)); err == nil ||
		!strings.Contains(err.Error(), "version") {
		t.Errorf("future version accepted or wrongly reported: %v", err)
	}
}

// A checkpoint that cannot be written must fail the run loudly — a
// sweep that silently stops being resumable is worse than one that
// stops.
func TestCheckpointWriteFailureSurfaces(t *testing.T) {
	eng := NewEngine(1)
	eng.Checkpoint = NewCheckpoint(filepath.Join(t.TempDir(), "missing", "sweep.ckpt"))
	_, err := eng.Run(RunSpec{Config: Conv2GB, Benchmark: "fasta", Policy: PolicyCBR, Opts: engineOpts()})
	if err == nil {
		t.Fatal("unwritable checkpoint reported no error")
	}
}

// Cancelling the engine's context aborts in-flight simulations, returns
// the context's error, and — critically — does not poison the memo: the
// same spec re-run on an engine with a live context simulates afresh.
func TestEngineCtxCancelledMidFlight(t *testing.T) {
	eng := NewEngine(1)
	ctx, cancel := context.WithCancel(context.Background())
	eng.Ctx = ctx
	spec := RunSpec{Config: Conv2GB, Benchmark: "fasta", Policy: PolicyCBR, Opts: engineOpts()}

	eng.OnJobStart = func(JobEvent) { cancel() } // cancel once the flight has begun
	if _, err := eng.Run(spec); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	if st := eng.Stats(); st.Finished != 0 {
		t.Errorf("cancelled flight counted as finished (%d)", st.Finished)
	}

	eng.OnJobStart = nil
	eng.Ctx = nil
	res, err := eng.Run(spec)
	if err != nil {
		t.Fatalf("re-run after cancellation: %v", err)
	}
	direct := Run(Conv2GB.DRAM(), mustProfile(t, "fasta"), PolicyCBR, engineOpts())
	if !reflect.DeepEqual(res, direct) {
		t.Error("post-cancellation result differs from a direct run")
	}
	// Nothing cancelled lands in a checkpoint either.
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	eng2 := NewEngine(1)
	eng2.Checkpoint = NewCheckpoint(path)
	ctx2, cancel2 := context.WithCancel(context.Background())
	eng2.Ctx = ctx2
	eng2.OnJobStart = func(JobEvent) { cancel2() }
	if _, err := eng2.Run(spec); err == nil {
		t.Fatal("cancelled run reported no error")
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("cancelled run wrote a checkpoint: stat err %v", err)
	}
}

// A pre-cancelled engine context skips RunJobs work entirely: every
// result carries the context error, and neither the stats nor the hooks
// see phantom jobs.
func TestRunJobsPreCancelled(t *testing.T) {
	eng := NewEngine(4)
	eng.OnJobStart = func(JobEvent) { t.Error("hook fired for a cancelled job") }
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng.Ctx = ctx

	jobs := []Job{
		{Cfg: Conv2GB.DRAM(), Prof: mustProfile(t, "fasta"), Policy: PolicyCBR, Opts: engineOpts()},
		{Cfg: Conv2GB.DRAM(), Prof: mustProfile(t, "gcc"), Policy: PolicySmart, Opts: engineOpts()},
	}
	res := eng.RunJobs(jobs)
	for i, r := range res {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("job %d: Err = %v, want context.Canceled", i, r.Err)
		}
		if r.Benchmark != jobs[i].Prof.Name {
			t.Errorf("job %d: cancelled result lost its identity (%q)", i, r.Benchmark)
		}
	}
	if st := eng.Stats(); st.Started != 0 || st.Finished != 0 {
		t.Errorf("cancelled batch counted work: %+v", st)
	}
}

// A result restored from a checkpoint equals the simulated one in every
// leaf of RunResult, per-vault results included, for a monolithic and a
// vaulted spec.
func TestCheckpointRestoresEveryLeaf(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	opts := RunOptions{Warmup: 2 * sim.Millisecond, Measure: 4 * sim.Millisecond}
	specs := []RunSpec{
		{Config: Conv2GB, Benchmark: "gcc", Policy: PolicySmart, Opts: opts},
		{Config: HMC8V, Benchmark: "gcc", Policy: PolicySmart, Opts: opts},
	}
	eng := NewEngine(1)
	eng.Checkpoint = NewCheckpoint(path)
	fresh, err := eng.RunAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(fresh[1].Vaults); n != HMC8V.DRAM().Geometry.VaultCount() {
		t.Fatalf("the vaulted spec has %d vault results", n)
	}
	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	resumed := NewEngine(1)
	resumed.Checkpoint = cp
	restored, err := resumed.RunAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	if st := resumed.Stats(); st.Started != 0 {
		t.Fatalf("the resumed engine simulated %d jobs", st.Started)
	}
	for i, spec := range specs {
		if err := sameState("result", reflect.ValueOf(restored[i]), reflect.ValueOf(fresh[i])); err != nil {
			t.Errorf("%v: the restored result differs from the simulated one at %v", spec.Config, err)
		}
	}
}
