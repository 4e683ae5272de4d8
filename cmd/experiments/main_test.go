package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smartrefresh/internal/experiment"
)

func TestRunOneFigureSubset(t *testing.T) {
	err := run(context.Background(), []string{
		"-figures", "fig6", "-benchmarks", "fasta",
		"-warmup-ms", "16", "-measure-ms", "16", "-quiet",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunCSVFormat(t *testing.T) {
	err := run(context.Background(), []string{
		"-figures", "fig8", "-benchmarks", "gcc",
		"-warmup-ms", "16", "-measure-ms", "16", "-quiet", "-format", "csv",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(context.Background(), []string{"-figures", "fig99", "-benchmarks", "fasta", "-quiet"}); err == nil {
		t.Error("unknown figure accepted")
	}
	if err := run(context.Background(), []string{"-format", "xml"}); err == nil {
		t.Error("unknown format accepted")
	}
}

// TestRunTraceAndMetricsOutputs drives a figure regeneration plus the
// ablation studies with the telemetry flags and checks the trace holds
// every command event type (the idle-power study arms self-refresh, so
// residency spans appear), plus engine job spans, and that the metrics
// dump is valid JSON.
func TestRunTraceAndMetricsOutputs(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	metricsPath := filepath.Join(dir, "metrics.json")
	err := run(context.Background(), []string{
		"-figures", "fig6", "-benchmarks", "fasta,gcc", "-ablations",
		"-warmup-ms", "16", "-measure-ms", "16", "-quiet",
		"-trace", tracePath, "-metrics", metricsPath,
	})
	if err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
		DisplayUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if tf.DisplayUnit != "ns" {
		t.Errorf("displayTimeUnit = %q", tf.DisplayUnit)
	}
	names := map[string]int{}
	engineSpans := 0
	for _, ev := range tf.TraceEvents {
		names[ev.Name]++
		if ev.Cat == "engine" && ev.Ph == "X" {
			engineSpans++
		}
	}
	for _, want := range []string{
		"ACT", "PRE", "READ", "WRITE",
		"REF-RAS", "REF-CBR", "SELF-REF", "IDLE-CLOSE",
	} {
		if names[want] == 0 {
			t.Errorf("trace missing %s events (have %v)", want, names)
		}
	}
	if engineSpans == 0 {
		t.Error("trace has no engine job spans")
	}

	mdata, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var rows []map[string]any
	if err := json.Unmarshal(mdata, &rows); err != nil {
		t.Fatalf("metrics dump is not valid JSON: %v", err)
	}
	if len(rows) == 0 {
		t.Error("metrics dump is empty")
	}
}

// captureStdout runs fn with os.Stdout redirected into a pipe and
// returns everything it printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = old }()
	done := make(chan string)
	go func() {
		buf, _ := io.ReadAll(r)
		done <- string(buf)
	}()
	ferr := fn()
	w.Close()
	out := <-done
	os.Stdout = old
	if ferr != nil {
		t.Fatal(ferr)
	}
	return out
}

// A sweep run with -checkpoint followed by a -resume run must emit
// byte-identical figure tables: the restored results are served as
// cache hits and round-trip through JSON without losing a bit.
func TestRunCheckpointResumeIdenticalOutput(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")
	args := []string{
		"-figures", "fig6,fig7", "-benchmarks", "fasta",
		"-warmup-ms", "16", "-measure-ms", "16", "-quiet",
	}
	first := captureStdout(t, func() error {
		return run(context.Background(), append([]string{"-checkpoint", ckpt}, args...))
	})

	cp, err := experiment.LoadCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Len() != 2 {
		t.Fatalf("checkpoint holds %d results, want 2 (fasta x {cbr, smart})", cp.Len())
	}

	second := captureStdout(t, func() error {
		return run(context.Background(), append([]string{"-resume", ckpt}, args...))
	})
	if first != second {
		t.Errorf("resumed run differs from checkpointing run\nfirst:\n%s\nsecond:\n%s", first, second)
	}
}

// A cancelled run must report the interruption rather than emit partial
// tables, and the error must carry the resume hint.
func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")
	err := run(ctx, []string{
		"-figures", "fig6", "-benchmarks", "fasta",
		"-warmup-ms", "16", "-measure-ms", "16", "-quiet",
		"-checkpoint", ckpt,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "-resume") {
		t.Errorf("cancellation error %q does not mention -resume", err)
	}
}

// A shard study whose points fingerprinted differently fails the run —
// the -ablations and -powerstate-smoke paths share this check.
func TestShardsAgree(t *testing.T) {
	if err := shardsAgree(experiment.VaultScaling{Deterministic: true}); err != nil {
		t.Errorf("deterministic study failed the check: %v", err)
	}
	bad := experiment.VaultScaling{Config: "hmc-8vault", Benchmark: "gcc", Policy: experiment.PolicySmart}
	err := shardsAgree(bad)
	if err == nil || !strings.Contains(err.Error(), "hmc-8vault/gcc/smart") {
		t.Errorf("non-deterministic study: err = %v, want one naming the study", err)
	}
}
