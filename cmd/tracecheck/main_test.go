package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"smartrefresh/internal/sim"
	"smartrefresh/internal/telemetry"
)

func writeTrace(t *testing.T) string {
	t.Helper()
	tr := telemetry.NewTracer()
	sc := tr.Scope("test")
	sc.NameThread(0, "ch0/rk0/bk0")
	sc.Command(telemetry.CmdActivate, 0, 5, 0, 40*sim.Nanosecond)
	sc.Command(telemetry.CmdRefreshCBR, 0, -1, 100*sim.Nanosecond, 170*sim.Nanosecond)
	tr.JobSpan("cfg/bench/policy", tr.JobStart(), time.Millisecond)
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestValidTracePasses(t *testing.T) {
	path := writeTrace(t)
	var sb strings.Builder
	if code := run([]string{"-in", path, "-require", "ACT,REF-CBR", "-spans"}, &sb); code != 0 {
		t.Fatalf("exit %d on a valid trace:\n%s", code, sb.String())
	}
	if !strings.Contains(sb.String(), "ACT") {
		t.Errorf("summary missing event counts:\n%s", sb.String())
	}
}

func TestMissingRequiredEventFails(t *testing.T) {
	path := writeTrace(t)
	var sb strings.Builder
	if code := run([]string{"-in", path, "-require", "SELF-REF"}, &sb); code != 1 {
		t.Fatalf("exit %d, want 1 when a required event is absent", code)
	}
	if !strings.Contains(sb.String(), `required event "SELF-REF" absent`) {
		t.Errorf("missing diagnostic:\n%s", sb.String())
	}
}

// Two engine job spans of one name are two jobs their identity cannot
// tell apart: -spans fails, naming the span; without -spans the trace
// passes.
func TestSharedSpanNameFails(t *testing.T) {
	tr := telemetry.NewTracer()
	tr.JobSpan("cfg/bench/policy", tr.JobStart(), time.Millisecond)
	tr.JobSpan("cfg/bench/policy", tr.JobStart(), time.Millisecond)
	tr.JobSpan("cfg/bench/policy@sr100us", tr.JobStart(), time.Millisecond)
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if code := run([]string{"-in", path, "-spans"}, &sb); code != 1 {
		t.Fatalf("exit %d, want 1 when two job spans share a name:\n%s", code, sb.String())
	}
	if want := "engine job spans share a name: cfg/bench/policy (2 spans)"; !strings.Contains(sb.String(), want) {
		t.Errorf("diagnostics missing %q:\n%s", want, sb.String())
	}
	sb.Reset()
	if code := run([]string{"-in", path}, &sb); code != 0 {
		t.Errorf("exit %d without -spans:\n%s", code, sb.String())
	}
}

func TestMalformedJSONFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"traceEvents":[{"name":`), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if code := run([]string{"-in", path}, &sb); code != 1 {
		t.Fatalf("exit %d, want 1 on malformed JSON", code)
	}
}

func TestStructuralViolationsFail(t *testing.T) {
	// An event with an unknown phase and one missing pid/tid.
	raw := `{"traceEvents":[
	  {"name":"x","cat":"dram","ph":"Z","pid":1,"tid":0,"ts":1},
	  {"name":"y","cat":"dram","ph":"X","ts":-4,"dur":1}
	],"displayTimeUnit":"ns","otherData":{}}`
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if code := run([]string{"-in", path}, &sb); code != 1 {
		t.Fatalf("exit %d, want 1 on structural violations:\n%s", code, sb.String())
	}
	for _, want := range []string{"unknown phase", "missing pid/tid"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("diagnostics missing %q:\n%s", want, sb.String())
		}
	}
}
