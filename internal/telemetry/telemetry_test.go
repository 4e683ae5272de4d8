package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"smartrefresh/internal/sim"
	"smartrefresh/internal/stats"
)

// traceFile mirrors the Chrome trace-event JSON object shape.
type traceFile struct {
	TraceEvents []traceEvent      `json:"traceEvents"`
	DisplayUnit string            `json:"displayTimeUnit"`
	OtherData   map[string]string `json:"otherData"`
}

type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Args map[string]any `json:"args"`
}

func decode(t *testing.T, tr *Tracer) traceFile {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	var tf traceFile
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace output is not valid JSON: %v\n%s", err, buf.String())
	}
	return tf
}

func TestNilTracerNoOps(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	sc := tr.Scope("x")
	if sc != nil {
		t.Fatal("nil tracer returned non-nil scope")
	}
	// All of these must be safe on nil receivers.
	sc.Command(CmdActivate, 0, 1, 0, 10)
	sc.Instant("switch", 0, 5)
	sc.NameThread(0, "bank")
	tr.JobSpan("job", tr.JobStart(), time.Millisecond)
	tr.SetEventLimit(10)
	if tr.Dropped() != 0 || tr.CommandCount(CmdActivate) != 0 {
		t.Fatal("nil tracer reported activity")
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatalf("nil Write: %v", err)
	}
	var tf traceFile
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("nil trace output invalid: %v", err)
	}
}

// TestDisabledPathAllocationFree is the cost-model contract: with
// telemetry disabled (nil tracer/scope/registry) the hooks compiled into
// the hot paths allocate nothing.
func TestDisabledPathAllocationFree(t *testing.T) {
	var tr *Tracer
	sc := tr.Scope("x")
	var reg *Registry
	var c stats.Counter
	allocs := testing.AllocsPerRun(1000, func() {
		sc.Command(CmdRead, 3, 17, 100, 200)
		sc.Instant("i", 0, 100)
		tr.JobSpan("job", time.Time{}, 0)
		reg.RegisterCounter("c", &c)
		reg.RegisterGauge("g", nil)
	})
	if allocs != 0 {
		t.Fatalf("disabled telemetry allocates %v per op, want 0", allocs)
	}
}

func TestTracerCommandsAndSpans(t *testing.T) {
	tr := NewTracer()
	sc := tr.Scope("dram table1-2gb/smart")
	sc.NameThread(0, "ch0/rk0/bk0")
	sc.Command(CmdActivate, 0, 42, 1*sim.Nanosecond, 41*sim.Nanosecond)
	sc.Command(CmdRefreshCBR, 1, -1, 100*sim.Nanosecond, 170*sim.Nanosecond)
	sc.Instant("smart-disable", 0, 200*sim.Nanosecond)
	base := tr.JobStart()
	tr.JobSpan("2GB/gcc/smart", base, 3*time.Millisecond)
	tr.JobSpan("2GB/gcc/cbr", base.Add(time.Millisecond), 2*time.Millisecond)

	tf := decode(t, tr)
	if tf.DisplayUnit != "ns" {
		t.Errorf("displayTimeUnit = %q", tf.DisplayUnit)
	}
	var names []string
	for _, ev := range tf.TraceEvents {
		names = append(names, ev.Ph+":"+ev.Name)
	}
	joined := strings.Join(names, " ")
	for _, want := range []string{"M:process_name", "M:thread_name", "X:ACT", "X:REF-CBR", "i:smart-disable", "X:2GB/gcc/smart", "X:2GB/gcc/cbr"} {
		if !strings.Contains(joined, want) {
			t.Errorf("trace missing %q in %s", want, joined)
		}
	}
	for _, ev := range tf.TraceEvents {
		switch ev.Name {
		case "ACT":
			if ev.Ts != 0.001 || ev.Dur != 0.04 {
				t.Errorf("ACT ts/dur = %v/%v, want 0.001/0.04 us", ev.Ts, ev.Dur)
			}
			if row, ok := ev.Args["row"].(float64); !ok || row != 42 {
				t.Errorf("ACT args.row = %v, want 42", ev.Args["row"])
			}
		case "REF-CBR":
			if ev.Args != nil {
				t.Errorf("CBR command carries args %v, want none (row -1)", ev.Args)
			}
		}
	}
	if got := tr.CommandCount(CmdActivate); got != 1 {
		t.Errorf("CommandCount(ACT) = %d", got)
	}
}

// TestJobSpanLanes checks that overlapping wall-clock spans land on
// distinct engine lanes while sequential ones reuse lane 0.
// DropScopes deletes the named scope and the scopes below it, with
// their command counts; other scopes and job spans stay, and a nil
// tracer no-ops.
func TestTracerDropScopes(t *testing.T) {
	var nilTracer *Tracer
	nilTracer.DropScopes("job")
	tr := NewTracer()
	for _, name := range []string{"job", "job/vault01", "jobs", "other"} {
		sc := tr.Scope(name)
		sc.NameThread(0, "bank")
		sc.Command(CmdActivate, 0, 1, 0, 10)
		sc.Instant("switch", 0, 5)
	}
	tr.JobSpan("job", time.Now(), time.Millisecond)
	tr.DropScopes("job")
	if got := tr.CommandCount(CmdActivate); got != 2 {
		t.Errorf("%d ACT events counted after the drop, want 2", got)
	}
	var left []string
	for _, e := range decode(t, tr).TraceEvents {
		if e.Name == "process_name" && e.Pid != 0 {
			left = append(left, e.Args["name"].(string))
		}
		if e.Pid == 1 || e.Pid == 2 {
			t.Errorf("event %+v of a dropped scope is still in the trace", e)
		}
	}
	if strings.Join(left, ",") != "jobs,other" {
		t.Errorf("scopes left %v, want [jobs other]", left)
	}
	if tf := decode(t, tr); tf.TraceEvents[len(tf.TraceEvents)-1].Name != "job" {
		t.Error("the job span was dropped with the scopes")
	}
}

func TestJobSpanLanes(t *testing.T) {
	tr := NewTracer()
	base := tr.wallBase
	tr.JobSpan("a", base, 10*time.Microsecond)
	tr.JobSpan("b", base.Add(5*time.Microsecond), 10*time.Microsecond) // overlaps a
	tr.JobSpan("c", base.Add(20*time.Microsecond), time.Microsecond)   // after both

	tf := decode(t, tr)
	lanes := map[string]int{}
	for _, ev := range tf.TraceEvents {
		if ev.Cat == "engine" {
			lanes[ev.Name] = ev.Tid
		}
	}
	if lanes["a"] != 0 || lanes["b"] != 1 || lanes["c"] != 0 {
		t.Errorf("lanes = %v, want a:0 b:1 c:0", lanes)
	}
}

func TestTracerEventLimit(t *testing.T) {
	tr := NewTracer()
	tr.SetEventLimit(3)
	sc := tr.Scope("s") // consumes one buffered metadata event
	// Each kind keeps buffering up to its reserve even past the limit,
	// so a rare kind emitted late still appears in the trace.
	for i := 0; i < kindReserve+10; i++ {
		sc.Command(CmdWrite, 0, i, sim.Time(i), sim.Time(i+1))
	}
	if tr.Dropped() != 10 {
		t.Fatalf("Dropped = %d, want 10 (reserve %d honoured past the limit)", tr.Dropped(), kindReserve)
	}
	// A different kind arriving with the buffer long past the limit
	// starts its own reserve rather than being starved.
	sc.Command(CmdSelfRefresh, 0, -1, 0, sim.Time(1))
	if got := tr.CommandCount(CmdSelfRefresh); got != 1 {
		t.Fatalf("CommandCount(SELF-REF) = %d, want 1 buffered via kind reserve", got)
	}
	tf := decode(t, tr)
	if tf.OtherData["droppedEvents"] != "10" {
		t.Errorf("otherData.droppedEvents = %q", tf.OtherData["droppedEvents"])
	}
	// Spans bypass the limit.
	tr.JobSpan("job", tr.JobStart(), time.Millisecond)
	tf = decode(t, tr)
	found := false
	for _, ev := range tf.TraceEvents {
		if ev.Name == "job" {
			found = true
		}
	}
	if !found {
		t.Error("span dropped by event limit")
	}
}

func TestCommandKindStrings(t *testing.T) {
	want := map[CommandKind]string{
		CmdActivate: "ACT", CmdPrecharge: "PRE", CmdRead: "READ", CmdWrite: "WRITE",
		CmdRefreshRASOnly: "REF-RAS", CmdRefreshCBR: "REF-CBR",
		CmdRefreshPB: "REF-PB", CmdRefreshAB: "REF-AB",
		CmdSelfRefresh: "SELF-REF", CmdIdleClose: "IDLE-CLOSE",
		CmdPowerDown: "PWR-DN",
	}
	if len(want) != int(numCommandKinds) {
		t.Fatalf("test covers %d kinds, tracer has %d", len(want), numCommandKinds)
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
}

func TestRegistry(t *testing.T) {
	reg := NewRegistry()
	var c stats.Counter
	c.Add(7)
	reg.RegisterCounter("b/requests", &c)
	reg.RegisterGauge("a/refresh_ops", func() float64 { return 12 })
	h := stats.NewHistogram(8, 1)
	h.Observe(-1)
	h.Observe(2.5)
	h.Observe(100)
	reg.RegisterHistogram("c/latency", h)

	snap := reg.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d rows", len(snap))
	}
	if snap[0].Name != "a/refresh_ops" || snap[0].Value != 12 {
		t.Errorf("row 0 = %+v", snap[0])
	}
	if snap[1].Name != "b/requests" || snap[1].Value != 7 || snap[1].Kind != "counter" {
		t.Errorf("row 1 = %+v", snap[1])
	}
	if snap[2].Count != 3 || snap[2].Underflow != 1 || snap[2].Overflow != 1 {
		t.Errorf("histogram row = %+v", snap[2])
	}

	// A name already held is refused; the first source stays.
	if err := reg.RegisterGauge("a/refresh_ops", func() float64 { return 13 }); err == nil {
		t.Error("re-registering a name succeeded")
	}
	snap = reg.Snapshot()
	if len(snap) != 3 || snap[0].Value != 12 {
		t.Errorf("re-register: %d rows, row0 %+v", len(snap), snap[0])
	}

	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var rows []Metric
	if err := json.Unmarshal(buf.Bytes(), &rows); err != nil {
		t.Fatalf("metrics JSON invalid: %v", err)
	}
	buf.Reset()
	if err := reg.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 4 {
		t.Errorf("CSV has %d lines, want 4 (header + 3 rows)\n%s", lines, buf.String())
	}

	// Nil registry: registration and dumps no-op but stay valid.
	var nilReg *Registry
	nilReg.RegisterCounter("x", &c)
	if nilReg.Snapshot() != nil {
		t.Error("nil registry snapshot non-nil")
	}
	buf.Reset()
	if err := nilReg.WriteJSON(&buf); err != nil {
		t.Fatalf("nil WriteJSON: %v", err)
	}
	if strings.TrimSpace(buf.String()) != "[]" {
		t.Errorf("nil registry JSON = %q, want []", buf.String())
	}
}

func TestCSVEscape(t *testing.T) {
	if got := csvEscape(`a,b"c`); got != `"a,b""c"` {
		t.Errorf("csvEscape = %q", got)
	}
	if got := csvEscape("plain"); got != "plain" {
		t.Errorf("csvEscape = %q", got)
	}
}

// failWriter errors once limit bytes have been accepted, modelling a
// full disk or closed pipe mid-dump.
type failWriter struct {
	limit int
	n     int
}

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n+len(p) > w.limit {
		ok := w.limit - w.n
		if ok < 0 {
			ok = 0
		}
		w.n += ok
		return ok, errors.New("injected write failure")
	}
	w.n += len(p)
	return len(p), nil
}

// A write failure at any point of the dump must surface as an error,
// not vanish inside the buffered encoder. This guards the regression
// where a short write during the trace dump was silently swallowed and
// the command exited zero with a truncated file.
func TestTracerWriteErrorPropagates(t *testing.T) {
	tr := NewTracer()
	sc := tr.Scope("err")
	for i := 0; i < 100; i++ {
		sc.Command(CmdActivate, 0, i, sim.Time(i)*sim.Nanosecond, sim.Time(i+1)*sim.Nanosecond)
	}
	for _, limit := range []int{0, 10, 1 << 10} {
		if err := tr.Write(&failWriter{limit: limit}); err == nil {
			t.Errorf("limit %d: Write reported no error on a failing writer", limit)
		}
	}
	// The nil tracer writes a stub object; its error must propagate too.
	var nilTracer *Tracer
	if err := nilTracer.Write(&failWriter{}); err == nil {
		t.Error("nil tracer Write reported no error on a failing writer")
	}
}

func TestRegistryWriteErrorPropagates(t *testing.T) {
	reg := NewRegistry()
	var c stats.Counter
	c.Add(3)
	reg.RegisterCounter("a/count", &c)
	reg.RegisterGauge("a/gauge", func() float64 { return 1.5 })
	if err := reg.WriteJSON(&failWriter{limit: 4}); err == nil {
		t.Error("WriteJSON reported no error on a failing writer")
	}
	if err := reg.WriteCSV(&failWriter{limit: 4}); err == nil {
		t.Error("WriteCSV reported no error on a failing writer")
	}
}

// WriteFile replaces the trace atomically: a failure (here: an
// unwritable directory) leaves no partial file behind, and a successful
// rewrite fully replaces the previous trace.
func TestTracerWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.json")

	tr := NewTracer()
	tr.Scope("one").Command(CmdActivate, 0, 0, 0, 2)
	if err := tr.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	if err := tr.WriteFile(filepath.Join(dir, "missing", "trace.json")); err == nil {
		t.Error("WriteFile into a missing directory reported no error")
	}

	tr.Scope("two").Command(CmdRead, 0, 0, 0, 2*sim.Nanosecond)
	if err := tr.WriteFile(path); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	second, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(first, second) {
		t.Error("rewrite did not replace the trace file")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Errorf("directory holds %d entries, want just the trace (no temp litter)", len(ents))
	}
}

// Flags.Finish must fail loudly when an output cannot be written, for
// both the trace and the metrics dump.
func TestFlagsFinishWriteErrors(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "missing", "out.json")

	var count stats.Counter
	count.Add(1)

	f := &Flags{TracePath: bad}
	f.Tracer().Scope("x").Command(CmdActivate, 0, 0, 0, 2)
	if err := f.Finish(); err == nil {
		t.Error("Finish reported no error for an unwritable trace path")
	}

	f = &Flags{MetricsPath: bad}
	f.Registry().RegisterCounter("c", &count)
	if err := f.Finish(); err == nil {
		t.Error("Finish reported no error for an unwritable metrics path")
	}

	// And the happy path still lands both files atomically.
	f = &Flags{
		TracePath:   filepath.Join(dir, "trace.json"),
		MetricsPath: filepath.Join(dir, "metrics.csv"),
	}
	f.Tracer().Scope("x").Command(CmdActivate, 0, 0, 0, 2)
	f.Registry().RegisterCounter("c", &count)
	if err := f.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	for _, p := range []string{f.TracePath, f.MetricsPath} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("Finish did not write %s: %v", p, err)
		}
	}
}
