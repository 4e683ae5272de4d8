// Package telemetry is the simulator's observability layer: a structured
// event tracer that records DRAM commands and experiment-engine job spans
// as Chrome trace-event JSON (loadable in Perfetto or chrome://tracing),
// and a metrics registry (registry.go) that components publish counters,
// gauges and histograms into for end-of-run dumps.
//
// Cost model: telemetry is compiled in everywhere and disabled by
// default. The disabled path is a nil receiver — every emitting method
// no-ops on a nil *Tracer or nil *Scope with a single pointer compare
// and no allocation, so hot paths (dram.Module.Access, policy ticks)
// carry the hooks unconditionally. Enabled, each event is one mutex
// acquisition and one append into a preallocated-growth buffer; encoding
// happens only at Write time.
//
// Timebases: DRAM command events are recorded in simulated time
// (picoseconds, rendered as fractional trace microseconds) on one trace
// process per Scope; engine job spans are recorded in wall-clock time on
// the reserved process 0. The two families never share a process id, so
// mixing them in one trace file is well-defined.
package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"smartrefresh/internal/atomicio"
	"smartrefresh/internal/sim"
)

// CommandKind enumerates the traced DRAM command event types — the
// timeline event families the tracer records (self-refresh entry/exit is
// one span event).
type CommandKind uint8

// The traced command event types.
const (
	CmdActivate CommandKind = iota
	CmdPrecharge
	CmdRead
	CmdWrite
	CmdRefreshRASOnly
	CmdRefreshCBR
	CmdRefreshPB   // per-bank refresh (REFpb), blocking or overlapped
	CmdRefreshAB   // all-bank refresh (REFab), one event per bank
	CmdSelfRefresh // one span from mode entry to exit
	CmdIdleClose   // controller-initiated idle page-close precharge
	CmdPowerDown   // one span per CKE-low power-down residency (arg: state)
	numCommandKinds
)

// commandNames is each kind's name in the trace.
var commandNames = [numCommandKinds]string{
	"ACT", "PRE", "READ", "WRITE", "REF-RAS", "REF-CBR", "REF-PB", "REF-AB", "SELF-REF", "IDLE-CLOSE", "PWR-DN",
}

// String names the kind as it appears in the trace.
func (k CommandKind) String() string {
	if k < numCommandKinds {
		return commandNames[k]
	}
	return fmt.Sprintf("CommandKind(%d)", int(k))
}

// DefaultEventLimit bounds the number of buffered command events per
// tracer. A full 13-figure regeneration emits hundreds of millions of
// commands; past the limit further command events are counted in
// Dropped() rather than buffered, keeping trace files loadable. Spans
// and metadata are always recorded.
const DefaultEventLimit = 1 << 20

// kindReserve is the per-CommandKind quota honoured even once the
// event limit is reached. Frequent kinds (ACT, READ) fill the buffer
// first in a long run; without the reserve a rare kind emitted late —
// SELF-REF spans only appear in the idle-power study, for example —
// would be starved out of the trace entirely.
const kindReserve = 1024

// event is one buffered trace record, compact enough that buffering
// millions stays cheap. ts and dur are trace microseconds.
type event struct {
	name string
	cat  string
	ph   byte
	pid  int32
	tid  int32
	ts   float64
	dur  float64
	row  int32 // args.row for command events; -1 = no args
}

// Tracer collects trace events from any number of scopes and goroutines.
// The zero value is not useful; construct with NewTracer. A nil *Tracer
// is the disabled tracer: every method is a cheap no-op.
type Tracer struct {
	mu      sync.Mutex
	events  []event
	limit   int
	dropped uint64
	nextPid int32
	perKind [numCommandKinds]uint64

	wallBase time.Time
	jobLanes []float64 // per-lane end time (µs) for engine span rows
}

// NewTracer returns an enabled tracer with the default event limit.
func NewTracer() *Tracer {
	return &Tracer{limit: DefaultEventLimit, nextPid: 1, wallBase: time.Now()}
}

// SetEventLimit replaces the command-event cap (<= 0: unlimited). Call
// before tracing starts.
func (t *Tracer) SetEventLimit(n int) {
	if t == nil {
		return
	}
	t.limit = n
}

// Enabled reports whether events are being recorded.
func (t *Tracer) Enabled() bool { return t != nil }

// Dropped returns the number of command events discarded over the limit.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// CommandCount returns the number of buffered command events of one kind.
func (t *Tracer) CommandCount(k CommandKind) uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.perKind[k]
}

// Scope opens a trace process for one simulated component (typically one
// controller/module pair) and names it. Command events within a scope
// share its process id and are laid out one thread per flat bank. A nil
// tracer returns a nil scope, which no-ops.
func (t *Tracer) Scope(name string) *Scope {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	pid := t.nextPid
	t.nextPid++
	t.events = append(t.events, event{name: "process_name", cat: name, ph: 'M', pid: pid, row: -1})
	t.mu.Unlock()
	return &Scope{t: t, pid: pid}
}

// DropScopes deletes every scope named prefix or below prefix + "/",
// with all of its events, the way Registry.Unregister drops metrics: a
// run torn down midway leaves nothing in the trace, and a re-run under
// the same name opens the only scope of that name.
func (t *Tracer) DropScopes(prefix string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	drop := map[int32]bool{}
	for _, e := range t.events {
		if e.ph == 'M' && e.name == "process_name" &&
			(e.cat == prefix || strings.HasPrefix(e.cat, prefix) && e.cat[len(prefix)] == '/') {
			drop[e.pid] = true
		}
	}
	if len(drop) == 0 {
		return
	}
	kept := t.events[:0]
	for _, e := range t.events {
		if !drop[e.pid] {
			kept = append(kept, e)
			continue
		}
		if k := slices.Index(commandNames[:], e.name); k >= 0 && e.cat == "dram" {
			t.perKind[k]--
		}
	}
	clear(t.events[len(kept):])
	t.events = kept
}

// Scope is one trace process worth of simulated-time command events.
type Scope struct {
	t   *Tracer
	pid int32
}

// simMicros renders simulated picoseconds as trace microseconds.
func simMicros(t sim.Time) float64 { return float64(t) / 1e6 }

// Command records one DRAM command event spanning [start, end] of
// simulated time on the scope's bank thread tid (the flat bank index).
// row is the affected row, or -1 when the command carries none.
func (s *Scope) Command(k CommandKind, tid int, row int, start, end sim.Time) {
	if s == nil {
		return
	}
	t := s.t
	t.mu.Lock()
	if t.limit > 0 && len(t.events) >= t.limit && t.perKind[k] >= kindReserve {
		t.dropped++
		t.mu.Unlock()
		return
	}
	t.perKind[k]++
	dur := simMicros(end - start)
	if dur < 0 {
		dur = 0
	}
	t.events = append(t.events, event{
		name: k.String(), cat: "dram", ph: 'X',
		pid: s.pid, tid: int32(tid),
		ts: simMicros(start), dur: dur, row: int32(row),
	})
	t.mu.Unlock()
}

// Instant records a zero-duration event (e.g. a policy mode switch) at
// simulated time at on thread tid.
func (s *Scope) Instant(name string, tid int, at sim.Time) {
	if s == nil {
		return
	}
	t := s.t
	t.mu.Lock()
	if t.limit > 0 && len(t.events) >= t.limit {
		t.dropped++
		t.mu.Unlock()
		return
	}
	t.events = append(t.events, event{
		name: name, cat: "policy", ph: 'i',
		pid: s.pid, tid: int32(tid), ts: simMicros(at), row: -1,
	})
	t.mu.Unlock()
}

// NameThread labels one thread of the scope (e.g. "ch0/rk1/bk3").
func (s *Scope) NameThread(tid int, name string) {
	if s == nil {
		return
	}
	t := s.t
	t.mu.Lock()
	t.events = append(t.events, event{
		name: "thread_name", cat: name, ph: 'M', pid: s.pid, tid: int32(tid), row: -1,
	})
	t.mu.Unlock()
}

// JobStart returns the wall-clock base for a subsequent JobSpan. It
// exists so callers need not read wall time themselves when disabled.
func (t *Tracer) JobStart() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// JobSpan records one engine job span in wall-clock time on process 0.
// Concurrent spans are assigned to the first free lane (thread row), so
// the trace shows the worker pool's true occupancy. Spans are never
// dropped by the event limit.
func (t *Tracer) JobSpan(name string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	ts := float64(start.Sub(t.wallBase)) / float64(time.Microsecond)
	if ts < 0 {
		ts = 0
	}
	dur := float64(d) / float64(time.Microsecond)
	t.mu.Lock()
	lane := -1
	for i, end := range t.jobLanes {
		if end <= ts {
			lane = i
			break
		}
	}
	if lane == -1 {
		lane = len(t.jobLanes)
		t.jobLanes = append(t.jobLanes, 0)
	}
	t.jobLanes[lane] = ts + dur
	t.events = append(t.events, event{
		name: name, cat: "engine", ph: 'X',
		pid: 0, tid: int32(lane), ts: ts, dur: dur, row: -1,
	})
	t.mu.Unlock()
}

// Write encodes the buffered events as a Chrome trace-event JSON
// object ({"traceEvents": [...]}) — the format Perfetto and
// chrome://tracing load directly. It may be called repeatedly; each call
// encodes the full buffer.
func (t *Tracer) Write(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, `{"traceEvents":[],"displayTimeUnit":"ns"}`+"\n")
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()

	// A bufio.Writer keeps its first error and then writes nothing more,
	// so Flush reports any failure of the writes before it.
	bw := bufio.NewWriterSize(w, 1<<16)
	bw.WriteString(`{"traceEvents":[`)
	bw.WriteString(`{"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"engine"}}`)
	for i := range t.events {
		bw.WriteByte(',')
		writeEvent(bw, &t.events[i])
	}
	fmt.Fprintf(bw, `],"displayTimeUnit":"ns","otherData":{"droppedEvents":"%d"}}`+"\n", t.dropped)
	return bw.Flush()
}

// WriteFile writes the trace to path (see Write). The file is replaced
// atomically: a failure at any stage — encoding, flush, sync or rename —
// is reported and leaves any previous trace at path untouched, so a
// crash or full disk can never truncate an existing trace to a torn
// JSON prefix.
func (t *Tracer) WriteFile(path string) error {
	return atomicio.WriteFile(path, t.Write)
}

// writeEvent renders one event as a JSON object; bw keeps any error.
func writeEvent(bw *bufio.Writer, e *event) {
	if e.ph == 'M' {
		// Metadata: the label travels in args.name; cat holds it.
		fmt.Fprintf(bw, `{"name":%s,"ph":"M","pid":%d,"tid":%d,"args":{"name":%s}}`,
			strconv.Quote(e.name), e.pid, e.tid, strconv.Quote(e.cat))
		return
	}
	fmt.Fprintf(bw, `{"name":%s,"cat":%s,"ph":%q,"pid":%d,"tid":%d,"ts":%s`,
		strconv.Quote(e.name), strconv.Quote(e.cat), string(e.ph), e.pid, e.tid,
		strconv.FormatFloat(e.ts, 'f', -1, 64))
	if e.ph == 'X' {
		fmt.Fprintf(bw, `,"dur":%s`, strconv.FormatFloat(e.dur, 'f', -1, 64))
	}
	if e.ph == 'i' {
		bw.WriteString(`,"s":"t"`)
	}
	if e.row >= 0 {
		fmt.Fprintf(bw, `,"args":{"row":%d}`, e.row)
	}
	bw.WriteByte('}')
}
