package telemetry

import (
	"bufio"
	"encoding/json"
	"io"

	"smartrefresh/internal/atomicio"
	"smartrefresh/internal/sim"
)

// Snapshot is one incremental observation of a long-running simulation:
// the registry's metrics at a point in simulated time, plus how far the
// ingest has progressed. The server and stdin replay modes emit these
// every N simulated milliseconds so an operator watches a day-long
// trace replay converge instead of waiting for the end-of-run dump.
type Snapshot struct {
	Seq     int      `json:"seq"`
	SimTime sim.Time `json:"sim_time_ps"`
	Records uint64   `json:"records"`
	Final   bool     `json:"final,omitempty"`
	Metrics []Metric `json:"metrics"`
}

// Snapshotter emits periodic snapshots of a registry on a simulated-time
// cadence. Observe is called from the replay loop with the current
// simulated time; whenever the clock crosses the next interval boundary
// one snapshot is emitted (missed boundaries are skipped, not replayed —
// a trace with an hour-long idle gap produces one snapshot after the
// gap, not 3600 stale copies).
//
// A nil *Snapshotter is the disabled path: Observe and Final no-op, so
// replay loops carry the hook unconditionally.
type Snapshotter struct {
	reg   *Registry
	every sim.Duration
	next  sim.Time
	seq   int
	emit  func(Snapshot) error
}

// NewSnapshotter builds a snapshotter emitting through emit every
// `every` of simulated time. A non-positive interval, nil registry or
// nil emit returns the disabled (nil) snapshotter.
func NewSnapshotter(reg *Registry, every sim.Duration, emit func(Snapshot) error) *Snapshotter {
	if reg == nil || every <= 0 || emit == nil {
		return nil
	}
	return &Snapshotter{reg: reg, every: every, next: every, emit: emit}
}

// Observe advances the snapshot clock to now; records is the ingest
// progress to stamp on an emitted snapshot.
func (s *Snapshotter) Observe(now sim.Time, records uint64) error {
	if s == nil || now < s.next {
		return nil
	}
	for s.next <= now {
		s.next += s.every
	}
	s.seq++
	return s.emit(Snapshot{Seq: s.seq, SimTime: now, Records: records, Metrics: s.reg.Snapshot()})
}

// Final emits one last snapshot at end of run, regardless of where the
// interval clock stands.
func (s *Snapshotter) Final(now sim.Time, records uint64) error {
	if s == nil {
		return nil
	}
	s.seq++
	return s.emit(Snapshot{Seq: s.seq, SimTime: now, Records: records, Final: true, Metrics: s.reg.Snapshot()})
}

// Count returns the number of snapshots emitted.
func (s *Snapshotter) Count() int {
	if s == nil {
		return 0
	}
	return s.seq
}

// JSONLEmitter renders each snapshot as one JSON line on w, flushing
// after every line so a streaming consumer (an HTTP client watching a
// replay) sees each snapshot as it happens.
func JSONLEmitter(w io.Writer) func(Snapshot) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	return func(snap Snapshot) error {
		if snap.Metrics == nil {
			snap.Metrics = []Metric{}
		}
		if err := enc.Encode(snap); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		if f, ok := w.(interface{ Flush() }); ok {
			f.Flush()
		}
		return nil
	}
}

// FileEmitter atomically rewrites path with the latest snapshot (JSON),
// so an observer tailing the file always reads one complete, current
// snapshot — the incremental-telemetry analogue of the checkpoint
// writer's temp+rename discipline.
func FileEmitter(path string) func(Snapshot) error {
	return func(snap Snapshot) error {
		if snap.Metrics == nil {
			snap.Metrics = []Metric{}
		}
		return atomicio.WriteFile(path, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(snap)
		})
	}
}
