package memctrl

import (
	"fmt"
	"sort"

	"smartrefresh/internal/sim"
	"smartrefresh/internal/stats"
)

// SchedulerPolicy selects the transaction-ordering discipline of the
// reorder buffer.
type SchedulerPolicy int

const (
	// FCFS issues transactions strictly in arrival order.
	FCFS SchedulerPolicy = iota
	// FRFCFS (first-ready, first-come-first-served) issues row-buffer
	// hits ahead of older row misses, the standard open-page scheduler:
	// within the window, requests to the same (bank, row) are grouped and
	// groups issue in order of their earliest arrival.
	FRFCFS
)

// String names the policy.
func (p SchedulerPolicy) String() string {
	switch p {
	case FCFS:
		return "fcfs"
	case FRFCFS:
		return "fr-fcfs"
	default:
		return fmt.Sprintf("SchedulerPolicy(%d)", int(p))
	}
}

// SchedulerStats reports reorder-buffer behaviour.
type SchedulerStats struct {
	Enqueued  uint64
	Issued    uint64
	Batches   uint64
	MaxQueued int
	// AvgQueueWaitNS is the mean time between arrival and issue.
	AvgQueueWaitNS float64
}

// Scheduler is a window-based transaction reorder buffer in front of the
// controller. It collects up to Window requests, then issues them in the
// selected order; FR-FCFS groups same-row requests so the open-page
// policy converts them into row-buffer hits. Issue timestamps never move
// before a request's arrival time, and the underlying controller still
// sees a nondecreasing time sequence.
//
// This is a deterministic batch approximation of a cycle-by-cycle
// FR-FCFS issue queue: within one window it captures the row-grouping
// effect that matters to the refresh study (row hits do not restore
// cells; activates do), without modelling per-cycle arbitration.
type Scheduler struct {
	ctl    *Controller
	window int
	policy SchedulerPolicy

	queue []Request
	wait  stats.Sample
	st    SchedulerStats
}

// NewScheduler wraps a controller. Window must be at least 1.
func NewScheduler(ctl *Controller, window int, policy SchedulerPolicy) (*Scheduler, error) {
	if ctl == nil {
		return nil, fmt.Errorf("memctrl: nil controller")
	}
	if window < 1 {
		return nil, fmt.Errorf("memctrl: scheduler window %d < 1", window)
	}
	return &Scheduler{ctl: ctl, window: window, policy: policy}, nil
}

// Controller exposes the wrapped controller.
func (s *Scheduler) Controller() *Controller { return s.ctl }

// Stats returns the scheduler statistics.
func (s *Scheduler) Stats() SchedulerStats {
	out := s.st
	out.AvgQueueWaitNS = s.wait.Mean()
	return out
}

// Enqueue adds a request; when the window fills, the batch issues.
// Requests must arrive in nondecreasing time order.
func (s *Scheduler) Enqueue(req Request) {
	if n := len(s.queue); n > 0 && req.Time < s.queue[n-1].Time {
		panic(fmt.Sprintf("memctrl: scheduler request at %v before %v", req.Time, s.queue[n-1].Time))
	}
	s.queue = append(s.queue, req)
	// A bank-aware refresh policy sees the request now, while it is still
	// queued: the controller's refresh-vs-demand arbiter postpones
	// per-bank refreshes around demand that has arrived but not yet
	// issued. No-op for legacy policies.
	s.ctl.observeQueuedDemand(req)
	s.st.Enqueued++
	if len(s.queue) > s.st.MaxQueued {
		s.st.MaxQueued = len(s.queue)
	}
	if len(s.queue) >= s.window {
		s.Flush()
	}
}

// Flush issues every queued request.
func (s *Scheduler) Flush() {
	if len(s.queue) == 0 {
		return
	}
	s.st.Batches++
	batch := s.queue
	s.queue = s.queue[len(s.queue):]

	if s.policy == FRFCFS {
		s.orderFRFCFS(batch)
	}

	// The whole batch is known by the arrival time of its newest member;
	// issue in batch order at that point (never before a request's own
	// arrival, and never moving controller time backwards).
	issueAt := batch[len(batch)-1].Time
	if s.policy == FRFCFS {
		// After reordering the max arrival may sit anywhere.
		for _, r := range batch {
			if r.Time > issueAt {
				issueAt = r.Time
			}
		}
	}
	for _, req := range batch {
		s.wait.Observe((issueAt - req.Time).Nanoseconds())
		req.Time = issueAt
		s.ctl.Submit(req)
		s.st.Issued++
	}
}

// orderFRFCFS stably groups requests by (bank, row), groups ordered by
// earliest arrival — the batch analogue of row-hit-first issue.
func (s *Scheduler) orderFRFCFS(batch []Request) {
	type key struct {
		bank int
		row  int
	}
	type entry struct {
		req  Request
		rank int // arrival index of the group's first member
		pos  int // original position, for stability within a group
	}
	mapper := s.ctl.Mapper()
	g := &s.ctl.cfg.Geometry
	first := map[key]int{}
	entries := make([]entry, len(batch))
	for i, req := range batch {
		a := mapper.Map(req.Addr)
		k := key{bank: a.BankOf().Flat(g), row: a.Row}
		if _, seen := first[k]; !seen {
			first[k] = i
		}
		entries[i] = entry{req: req, rank: first[k], pos: i}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].rank != entries[j].rank {
			return entries[i].rank < entries[j].rank
		}
		return entries[i].pos < entries[j].pos
	})
	for i := range entries {
		batch[i] = entries[i].req
	}
}

// Finish flushes outstanding requests and closes the controller at end.
func (s *Scheduler) Finish(end sim.Time) {
	s.Flush()
	s.ctl.Finish(end)
}
