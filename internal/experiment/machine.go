package experiment

import (
	"runtime"
	"slices"
	"sync"

	"smartrefresh/internal/cache"
	"smartrefresh/internal/config"
	"smartrefresh/internal/core"
	"smartrefresh/internal/memctrl"
)

// machineKey names the machines a job can run on: its configuration and
// whether its stream goes through the 3D-cache front end. These fix the
// shape of every buffer a machine holds. The policy kind, the windows
// and the per-job controller options are not part of it: Reset rebinds
// them.
type machineKey struct {
	cfg     config.DRAM
	stacked bool
}

// machine is what execute's record loop runs on: a vault array (one
// vault for a monolithic module), the 3D-cache front end when the job is
// stacked, and the policies the machine has run. A finished job puts its
// machine in the idle store, and the next job of the same key resets it
// instead of building one.
type machine struct {
	key   machineKey
	va    *memctrl.VaultArray
	front *cache.DRAMCache // stacked; nil otherwise
	// policies holds, per registered kind the machine has run, that
	// kind's policy per vault; the controller's Reset resets it for the
	// next job of the kind. MakePolicy instances and retention-map
	// policies belong to their job and are never kept.
	policies map[PolicyKind][]core.Policy
	// warm holds each vault controller's counters at the warmup
	// boundary.
	warm []memctrl.Snapshot
}

// policy returns the machine's policy of kind for vault v, built by
// build the first time the machine runs the kind.
func (m *machine) policy(kind PolicyKind, v int, build func() core.Policy) core.Policy {
	set := m.policies[kind]
	if set == nil {
		set = make([]core.Policy, m.key.cfg.Geometry.VaultCount())
		m.policies[kind] = set
	}
	if set[v] == nil {
		set[v] = build()
	}
	return set[v]
}

// resetSnapshots returns s, or a new slice when it is shorter, as n zero
// snapshots.
func resetSnapshots(s []memctrl.Snapshot, n int) []memctrl.Snapshot {
	if len(s) < n {
		return make([]memctrl.Snapshot, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// machineStore is the process's idle machines, oldest first. It keeps
// as many as were ever checked out at once, and never fewer than
// GOMAXPROCS; putting one more evicts the oldest. A job takes the newest
// idle machine of its key.
type machineStore struct {
	mu   sync.Mutex
	idle []*machine
	// out counts the machines checked out now, peak the most at once.
	out, peak int
}

// machines is the one store every Engine, RunStream and Run share, so
// that a machine outlives the Engine whose job built it.
var machines machineStore

// take checks out the newest idle machine of key k, or a new empty one
// when there is none.
func (s *machineStore) take(k machineKey) *machine {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.out++
	s.peak = max(s.peak, s.out)
	for i := len(s.idle) - 1; i >= 0; i-- {
		if m := s.idle[i]; m.key == k {
			s.idle = slices.Delete(s.idle, i, i+1)
			return m
		}
	}
	return &machine{key: k, policies: map[PolicyKind][]core.Policy{}}
}

// put ends m's checkout. A kept m becomes idle, evicting the oldest idle
// machines beyond the bound; any other is dropped.
func (s *machineStore) put(m *machine, keep bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.out--
	if !keep {
		return
	}
	if over := len(s.idle) + 1 - max(s.peak, runtime.GOMAXPROCS(0)); over > 0 {
		s.idle = slices.Delete(s.idle, 0, min(over, len(s.idle)))
	}
	s.idle = append(s.idle, m)
}
