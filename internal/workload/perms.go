package workload

import (
	"sync"

	"smartrefresh/internal/sim"
)

// permTableRows caps the rows the process-wide permutation table keeps:
// 2^23 rows, 32 MiB of row order. A shuffled spec of more rows is never
// kept; its generator builds a private permutation.
const permTableRows = 1 << 23

// permKey identifies a shuffled row order: it depends on nothing else.
type permKey struct {
	rows int
	seed uint64
}

// permEntry is one kept row order and the generator state right after
// the shuffle that built it. perm is shared and never written.
type permEntry struct {
	perm []uint32
	rng  sim.RNG
}

// perms is the process-wide table of row orders, evicted oldest first.
var perms struct {
	sync.Mutex
	byKey map[permKey]*permEntry
	order []permKey // insertion order, oldest first
	rows  int       // rows held by all entries
}

// shuffled returns the row order of a rows-long footprint shuffled from
// seed, and the RNG state a fresh sim.NewRNG(seed) has after that
// shuffle. Every caller of a kept key gets the same slice, which it must
// not write; only a miss runs Fisher–Yates, outside the lock.
func shuffled(rows int, seed uint64) ([]uint32, sim.RNG) {
	key := permKey{rows, seed}
	perms.Lock()
	e := perms.byKey[key]
	perms.Unlock()
	if e != nil {
		return e.perm, e.rng
	}

	e = &permEntry{perm: make([]uint32, rows), rng: *sim.NewRNG(seed)}
	e.rng.Perm(e.perm)
	if rows > permTableRows {
		return e.perm, e.rng
	}
	perms.Lock()
	defer perms.Unlock()
	if kept := perms.byKey[key]; kept != nil {
		// Another goroutine built the same order meanwhile.
		return kept.perm, kept.rng
	}
	for perms.rows+rows > permTableRows {
		oldest := perms.order[0]
		perms.order = perms.order[1:]
		perms.rows -= len(perms.byKey[oldest].perm)
		delete(perms.byKey, oldest)
	}
	if perms.byKey == nil {
		perms.byKey = make(map[permKey]*permEntry)
	}
	perms.byKey[key] = e
	perms.order = append(perms.order, key)
	perms.rows += rows
	return e.perm, e.rng
}
