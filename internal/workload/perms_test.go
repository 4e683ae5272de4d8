package workload

import (
	"sync"
	"testing"

	"smartrefresh/internal/sim"
)

// shuffledSpec is a shuffled spec of the given rows, one byte a row.
func shuffledSpec(rows int64) StreamSpec {
	return StreamSpec{
		FootprintBytes: rows, StrideBytes: 1, SweepPeriod: sim.Millisecond,
		RowRepeats: 1, WriteFraction: 0.3, JitterFraction: 0.1, Shuffle: true,
	}
}

// kept reports whether the permutation table holds the key.
func kept(rows int, seed uint64) bool {
	perms.Lock()
	defer perms.Unlock()
	return perms.byKey[permKey{rows, seed}] != nil
}

// resetPerms empties the permutation table, so that a test that fills it
// leaves no large entries behind.
func resetPerms() {
	perms.Lock()
	defer perms.Unlock()
	perms.byKey, perms.order, perms.rows = nil, nil, 0
}

// A generator built on a hit yields the stream of the one whose miss
// built the entry: the shared row order plus the copied RNG state are all
// the shuffle left behind.
func TestShuffledWarmEqualsCold(t *testing.T) {
	resetPerms()
	const rows, seed = 5000, 0xc01d
	cold := NewGenerator(shuffledSpec(rows), seed)
	if !kept(rows, seed) {
		t.Fatal("miss did not keep its row order")
	}
	warm := NewGenerator(shuffledSpec(rows), seed)
	if &cold.perm[0] != &warm.perm[0] {
		t.Error("hit built its own row order")
	}
	for i := 0; i < 100000; i++ {
		a, _ := cold.Next()
		b, _ := warm.Next()
		if a != b {
			t.Fatalf("record %d: cold %+v, warm %+v", i, a, b)
		}
	}
}

// A spec above the cap builds a private row order and leaves the table
// as it was.
func TestShuffledAboveCapNotKept(t *testing.T) {
	t.Cleanup(resetPerms)
	perms.Lock()
	before := perms.rows
	perms.Unlock()
	const rows, seed = permTableRows + 1, 1
	g := NewGenerator(shuffledSpec(rows), seed)
	if len(g.perm) != rows {
		t.Fatalf("row order has %d rows, want %d", len(g.perm), rows)
	}
	if kept(rows, seed) {
		t.Error("spec above the cap was kept")
	}
	perms.Lock()
	defer perms.Unlock()
	if perms.rows != before {
		t.Errorf("table holds %d rows after, %d before", perms.rows, before)
	}
}

// The table evicts in insertion order until a new entry fits under the
// cap.
func TestShuffledEvictsOldestFirst(t *testing.T) {
	resetPerms()
	t.Cleanup(resetPerms)
	const big = permTableRows/2 + 1
	shuffled(64, 1)  // oldest
	shuffled(big, 2) // 64 + big fit
	shuffled(64, 3)  // still fits
	shuffled(big, 4) // must evict 64/1, then big/2
	for _, c := range []struct {
		rows int
		seed uint64
		want bool
	}{{64, 1, false}, {big, 2, false}, {64, 3, true}, {big, 4, true}} {
		if got := kept(c.rows, c.seed); got != c.want {
			t.Errorf("rows %d seed %d: kept %v, want %v", c.rows, c.seed, got, c.want)
		}
	}
	perms.Lock()
	defer perms.Unlock()
	if perms.rows != 64+big || len(perms.order) != 2 || len(perms.byKey) != 2 {
		t.Errorf("table holds %d rows in %d/%d entries, want %d in 2", perms.rows, len(perms.order), len(perms.byKey), 64+big)
	}
}

// Generators of one key built at once all see one row order and one
// stream; under -race this also checks the table's locking.
func TestShuffledConcurrentBuild(t *testing.T) {
	const rows, seed = 4096, 0xbee5
	gens := make([]*Generator, 8)
	var wg sync.WaitGroup
	for i := range gens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			gens[i] = NewGenerator(shuffledSpec(rows), seed)
		}()
	}
	wg.Wait()
	ref := NewGenerator(shuffledSpec(rows), seed)
	for i, g := range gens {
		for n := 0; n < 2*rows; n++ {
			a, _ := ref.Next()
			b, _ := g.Next()
			if a != b {
				t.Fatalf("generator %d record %d: %+v, want %+v", i, n, b, a)
			}
		}
		ref = NewGenerator(shuffledSpec(rows), seed)
	}
}
