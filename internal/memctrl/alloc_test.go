// Steady-state allocation budget of the vault array's barrier machinery;
// the repository-level alloc_test.go pins the public hot paths.
package memctrl

import (
	"testing"

	"smartrefresh/internal/config"
	"smartrefresh/internal/sim"
)

// Ordering the vaults for dispatch runs at every barrier, so it must not
// allocate: the insertion sort works in the array's own order slice.
func TestVaultDispatchOrderAllocFree(t *testing.T) {
	va := MustNewVaultArray(config.HMC8Vault(), cbrFactory(), VaultOptions{Workers: 2})
	// Two queue-length patterns, alternated so every sort moves vaults.
	setPending(va, []int{3, 0, 9, 3, 0, 12, 3, 1})
	a := va.pending
	va.pending = make([][]Request, len(a))
	setPending(va, []int{1, 3, 12, 0, 3, 9, 0, 3})
	b := va.pending
	avg := testing.AllocsPerRun(200, func() {
		a, b = b, a
		va.pending = a
		va.sortOrder()
	})
	if avg != 0 {
		t.Errorf("dispatch ordering allocates %.1f allocs/op, want 0", avg)
	}
}

// A vaulted measured window differences every vault's stats against its
// snapshot and folds them in vault order. The stats rule behind Sub and
// Add must not move those value copies to the heap: the three
// allocations are the per-vault results slice and the fold's merged
// latency histogram (its struct and its bucket array).
func TestVaultResultsSinceAllocs(t *testing.T) {
	va := MustNewVaultArray(config.HMC8Vault(), cbrFactory(), VaultOptions{Workers: 1})
	const warm, end = 2 * sim.Millisecond, 4 * sim.Millisecond
	va.FlushTo(warm)
	snaps := make([]Snapshot, va.Vaults())
	for v := range snaps {
		snaps[v] = va.Vault(v).Snapshot(warm)
	}
	va.Finish(end)
	avg := testing.AllocsPerRun(50, func() {
		va.ResultsSince(end, snaps, end-warm)
	})
	if avg > 3 {
		t.Errorf("VaultArray.ResultsSince allocates %.1f allocs/op, want <= 3", avg)
	}
}
