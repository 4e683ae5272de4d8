// Steady-state allocation budget of the vault array's barrier machinery;
// the repository-level alloc_test.go pins the public hot paths.
package memctrl

import (
	"reflect"
	"runtime"
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

// allocBytes returns the heap bytes one call of f allocates, read from
// runtime.MemStats.TotalAlloc around it.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// A released array's pending queues serve the next array of its vault
// count, each vault getting back its own queue, emptied even when the
// array was released mid-epoch (a job that failed): replaying the same
// stream enqueues without growing any of them, and gives the same
// results. The test runs at GOMAXPROCS 1, so that the release and the
// next array's take meet on one P and no other goroutine allocates.
func TestVaultArrayReleaseReusesPendingQueues(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := testVaultCfg()
	end := sim.Time(cfg.Timing.RefreshInterval)
	// 4096 requests in one epoch, weighted towards the high vaults so
	// that the queues grow to different lengths.
	rng := sim.NewRNG(7)
	pages := uint64(cfg.Geometry.CapacityBytes()) / VaultPageBytes
	var stream []Request
	for i := 0; i < 4096; i++ {
		vault := uint64(max(rng.Intn(8), rng.Intn(8)))
		page := rng.Uint64()%(pages/8)*8 + vault
		stream = append(stream, Request{Time: sim.Time(i) * 100, Addr: page * VaultPageBytes, Write: i%3 == 0})
	}
	enqueue := func(va *VaultArray) {
		for _, r := range stream {
			va.Enqueue(r)
		}
	}
	replay := func() (agg Results, per []Results, grown uint64) {
		va := MustNewVaultArray(cfg, smartFactory(), VaultOptions{Workers: 1})
		defer va.Release()
		grown = allocBytes(func() { enqueue(va) })
		va.Finish(end)
		return va.Results(end), va.VaultResults(end), grown
	}

	runtime.GC()
	for pendingPool.Get() != nil {
	}
	agg, per, grown := replay()
	if grown == 0 {
		t.Fatal("the first array's queues did not grow: nothing to reuse")
	}
	aborted := MustNewVaultArray(cfg, smartFactory(), VaultOptions{Workers: 1})
	enqueue(aborted)
	aborted.Release()
	agg2, per2, grown2 := replay()
	if grown2 != 0 && !raceEnabled { // under -race the pool may drop the table
		t.Errorf("enqueueing into an array built after Release allocates %d bytes, want 0", grown2)
	}
	if !reflect.DeepEqual(agg, agg2) || !reflect.DeepEqual(per, per2) {
		t.Error("the replay over reused queues gives different results")
	}
}
