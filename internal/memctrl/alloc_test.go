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
	a := va.lanes
	va.lanes = make([]*lane, len(a))
	for v := range va.lanes {
		va.lanes[v] = new(lane)
	}
	setPending(va, []int{1, 3, 12, 0, 3, 9, 0, 3})
	b := va.lanes
	avg := testing.AllocsPerRun(200, func() {
		a, b = b, a
		va.lanes = a
		va.sortOrder()
	})
	if avg != 0 {
		t.Errorf("dispatch ordering allocates %.1f allocs/op, want 0", avg)
	}
}

// A vaulted measured window differences every vault's stats against its
// snapshot and folds them in vault order. The stats rule behind Sub and
// Add must not move those value copies to the heap, and the fold merges
// the latency histograms into the array's own: the one allocation is the
// per-vault results slice.
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
	if avg > 1 {
		t.Errorf("VaultArray.ResultsSince allocates %.1f allocs/op, want <= 1", avg)
	}
}

// allocBytes returns the heap bytes one call of f allocates, read from
// runtime.MemStats.TotalAlloc around it. TotalAlloc counts every
// goroutine's allocations, so, like testing.AllocsPerRun, it runs f with
// GOMAXPROCS 1 to keep the runtime's and other goroutines' out of it.
func allocBytes(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// A reset array's pending queues serve its next run, each vault getting
// back its own queue, emptied even when the array was reset mid-epoch (a
// job that failed): replaying the same stream enqueues without growing
// any of them, and gives the same results as a new array.
func TestVaultArrayResetReusesPendingQueues(t *testing.T) {
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
	replay := func(va *VaultArray) (agg Results, per []Results, grown uint64) {
		grown = allocBytes(func() { enqueue(va) })
		va.Finish(end)
		return va.Results(end), va.VaultResults(end), grown
	}

	va := MustNewVaultArray(cfg, smartFactory(), VaultOptions{Workers: 1})
	agg, per, grown := replay(va)
	if grown == 0 {
		t.Fatal("the first run's queues did not grow: nothing to reuse")
	}
	if err := va.Reset(smartFactory(), VaultOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	enqueue(va) // a run abandoned mid-epoch
	if err := va.Reset(smartFactory(), VaultOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	agg2, per2, grown2 := replay(va)
	if grown2 != 0 {
		t.Errorf("enqueueing into a reset array allocates %d bytes, want 0", grown2)
	}
	if !reflect.DeepEqual(agg, agg2) || !reflect.DeepEqual(per, per2) {
		t.Error("the replay over reused queues gives different results")
	}
}

// A warm vault controller Reset for another retention-checked job reuses
// the checker, and its per-row table, that the first one built: on
// HMC-8V the Reset allocates nothing, whether the job before it checked
// retention or not.
func TestControllerResetCheckedAllocFree(t *testing.T) {
	checked := VaultOptions{Options: Options{CheckRetention: true}, Workers: 1}
	va := MustNewVaultArray(config.HMC8Vault(), cbrFactory(), checked)
	for at := sim.Time(0); at < sim.Millisecond; at += 100 * sim.Nanosecond {
		va.Enqueue(Request{Time: at, Addr: uint64(at) * 4096 % uint64(va.cfg.Geometry.CapacityBytes())})
	}
	va.Finish(2 * sim.Millisecond)
	ctl := va.Vault(0)
	if ctl.Results(2*sim.Millisecond).Requests == 0 {
		t.Fatal("vault 0 served no request: nothing warmed its checker")
	}
	for _, prev := range []bool{true, false} {
		if err := ctl.Reset(ctl.Policy(), Options{CheckRetention: prev}); err != nil {
			t.Fatal(err)
		}
		var err error
		if n := allocBytes(func() { err = ctl.Reset(ctl.Policy(), checked.Options) }); n != 0 {
			t.Errorf("Reset with CheckRetention after a job with CheckRetention %v allocates %d B, want 0", prev, n)
		}
		if err != nil || ctl.checker == nil {
			t.Fatalf("Reset: err %v, checker %v", err, ctl.checker)
		}
	}
}
