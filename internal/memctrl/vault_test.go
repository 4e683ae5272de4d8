package memctrl

import (
	"reflect"
	"testing"

	"smartrefresh/internal/config"
	"smartrefresh/internal/core"
	"smartrefresh/internal/dram"
	"smartrefresh/internal/sim"
)

func smartFactory() PolicyFactory {
	return func(_ int, cfg config.DRAM) (core.Policy, error) {
		return core.NewSmart(cfg.Geometry, cfg.Timing.RefreshInterval, cfg.Smart), nil
	}
}

func cbrFactory() PolicyFactory {
	return func(_ int, cfg config.DRAM) (core.Policy, error) {
		return core.NewCBR(cfg.Geometry, cfg.Timing.RefreshInterval), nil
	}
}

// testVaultCfg is a scaled-down 8-vault stack: the HMC preset's shape
// with few enough rows (refresh ticks are one per row per interval) that
// the heavy determinism runs stay fast under -race.
func testVaultCfg() config.DRAM {
	cfg := config.HMC8Vault()
	cfg.Geometry.Ranks = 2
	cfg.Geometry.Layers = 2
	cfg.Geometry.Rows = 256
	cfg.Power.Geometry = cfg.Geometry
	cfg.Timing = dram.DDR2_667(sim.Millisecond)
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return cfg
}

// runVaulted drives the same synthetic workload through a fresh vault
// array at the given worker count and returns the aggregate plus
// per-vault results.
func runVaulted(t *testing.T, factory PolicyFactory, workers int) (Results, []Results) {
	t.Helper()
	cfg := testVaultCfg()
	agg, per, _ := runVaultedStream(t, factory, workers, func(rng *sim.RNG) uint64 {
		return rng.Uint64() % uint64(cfg.Geometry.CapacityBytes())
	})
	return agg, per
}

// runVaultedStream is runVaulted over addresses drawn by addr. It also
// returns how many epochs dispatched a vault other than vault 0 first.
func runVaultedStream(t *testing.T, factory PolicyFactory, workers int, addr func(*sim.RNG) uint64) (Results, []Results, int) {
	t.Helper()
	cfg := testVaultCfg()
	va, err := NewVaultArray(cfg, factory, VaultOptions{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	end := sim.Time(2 * cfg.Timing.RefreshInterval)
	epoch := sim.Time(cfg.Timing.RefreshInterval / 4)
	rng := sim.NewRNG(99)
	var now sim.Time
	next := epoch
	reordered := 0
	for now < end {
		va.Enqueue(Request{
			Time:  now,
			Addr:  addr(rng),
			Write: rng.Intn(4) == 0,
		})
		now += sim.Time(200 + rng.Intn(5000))
		for now >= next && next < end {
			va.FlushTo(next)
			if va.order[0] != 0 {
				reordered++
			}
			next += epoch
		}
	}
	va.Finish(end)
	return va.Results(end), va.VaultResults(end), reordered
}

// The determinism keystone at the controller level: aggregate and
// per-vault results are bit-identical at every worker count.
func TestVaultArrayDeterministicAcrossWorkers(t *testing.T) {
	refAgg, refPer := runVaulted(t, smartFactory(), 1)
	for _, workers := range []int{2, 4, 8} {
		agg, per := runVaulted(t, smartFactory(), workers)
		if !reflect.DeepEqual(refAgg, agg) {
			t.Fatalf("workers=%d: aggregate results differ\nref: %+v\ngot: %+v", workers, refAgg, agg)
		}
		if !reflect.DeepEqual(refPer, per) {
			t.Fatalf("workers=%d: per-vault results differ", workers)
		}
	}
}

// Skewed traffic makes largest-first dispatch differ from index order in
// most epochs; results must still be bit-identical at every worker count,
// including counts that do not divide the vault count.
func TestVaultArraySkewedDeterministicAcrossWorkers(t *testing.T) {
	cfg := testVaultCfg()
	pages := uint64(cfg.Geometry.CapacityBytes()) / VaultPageBytes
	const n = 8
	// Most pages land in vaults 6 and 5, a few anywhere: vault v of a
	// page is page mod 8 under the identity remap.
	skewed := func(rng *sim.RNG) uint64 {
		page := rng.Uint64() % (pages / n) * n
		switch r := rng.Intn(10); {
		case r < 6:
			page += 6
		case r < 9:
			page += 5
		default:
			page += uint64(rng.Intn(n))
		}
		return page*VaultPageBytes + rng.Uint64()%VaultPageBytes
	}
	refAgg, refPer, serialReordered := runVaultedStream(t, smartFactory(), 1, skewed)
	if serialReordered != 0 {
		t.Fatalf("serial array reordered %d epochs, want index order", serialReordered)
	}
	if refPer[6].Requests <= refPer[0].Requests {
		t.Fatalf("vault 6 saw %d requests, vault 0 %d: traffic not skewed", refPer[6].Requests, refPer[0].Requests)
	}
	for _, workers := range []int{2, 3, 8} {
		agg, per, reordered := runVaultedStream(t, smartFactory(), workers, skewed)
		if !reflect.DeepEqual(refAgg, agg) {
			t.Fatalf("workers=%d: aggregate results differ\nref: %+v\ngot: %+v", workers, refAgg, agg)
		}
		if !reflect.DeepEqual(refPer, per) {
			t.Fatalf("workers=%d: per-vault results differ", workers)
		}
		if reordered == 0 {
			t.Fatalf("workers=%d: no epoch dispatched out of index order", workers)
		}
	}
}

// setPending gives each vault of va a pending queue of the given length.
func setPending(va *VaultArray, lens []int) {
	for v, n := range lens {
		va.pending[v] = make([]Request, n)
	}
}

func TestVaultArrayDispatchOrder(t *testing.T) {
	cfg := config.HMC8Vault()
	va := MustNewVaultArray(cfg, cbrFactory(), VaultOptions{Workers: 2})
	// Largest pending queue first; equal queues in index order.
	setPending(va, []int{3, 0, 9, 3, 0, 12, 3, 1})
	va.sortOrder()
	if want := []int{5, 2, 0, 3, 6, 7, 1, 4}; !reflect.DeepEqual(va.order, want) {
		t.Fatalf("order %v, want %v", va.order, want)
	}
	// The next barrier re-sorts from the previous order, and the index
	// tie-break still holds.
	setPending(va, []int{0, 0, 0, 0, 0, 0, 0, 0})
	va.sortOrder()
	if want := []int{0, 1, 2, 3, 4, 5, 6, 7}; !reflect.DeepEqual(va.order, want) {
		t.Fatalf("all-equal order %v, want index order", va.order)
	}

	// Serial arrays keep index order whatever is pending.
	serial := MustNewVaultArray(cfg, cbrFactory(), VaultOptions{Workers: 1})
	setPending(serial, []int{0, 1, 2, 3, 4, 5, 6, 7})
	serial.sortOrder()
	if want := []int{0, 1, 2, 3, 4, 5, 6, 7}; !reflect.DeepEqual(serial.order, want) {
		t.Fatalf("serial order %v, want index order", serial.order)
	}
}

func TestVaultArrayTiming(t *testing.T) {
	cfg := testVaultCfg()
	va := MustNewVaultArray(cfg, cbrFactory(), VaultOptions{Workers: 2})
	for i := 0; i < 64; i++ {
		va.Enqueue(Request{Time: sim.Time(i), Addr: uint64(i) * VaultPageBytes})
	}
	va.FlushTo(sim.Time(cfg.Timing.RefreshInterval / 4))
	va.Finish(sim.Time(cfg.Timing.RefreshInterval / 2))
	tm := va.Timing()
	if tm.Barriers != 2 || len(tm.Busy) != va.Vaults() {
		t.Fatalf("timing %+v: want 2 barriers, %d vaults", tm, va.Vaults())
	}
	for v, b := range tm.Busy {
		if b <= 0 {
			t.Fatalf("vault %d busy %v", v, b)
		}
	}
	if tm.Wait < 0 || tm.WaitPerBarrier() != tm.Wait/2 {
		t.Fatalf("wait %v, per barrier %v", tm.Wait, tm.WaitPerBarrier())
	}
}

func TestVaultArrayAggregationConsistency(t *testing.T) {
	agg, per := runVaulted(t, cbrFactory(), 2)
	if len(per) != 8 {
		t.Fatalf("expected 8 vault results, got %d", len(per))
	}
	var req, ops, dropped uint64
	var reqsted uint64
	for _, r := range per {
		req += r.Requests
		ops += r.RefreshOps
		dropped += r.RefreshesDroppedSelfRefresh
		reqsted += r.Policy.RefreshesRequested
	}
	if agg.Requests != req || agg.RefreshOps != ops || agg.RefreshesDroppedSelfRefresh != dropped {
		t.Fatalf("aggregate %d/%d/%d != vault sums %d/%d/%d",
			agg.Requests, agg.RefreshOps, agg.RefreshesDroppedSelfRefresh, req, ops, dropped)
	}
	// The refresh-accounting invariant must hold for the aggregate too.
	if agg.Policy.RefreshesRequested != reqsted || reqsted != ops+dropped {
		t.Fatalf("requested %d != ops %d + dropped %d", reqsted, ops, dropped)
	}
	if agg.Requests == 0 || agg.RefreshOps == 0 {
		t.Fatal("workload produced no traffic or refreshes")
	}
	if agg.Energy.Total() <= 0 {
		t.Fatalf("aggregate energy %v", agg.Energy.Total())
	}
}

func TestVaultArrayRouting(t *testing.T) {
	cfg := config.HMC8Vault()
	va := MustNewVaultArray(cfg, cbrFactory(), VaultOptions{Workers: 1})
	// Consecutive pages round-robin across vaults; the page offset
	// survives, the vault bits are compacted out.
	seen := map[int]bool{}
	for page := uint64(0); page < 16; page++ {
		addr := page*VaultPageBytes + 123
		v, local := va.Route(addr)
		seen[v] = true
		if local%VaultPageBytes != 123 {
			t.Fatalf("page offset not preserved: addr %#x -> local %#x", addr, local)
		}
		wantLocal := (page/8)*VaultPageBytes + 123
		if local != wantLocal {
			t.Fatalf("addr %#x -> local %#x, want %#x", addr, local, wantLocal)
		}
	}
	if len(seen) != 8 {
		t.Fatalf("16 consecutive pages hit %d vaults, want all 8", len(seen))
	}
}

func TestVaultArrayRejectsMonolithic(t *testing.T) {
	if _, err := NewVaultArray(config.Table1_2GB(), cbrFactory(), VaultOptions{}); err == nil {
		t.Fatal("monolithic geometry accepted")
	}
}

func TestVaultArrayEnqueueTimeRegressionPanics(t *testing.T) {
	va := MustNewVaultArray(config.HMC8Vault(), cbrFactory(), VaultOptions{Workers: 1})
	va.Enqueue(Request{Time: 1000, Addr: 0})
	va.FlushTo(1000)
	defer func() {
		if recover() == nil {
			t.Fatal("time regression accepted")
		}
	}()
	va.Enqueue(Request{Time: 999, Addr: 0})
}
