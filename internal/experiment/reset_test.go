package experiment

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"smartrefresh/internal/cache"
	"smartrefresh/internal/config"
	"smartrefresh/internal/core"
	"smartrefresh/internal/dram"
	"smartrefresh/internal/memctrl"
	"smartrefresh/internal/sim"
)

// capacityFields are the fields a reset object may hold while a fresh
// one does not: storage kept for reuse, which no result reads. Every
// other field of every object below must equal the fresh object's.
var capacityFields = map[string]bool{
	// The tag-store chunks Reset took out, cleared again as they are
	// reinstalled.
	"cache.Cache.spare": true,
	// The retention checker a controller built for an earlier job, Reset
	// and reinstalled when a later job checks retention.
	"memctrl.Controller.spareChecker": true,
}

// sameState reports the first difference between a and b, walking
// every field, exported or not: pointers and interfaces by what they
// point to, slices and arrays by length and contents (a nil slice
// equals an empty one), maps by keys and values, and func values by
// whether they are nil. path names the value in the report.
func sameState(path string, a, b reflect.Value) error {
	return (&stateWalk{seen: map[[2]uintptr]bool{}}).same(path, a, b)
}

type stateWalk struct {
	// seen holds the pointer pairs already compared, so shared and
	// cyclic structure is walked once.
	seen map[[2]uintptr]bool
}

func (w *stateWalk) same(path string, a, b reflect.Value) error {
	if a.Type() != b.Type() {
		return fmt.Errorf("%s: type %v, fresh %v", path, a.Type(), b.Type())
	}
	differ := func(x, y any) error { return fmt.Errorf("%s: %v, fresh %v", path, x, y) }
	switch a.Kind() {
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return differ(a.Bool(), b.Bool())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			return differ(a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			return differ(a.Uint(), b.Uint())
		}
	case reflect.Float32, reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return differ(a.Float(), b.Float())
		}
	case reflect.String:
		if a.String() != b.String() {
			return differ(a.String(), b.String())
		}
	case reflect.Func, reflect.Chan, reflect.UnsafePointer:
		if a.IsNil() != b.IsNil() {
			return differ(a.IsNil(), b.IsNil())
		}
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return fmt.Errorf("%s: nil %v, fresh nil %v", path, a.IsNil(), b.IsNil())
			}
			return nil
		}
		pair := [2]uintptr{a.Pointer(), b.Pointer()}
		if w.seen[pair] {
			return nil
		}
		w.seen[pair] = true
		return w.same(path, a.Elem(), b.Elem())
	case reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return fmt.Errorf("%s: nil %v, fresh nil %v", path, a.IsNil(), b.IsNil())
			}
			return nil
		}
		return w.same(path, a.Elem(), b.Elem())
	case reflect.Struct:
		t := a.Type()
		for i := 0; i < t.NumField(); i++ {
			name := t.String() + "." + t.Field(i).Name
			if capacityFields[name] {
				continue
			}
			if err := w.same(path+"."+t.Field(i).Name, a.Field(i), b.Field(i)); err != nil {
				return err
			}
		}
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return fmt.Errorf("%s: length %d, fresh %d", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if err := w.same(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i)); err != nil {
				return err
			}
		}
	case reflect.Map:
		if a.Len() != b.Len() {
			return fmt.Errorf("%s: %d entries, fresh %d", path, a.Len(), b.Len())
		}
		iter := a.MapRange()
		for iter.Next() {
			bv := b.MapIndex(iter.Key())
			if !bv.IsValid() {
				return fmt.Errorf("%s: key %v missing from the fresh map", path, iter.Key())
			}
			if err := w.same(fmt.Sprintf("%s[%v]", path, iter.Key()), iter.Value(), bv); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("%s: cannot compare kind %v", path, a.Kind())
	}
	return nil
}

// requireFresh fails t unless reset and fresh hold the same state.
func requireFresh(t *testing.T, what string, reset, fresh any) {
	t.Helper()
	if err := sameState(what, reflect.ValueOf(reset), reflect.ValueOf(fresh)); err != nil {
		t.Errorf("reset differs from fresh at %v", err)
	}
}

// A corrupted field must fail the comparison, or the tests below show
// nothing.
func TestSameStateSeesADifference(t *testing.T) {
	cfg := resetTestConfig()
	a := memctrl.MustNew(cfg, core.NewCBR(cfg.Geometry, cfg.RefreshInterval()), memctrl.Options{})
	b := memctrl.MustNew(cfg, core.NewCBR(cfg.Geometry, cfg.RefreshInterval()), memctrl.Options{})
	if err := sameState("ctl", reflect.ValueOf(a), reflect.ValueOf(b)); err != nil {
		t.Fatalf("two new controllers differ: %v", err)
	}
	a.Submit(memctrl.Request{Time: 100, Addr: 4096})
	if sameState("ctl", reflect.ValueOf(a), reflect.ValueOf(b)) == nil {
		t.Error("a controller that served a request compares equal to a new one")
	}
}

// resetTestConfig is a small module with a 1 ms refresh interval, so that
// a short stream crosses several intervals: Smart Refresh self-disables
// and re-enables, and every policy walks its whole schedule.
func resetTestConfig() config.DRAM { return config.EDRAM(sim.Millisecond) }

// ladderOptions arms every rung of the power-state ladder.
func ladderOptions() memctrl.Options {
	ladder := PowerStatePolicies()
	full := ladder[len(ladder)-1]
	return memctrl.Options{SelfRefreshAfter: full.SelfRefreshAfter, PowerStates: full.Cfg}
}

// resetStream is a seeded demand stream over [0, 6 ms) of capacity
// bytes: dense traffic in the first and fourth milliseconds, idle
// between (long enough to self-disable Smart Refresh and to walk a
// ladder-armed rank down to slow-wake self-refresh), sparse after.
func resetStream(capacity uint64) []memctrl.Request {
	rng := sim.NewRNG(33)
	var out []memctrl.Request
	add := func(from, to sim.Time, gap sim.Duration) {
		for at := from; at < to; at += gap/2 + sim.Duration(rng.Intn(int(gap))) {
			out = append(out, memctrl.Request{Time: at, Addr: rng.Uint64() % capacity &^ 63, Write: rng.Bool(0.3)})
		}
	}
	ms := sim.Millisecond
	add(0, ms, 200*sim.Nanosecond)
	add(3*ms, 4*ms, 200*sim.Nanosecond)
	add(4*ms, 6*ms, 40*sim.Microsecond)
	return out
}

// runController drives ctl through the stream and reads its results,
// as a job does.
func runController(ctl *memctrl.Controller, stream []memctrl.Request) {
	const end = 6 * sim.Millisecond
	warm := ctl.Snapshot(0)
	for _, r := range stream {
		ctl.Submit(r)
	}
	ctl.Finish(end)
	ctl.ResultsSince(end, warm, end)
	_ = ctl.RetentionErr()
}

// Each registered policy, run through a controller over the stream and
// Reset to time zero, holds the state its constructor builds.
func TestPolicyResetEqualsFresh(t *testing.T) {
	cfg := resetTestConfig()
	stream := resetStream(uint64(cfg.Geometry.CapacityBytes()))
	rmap := DefaultRetentionMap(cfg.Geometry, 5)
	for _, e := range Policies() {
		t.Run(e.Name, func(t *testing.T) {
			var m *core.RetentionMap
			if e.RetentionMap {
				m = rmap
			}
			p := e.New(cfg, m)
			runController(memctrl.MustNew(cfg, p, memctrl.Options{}), stream)
			if st := p.Stats(); e.Kind == PolicySmart && (st.DisableSwitches == 0 || st.EnableSwitches == 0) {
				t.Fatalf("the stream left Smart Refresh at %+v: it never disabled and re-enabled", st)
			}
			p.Reset(0)
			requireFresh(t, e.Name, p, e.New(cfg, m))
		})
	}
}

// A controller that ran a stream with one set of options and was Reset
// with the next job's policy and options holds the state New builds
// from them, module, histogram, event tables and policy included: in
// both directions between the plain controller and the ladder-armed,
// retention-checked one.
func TestControllerResetEqualsFresh(t *testing.T) {
	cfg := resetTestConfig()
	stream := resetStream(uint64(cfg.Geometry.CapacityBytes()))
	checked := ladderOptions()
	checked.CheckRetention = true
	plain := memctrl.Options{}
	for _, tc := range []struct {
		name        string
		first, next memctrl.Options
	}{
		{"plain-then-ladder", plain, checked},
		{"ladder-then-plain", checked, plain},
		{"ladder-then-ladder", checked, checked},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, e := range Policies() {
				if e.RetentionMap {
					continue
				}
				ctl := memctrl.MustNew(cfg, e.New(cfg, nil), tc.first)
				runController(ctl, stream)
				mod := ctl.Module()
				if err := ctl.Reset(ctl.Policy(), tc.next); err != nil {
					t.Fatal(err)
				}
				if ctl.Module() != mod {
					t.Errorf("%s: Reset replaced the module instead of resetting it", e.Name)
				}
				requireFresh(t, e.Name, ctl, memctrl.MustNew(cfg, e.New(cfg, nil), tc.next))
			}
		})
	}
}

// A module run through a stream and Reset is the module NewModule
// builds.
func TestModuleResetEqualsFresh(t *testing.T) {
	cfg := resetTestConfig()
	ctl := memctrl.MustNew(cfg, core.NewCBR(cfg.Geometry, cfg.RefreshInterval()), ladderOptions())
	runController(ctl, resetStream(uint64(cfg.Geometry.CapacityBytes())))
	m := ctl.Module()
	if m.Stats().Accesses == 0 || m.Stats().SelfRefreshEntries == 0 {
		t.Fatalf("the stream left the module at %+v: nothing to reset", m.Stats())
	}
	m.Reset()
	requireFresh(t, "module", m, dram.NewModule(cfg.Geometry, cfg.Timing))
}

// A vault array run through a stream, its results read, and Reset with
// the next job's policies, options and shard count is the array
// NewVaultArray builds from them: an 8-vault stack and a one-vault
// module.
func TestVaultArrayResetEqualsFresh(t *testing.T) {
	for _, cfg := range []config.DRAM{HMC8V.DRAM(), resetTestConfig()} {
		t.Run(cfg.Name, func(t *testing.T) { testVaultArrayResetEqualsFresh(t, cfg) })
	}
}

func testVaultArrayResetEqualsFresh(t *testing.T, cfg config.DRAM) {
	rng := sim.NewRNG(9)
	const end = 2 * sim.Millisecond
	factory := func(kind PolicyKind) (memctrl.PolicyFactory, []core.Policy) {
		set := make([]core.Policy, cfg.Geometry.VaultCount())
		return func(v int, vcfg config.DRAM) (core.Policy, error) {
			if set[v] == nil {
				set[v] = NewPolicy(vcfg, kind)
			}
			return set[v], nil
		}, set
	}
	first := memctrl.VaultOptions{Options: ladderOptions(), Workers: 2}
	next := memctrl.VaultOptions{Workers: 1}
	next.CheckRetention = true
	for _, kind := range []PolicyKind{PolicySmart, PolicyCBR} {
		f, _ := factory(kind)
		va := memctrl.MustNewVaultArray(cfg, f, first)
		warm := make([]memctrl.Snapshot, va.Vaults())
		for at := sim.Time(0); at < end; at += sim.Time(100+rng.Intn(400)) * sim.Nanosecond {
			if at > end/2 && at < end*3/4 {
				continue // an idle stretch for the ladder
			}
			va.Enqueue(memctrl.Request{Time: at, Addr: rng.Uint64() % uint64(cfg.Geometry.CapacityBytes()), Write: rng.Bool(0.3)})
		}
		va.FlushTo(end / 2)
		for v := range warm {
			warm[v] = va.Vault(v).Snapshot(end / 2)
		}
		va.Finish(end)
		va.ResultsSince(end, warm, end/2)
		// The next job reuses the policies the array already holds.
		if err := va.Reset(func(v int, _ config.DRAM) (core.Policy, error) { return va.Vault(v).Policy(), nil }, next); err != nil {
			t.Fatal(err)
		}
		fresh, _ := factory(kind)
		requireFresh(t, "vaults/"+kind.String(), va, memctrl.MustNewVaultArray(cfg, fresh, next))
	}
}

// The 3D cache front end, run through a stream that fills, evicts and
// writes back, and Reset, is the cache NewDRAMCache builds.
func TestDRAMCacheResetEqualsFresh(t *testing.T) {
	c := cache.NewDRAMCache(config.Table2_3DCache())
	rng := sim.NewRNG(11)
	for i := 0; i < 50000; i++ {
		c.Access(sim.Time(i), rng.Uint64()%(256<<20), rng.Bool(0.4))
	}
	if c.Tags().Stats().Writebacks == 0 {
		t.Fatal("the stream wrote nothing back")
	}
	c.Reset()
	requireFresh(t, "dramcache", c, cache.NewDRAMCache(config.Table2_3DCache()))
}
