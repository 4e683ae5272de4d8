package dram_test

import (
	"fmt"
	"reflect"
	"testing"

	"smartrefresh/internal/core"
	"smartrefresh/internal/dram"
	"smartrefresh/internal/power"
	"smartrefresh/internal/sim"
	"smartrefresh/internal/stats"
)

// TestModuleStatsSub checks the windowed and folded stats of every
// stats type — dram.ModuleStats, core.PolicyStats and power.Breakdown —
// against the hand-listed Sub/Add bodies they replaced, kept below as
// references, on random values: counters that wrap, high-water marks in
// either order, and the power-state flag in every combination.
func TestModuleStatsSub(t *testing.T) {
	a := dram.ModuleStats{Accesses: 10, Reads: 7, RefreshOps: 5, ActiveTime: 100, DemandStall: 30}
	b := dram.ModuleStats{Accesses: 4, Reads: 2, RefreshOps: 1, ActiveTime: 40, DemandStall: 10}
	d := a.Sub(b)
	if d.Accesses != 6 || d.Reads != 5 || d.RefreshOps != 4 || d.ActiveTime != 60 || d.DemandStall != 20 {
		t.Errorf("Sub = %+v", d)
	}

	rng := sim.NewRNG(21)
	for i := 0; i < 500; i++ {
		var ma, mb dram.ModuleStats
		var pa, pb core.PolicyStats
		var ea, eb power.Breakdown
		for _, p := range []any{&ma, &mb, &pa, &pb, &ea, &eb} {
			randomize(reflect.ValueOf(p).Elem(), rng)
		}
		check := func(name string, got, want any) {
			t.Helper()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("case %d: %s\n got %+v\nwant %+v", i, name, got, want)
			}
		}
		check("ModuleStats.Sub", ma.Sub(mb), refModuleSub(ma, mb))
		check("ModuleStats.Add", ma.Add(mb), refModuleAdd(ma, mb))
		check("PolicyStats.Sub", pa.Sub(pb), refPolicySub(pa, pb))
		check("PolicyStats.Add", pa.Add(pb), refPolicyAdd(pa, pb))
		check("Breakdown.Add", ea.Add(eb), refBreakdownAdd(ea, eb))
	}
}

// TestStatsRuleCoversEveryType builds the window and fold rule of every
// stats type a measured window or a vault fold passes through, so a
// field of a kind the rule does not support is named here. (The
// package-level rules behind Sub and Add already panic at start-up.)
func TestStatsRuleCoversEveryType(t *testing.T) {
	for _, build := range []func(){
		func() { stats.RuleFor[dram.ModuleStats]() },
		func() { stats.RuleFor[core.PolicyStats]() },
		func() { stats.RuleFor[power.Breakdown]() },
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Error(r)
				}
			}()
			build()
		}()
	}
}

// randomize fills every field of the struct v: integers either small
// (so differences wrap and high-water marks compare both ways) or over
// the full range, floats as energies, bools at random.
func randomize(v reflect.Value, rng *sim.RNG) {
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(rng.Bool(0.5))
		case reflect.Int, reflect.Int64:
			if rng.Bool(0.5) {
				f.SetInt(int64(rng.Intn(16)))
			} else {
				f.SetInt(int64(rng.Uint64()))
			}
		case reflect.Uint64:
			if rng.Bool(0.5) {
				f.SetUint(rng.Uint64n(16))
			} else {
				f.SetUint(rng.Uint64())
			}
		case reflect.Float64:
			f.SetFloat(rng.Float64() * 1e12)
		default:
			panic(fmt.Sprintf("randomize: %v.%s has kind %v", v.Type(), v.Type().Field(i).Name, f.Kind()))
		}
	}
}

// refModuleSub and the other ref* functions below are the hand-listed
// bodies of ModuleStats.Sub/Add, PolicyStats.Sub/Add and Breakdown.Add
// that the stats rule replaced, kept verbatim as references.
func refModuleSub(s, earlier dram.ModuleStats) dram.ModuleStats {
	return dram.ModuleStats{
		Accesses:           s.Accesses - earlier.Accesses,
		Reads:              s.Reads - earlier.Reads,
		Writes:             s.Writes - earlier.Writes,
		RowHits:            s.RowHits - earlier.RowHits,
		RowMisses:          s.RowMisses - earlier.RowMisses,
		RowConflicts:       s.RowConflicts - earlier.RowConflicts,
		Activates:          s.Activates - earlier.Activates,
		Precharges:         s.Precharges - earlier.Precharges,
		RefreshOps:         s.RefreshOps - earlier.RefreshOps,
		RefreshCBROps:      s.RefreshCBROps - earlier.RefreshCBROps,
		RefreshRASOnlyOps:  s.RefreshRASOnlyOps - earlier.RefreshRASOnlyOps,
		RefreshPerBankOps:  s.RefreshPerBankOps - earlier.RefreshPerBankOps,
		RefreshOverlapOps:  s.RefreshOverlapOps - earlier.RefreshOverlapOps,
		RefreshAllBankOps:  s.RefreshAllBankOps - earlier.RefreshAllBankOps,
		RefreshConflictOps: s.RefreshConflictOps - earlier.RefreshConflictOps,
		ActiveTime:         s.ActiveTime - earlier.ActiveTime,
		IdleTime:           s.IdleTime - earlier.IdleTime,
		PowerDownTime:      s.PowerDownTime - earlier.PowerDownTime,
		SelfRefreshTime:    s.SelfRefreshTime - earlier.SelfRefreshTime,
		SelfRefreshEntries: s.SelfRefreshEntries - earlier.SelfRefreshEntries,
		DemandStall:        s.DemandStall - earlier.DemandStall,

		ActPdnTime:          s.ActPdnTime - earlier.ActPdnTime,
		PrePdnFastTime:      s.PrePdnFastTime - earlier.PrePdnFastTime,
		PrePdnSlowTime:      s.PrePdnSlowTime - earlier.PrePdnSlowTime,
		SelfRefreshSlowTime: s.SelfRefreshSlowTime - earlier.SelfRefreshSlowTime,
		PowerDownEntries:    s.PowerDownEntries - earlier.PowerDownEntries,
		PowerStatesTracked:  s.PowerStatesTracked,
	}
}

func refModuleAdd(s, o dram.ModuleStats) dram.ModuleStats {
	return dram.ModuleStats{
		Accesses:           s.Accesses + o.Accesses,
		Reads:              s.Reads + o.Reads,
		Writes:             s.Writes + o.Writes,
		RowHits:            s.RowHits + o.RowHits,
		RowMisses:          s.RowMisses + o.RowMisses,
		RowConflicts:       s.RowConflicts + o.RowConflicts,
		Activates:          s.Activates + o.Activates,
		Precharges:         s.Precharges + o.Precharges,
		RefreshOps:         s.RefreshOps + o.RefreshOps,
		RefreshCBROps:      s.RefreshCBROps + o.RefreshCBROps,
		RefreshRASOnlyOps:  s.RefreshRASOnlyOps + o.RefreshRASOnlyOps,
		RefreshPerBankOps:  s.RefreshPerBankOps + o.RefreshPerBankOps,
		RefreshOverlapOps:  s.RefreshOverlapOps + o.RefreshOverlapOps,
		RefreshAllBankOps:  s.RefreshAllBankOps + o.RefreshAllBankOps,
		RefreshConflictOps: s.RefreshConflictOps + o.RefreshConflictOps,
		ActiveTime:         s.ActiveTime + o.ActiveTime,
		IdleTime:           s.IdleTime + o.IdleTime,
		PowerDownTime:      s.PowerDownTime + o.PowerDownTime,
		SelfRefreshTime:    s.SelfRefreshTime + o.SelfRefreshTime,
		SelfRefreshEntries: s.SelfRefreshEntries + o.SelfRefreshEntries,
		DemandStall:        s.DemandStall + o.DemandStall,

		ActPdnTime:          s.ActPdnTime + o.ActPdnTime,
		PrePdnFastTime:      s.PrePdnFastTime + o.PrePdnFastTime,
		PrePdnSlowTime:      s.PrePdnSlowTime + o.PrePdnSlowTime,
		SelfRefreshSlowTime: s.SelfRefreshSlowTime + o.SelfRefreshSlowTime,
		PowerDownEntries:    s.PowerDownEntries + o.PowerDownEntries,
		PowerStatesTracked:  s.PowerStatesTracked || o.PowerStatesTracked,
	}
}

func refPolicySub(s, earlier core.PolicyStats) core.PolicyStats {
	return core.PolicyStats{
		RefreshesRequested: s.RefreshesRequested - earlier.RefreshesRequested,
		CounterReads:       s.CounterReads - earlier.CounterReads,
		CounterWrites:      s.CounterWrites - earlier.CounterWrites,
		AccessResets:       s.AccessResets - earlier.AccessResets,
		SkippedIndexings:   s.SkippedIndexings - earlier.SkippedIndexings,
		MaxPendingPerTick:  s.MaxPendingPerTick,
		DisableSwitches:    s.DisableSwitches - earlier.DisableSwitches,
		EnableSwitches:     s.EnableSwitches - earlier.EnableSwitches,
		TimeDisabled:       s.TimeDisabled - earlier.TimeDisabled,
		RefreshesPostponed: s.RefreshesPostponed - earlier.RefreshesPostponed,
		RefreshesPulledIn:  s.RefreshesPulledIn - earlier.RefreshesPulledIn,
		RefreshesForced:    s.RefreshesForced - earlier.RefreshesForced,
		MaxRefreshDeficit:  s.MaxRefreshDeficit,

		BloomLookups:        s.BloomLookups - earlier.BloomLookups,
		BloomFalsePositives: s.BloomFalsePositives - earlier.BloomFalsePositives,
	}
}

func refPolicyAdd(s, o core.PolicyStats) core.PolicyStats {
	out := core.PolicyStats{
		RefreshesRequested: s.RefreshesRequested + o.RefreshesRequested,
		CounterReads:       s.CounterReads + o.CounterReads,
		CounterWrites:      s.CounterWrites + o.CounterWrites,
		AccessResets:       s.AccessResets + o.AccessResets,
		SkippedIndexings:   s.SkippedIndexings + o.SkippedIndexings,
		MaxPendingPerTick:  s.MaxPendingPerTick,
		DisableSwitches:    s.DisableSwitches + o.DisableSwitches,
		EnableSwitches:     s.EnableSwitches + o.EnableSwitches,
		TimeDisabled:       s.TimeDisabled + o.TimeDisabled,
		RefreshesPostponed: s.RefreshesPostponed + o.RefreshesPostponed,
		RefreshesPulledIn:  s.RefreshesPulledIn + o.RefreshesPulledIn,
		RefreshesForced:    s.RefreshesForced + o.RefreshesForced,
		MaxRefreshDeficit:  s.MaxRefreshDeficit,

		BloomLookups:        s.BloomLookups + o.BloomLookups,
		BloomFalsePositives: s.BloomFalsePositives + o.BloomFalsePositives,
	}
	if o.MaxPendingPerTick > out.MaxPendingPerTick {
		out.MaxPendingPerTick = o.MaxPendingPerTick
	}
	if o.MaxRefreshDeficit > out.MaxRefreshDeficit {
		out.MaxRefreshDeficit = o.MaxRefreshDeficit
	}
	return out
}

func refBreakdownAdd(b, o power.Breakdown) power.Breakdown {
	return power.Breakdown{
		Background:     b.Background + o.Background,
		ActPre:         b.ActPre + o.ActPre,
		Read:           b.Read + o.Read,
		Write:          b.Write + o.Write,
		RefreshArray:   b.RefreshArray + o.RefreshArray,
		RefreshBus:     b.RefreshBus + o.RefreshBus,
		RefreshCounter: b.RefreshCounter + o.RefreshCounter,
	}
}
