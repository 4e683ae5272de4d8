package experiment

import (
	"context"
	"reflect"
	"testing"

	"smartrefresh/internal/config"
	"smartrefresh/internal/memctrl"
	"smartrefresh/internal/sim"
	"smartrefresh/internal/trace"
	"smartrefresh/internal/workload"
)

// streamRecords is gcc's main-memory stream over its first ms
// milliseconds.
func streamRecords(t *testing.T, ms int) []trace.Record {
	t.Helper()
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	src := trace.NewLimit(prof.NewSource(false), sim.Time(ms)*sim.Millisecond)
	var recs []trace.Record
	for rec, ok := src.Next(); ok; rec, ok = src.Next() {
		recs = append(recs, rec)
	}
	return recs
}

// An open-ended stream with no warmup is the whole-run result of one
// controller fed every record and closed one refresh interval after the
// last: the zero Snapshot is the warm state, so nothing is advanced or
// finalised at t=0.
func TestRunStreamOpenEndMatchesWholeRun(t *testing.T) {
	cfg := config.Table1_2GB()
	recs := streamRecords(t, 4)
	got, err := RunStream(context.Background(), cfg, PolicySmart, RunOptions{CheckRetention: true},
		Stream{Source: trace.NewSliceSource(recs)})
	if err != nil {
		t.Fatal(err)
	}

	entry := PolicySmart.Entry()
	ctl := memctrl.MustNew(cfg, entry.New(cfg, nil), memctrl.Options{
		CheckRetention: true,
		RetentionSlack: entry.Slack(cfg, false),
	})
	for _, rec := range recs {
		ctl.Submit(memctrl.Request{Time: rec.Time, Addr: rec.Addr, Write: rec.Write})
	}
	end := recs[len(recs)-1].Time + cfg.RefreshInterval()
	ctl.Finish(end)

	if got.Window != end {
		t.Errorf("window %v, want %v", got.Window, end)
	}
	if want := ctl.Results(end); !reflect.DeepEqual(got.Results, want) {
		t.Errorf("stream results differ from the whole-run results:\n got %+v\nwant %+v", got.Results, want)
	}
	if want := []uint64{ctl.RefreshesDroppedSelfRefresh()}; !reflect.DeepEqual(got.Dropped, want) {
		t.Errorf("dropped %v, want %v", got.Dropped, want)
	}
}

// A vaulted stream runs through the vault array: one dropped count and
// one result per vault, identical at every shard count.
func TestRunStreamVaultedAcrossShards(t *testing.T) {
	cfg := config.HMC8Vault()
	recs := streamRecords(t, 4)
	var ref StreamResult
	for _, shards := range []int{1, 2, 8} {
		got, err := RunStream(context.Background(), cfg, PolicySmart, RunOptions{Shards: shards},
			Stream{Source: trace.NewSliceSource(recs)})
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Vaults) != cfg.Geometry.VaultCount() || len(got.Dropped) != cfg.Geometry.VaultCount() {
			t.Fatalf("shards=%d: %d vault results, %d dropped counts, want %d each",
				shards, len(got.Vaults), len(got.Dropped), cfg.Geometry.VaultCount())
		}
		if shards == 1 {
			ref = got
		} else if !reflect.DeepEqual(got, ref) {
			t.Errorf("shards=%d differs from serial", shards)
		}
	}
	var accesses uint64
	for _, r := range ref.Vaults {
		accesses += r.Module.Accesses
	}
	if accesses != uint64(len(recs)) || ref.Results.Module.Accesses != accesses {
		t.Errorf("vault accesses sum to %d, stack %d, want %d", accesses, ref.Results.Module.Accesses, len(recs))
	}
}

// A stream already is the DRAM's access stream: the 3D-cache front end
// is rejected, not silently dropped.
func TestRunStreamRejectsStacked(t *testing.T) {
	_, err := RunStream(context.Background(), config.Table2_3D32(), PolicySmart, RunOptions{Stacked: true},
		Stream{Source: trace.NewSliceSource(nil)})
	if err == nil {
		t.Fatal("Stacked stream accepted")
	}
}
