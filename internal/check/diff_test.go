package check

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"smartrefresh/internal/memctrl"
)

// Two results that differ in one nested field diff to that field alone,
// named by its path; equal results diff to nothing.
func TestFieldDiffNamesNestedLeaf(t *testing.T) {
	var a memctrl.Results
	a.Requests, a.Module.Activates, a.Policy.RefreshesRequested = 40, 7, 9
	b := a
	if d := fieldDiff(a, b); d != "" {
		t.Fatalf("equal results diff to %q", d)
	}
	b.Module.Activates = 8
	if d, want := fieldDiff(a, b), "Module.Activates: 7 != 8"; d != want {
		t.Fatalf("diff %q, want %q", d, want)
	}
	b.Energy.RefreshArray = 1.5
	if d, want := fieldDiff(a, b), "Module.Activates: 7 != 8; Energy.RefreshArray: 0 != 1.5"; d != want {
		t.Fatalf("diff %q, want %q", d, want)
	}
}

// An outcome's embedded run is named by its fields, a vault's results by
// index, and slices of different lengths at the slice.
func TestFieldDiffOutcomePaths(t *testing.T) {
	sc := NewVaultScenario(1)
	a := handVaultOutcome(sc)
	b := handVaultOutcome(sc)
	b.Per = append([]memctrl.Results(nil), a.Per...)
	b.Per[1].RowHits++
	b.RetentionErr = "late"
	want := `RetentionErr: "" != "late"; Per[1].RowHits: 0 != 1`
	if d := fieldDiff(a, b); d != want {
		t.Fatalf("diff %q, want %q", d, want)
	}
	b = handVaultOutcome(sc)
	b.Per = b.Per[:1]
	if d, want := fieldDiff(a, b), fmt.Sprintf("Per: len %d != len 1", len(a.Per)); d != want {
		t.Fatalf("diff %q, want %q", d, want)
	}
	b.Per = nil
	if d, want := fieldDiff(a, b), fmt.Sprintf("Per: len %d != nil", len(a.Per)); d != want {
		t.Fatalf("diff %q, want %q", d, want)
	}
	if !reflect.DeepEqual(a, handVaultOutcome(sc)) || fieldDiff(a, handVaultOutcome(sc)) != "" {
		t.Fatal("equal outcomes diff")
	}
}

// The vault-aggregation detail names the one field the aggregate and the
// fold disagree on, not both whole results.
func TestVaultAggregationDetailNamesField(t *testing.T) {
	sc := NewVaultScenario(1)
	out := handVaultOutcome(sc)
	fold := out.Res.RefreshesDroppedSelfRefresh
	out.Res.RefreshesDroppedSelfRefresh++
	for _, v := range outcomeViolations(sc, out) {
		if v.Invariant != "vault-aggregation" {
			continue
		}
		want := fmt.Sprintf("RefreshesDroppedSelfRefresh: %d != %d", fold+1, fold)
		if !strings.HasSuffix(v.Detail, want) || strings.Contains(v.Detail, "Requests") {
			t.Fatalf("detail %q, want it to end %q and name nothing else", v.Detail, want)
		}
		return
	}
	t.Fatal("no vault-aggregation violation")
}
