package dram

import (
	"testing"

	"smartrefresh/internal/sim"
)

func TestPerBankRefreshTimingDerivation(t *testing.T) {
	tt := DDR2_667(64 * sim.Millisecond)
	if got := tt.PerBankRefreshDuration(); got != 70*sim.Nanosecond {
		t.Errorf("DDR2 PerBankRefreshDuration = %v, want 70ns", got)
	}
	// Zeroed fields derive from the per-row cost.
	tt.TRFCpb = 0
	if err := tt.Validate(); err != nil {
		t.Fatalf("zero TRFCpb rejected: %v", err)
	}
	if got := tt.PerBankRefreshDuration(); got != tt.TRefreshRow {
		t.Errorf("derived PerBankRefreshDuration = %v, want %v", got, tt.TRefreshRow)
	}
}

func TestPerBankRefreshTimingValidate(t *testing.T) {
	tt := DDR2_667(64 * sim.Millisecond)
	tt.TRFCpb = -1
	if err := tt.Validate(); err == nil {
		t.Error("negative TRFCpb accepted")
	}
	tt = DDR2_667(64 * sim.Millisecond)
	tt.TRFCpb = tt.TRefreshRow / 2
	if err := tt.Validate(); err == nil {
		t.Error("TRFCpb below TRefreshRow accepted")
	}
}

func TestRefreshBankWalksCounterAndOccupiesOneBank(t *testing.T) {
	m := testModule()
	const b0, b1 = 0, 1

	r1 := m.RefreshBank(0, b0, false)
	if r1.Row != 0 {
		t.Errorf("first REFpb row = %d, want counter row 0", r1.Row)
	}
	if got := m.CBRCounter(b0); got != 1 {
		t.Errorf("counter after REFpb = %d, want 1", got)
	}
	// Occupancy is the per-bank duration, quantised up to the command clock.
	if got, want := r1.Done-r1.Issue, m.Timing().PerBankRefreshDuration(); got < want || got >= want+m.Timing().TCK {
		t.Errorf("REFpb occupancy = %v, want %v (clock-quantised)", got, want)
	}
	// Only the refreshed bank is occupied.
	if ready := m.BankReadyAt(b0); ready != r1.Done {
		t.Errorf("refreshed bank ready at %v, want %v", ready, r1.Done)
	}
	if ready := m.BankReadyAt(b1); ready != 0 {
		t.Errorf("sibling bank ready at %v, want 0", ready)
	}
	// The per-bank command walks the same internal counter as CBR.
	r2 := m.RefreshCBR(r1.Done, b0)
	if r2.Row != 1 {
		t.Errorf("CBR after REFpb refreshed row %d, want 1", r2.Row)
	}

	st := m.Stats()
	if st.RefreshOps != 2 || st.RefreshPerBankOps != 1 || st.RefreshCBROps != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.RefreshOverlapOps != 0 {
		t.Errorf("blocking REFpb counted as overlapped: %+v", st)
	}
}

func TestRefreshBankOverlappedKeepsOtherSubarraysServing(t *testing.T) {
	m := testModule()
	const bank = 0
	// Open a page in a distant subarray (counter is at row 0).
	far := m.subRows * 3
	a0 := access(m, 0, bank, far, false)

	ref := m.RefreshBank(a0.Done, bank, true)
	if ref.Done <= ref.Issue {
		t.Fatal("overlapped refresh has no duration")
	}
	if ref.ClosedRow != -1 {
		t.Error("overlapped refresh closed a page in another subarray")
	}
	if got := m.OpenRow(bank); got != far {
		t.Errorf("open row after overlapped refresh = %d, want %d", got, far)
	}
	// A row hit to the open page proceeds while the refresh is in flight.
	hit := access(m, ref.Issue, bank, far, false)
	if !hit.RowHit {
		t.Error("demand row hit blocked by overlapped refresh")
	}
	if hit.Issue >= ref.Done {
		t.Errorf("row hit issued at %v, after refresh end %v", hit.Issue, ref.Done)
	}
	st := m.Stats()
	if st.RefreshOverlapOps != 1 || st.RefreshPerBankOps != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRefreshBankOverlappedBlocksRefreshingSubarray(t *testing.T) {
	m := testModule()
	const bank = 0
	ref := m.RefreshBank(0, bank, true) // refreshes counter row 0
	// Demand to the refreshing subarray serializes behind the refresh...
	r := access(m, ref.Issue, bank, 1, false)
	if r.Issue < ref.Done {
		t.Errorf("same-subarray access issued at %v, before refresh end %v", r.Issue, ref.Done)
	}

	m2 := testModule()
	ref = m2.RefreshBank(0, bank, true)
	// ...while demand to another subarray starts underneath it.
	r = access(m2, ref.Issue, bank, m2.subRows*5, false)
	if r.Issue >= ref.Done {
		t.Errorf("other-subarray access issued at %v, after refresh end %v", r.Issue, ref.Done)
	}
}

func TestRefreshBankOverlappedSameSubarrayConflictClosesPage(t *testing.T) {
	m := testModule()
	const bank, near = 0, 1 // row 1 shares counter row 0's subarray
	a0 := access(m, 0, bank, near, false)

	ref := m.RefreshBank(a0.Done, bank, true)
	if ref.ClosedRow != near {
		t.Errorf("same-subarray overlap did not close the page: %+v", ref)
	}
	if got := m.OpenRow(bank); got != -1 {
		t.Errorf("bank still open after conflict overlap: row %d", got)
	}
	if m.Stats().RefreshConflictOps != 1 {
		t.Errorf("conflict not counted: %+v", m.Stats())
	}
}
