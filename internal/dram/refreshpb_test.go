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
	b0 := BankID{Channel: 0, Rank: 0, Bank: 0}
	b1 := BankID{Channel: 0, Rank: 0, Bank: 1}

	r1 := m.RefreshBank(0, b0)
	if r1.Kind != RefreshPerBank {
		t.Fatalf("kind = %v", r1.Kind)
	}
	if r1.Row.Row != 0 {
		t.Errorf("first REFpb row = %d, want counter row 0", r1.Row.Row)
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
	r2 := m.RefreshNextCBR(r1.Done, b0)
	if r2.Row.Row != 1 {
		t.Errorf("CBR after REFpb refreshed row %d, want 1", r2.Row.Row)
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
	bank := BankID{Channel: 0, Rank: 0, Bank: 0}
	// Open a page in a distant subarray (counter is at row 0).
	far := Address{RowID: RowID{0, 0, 0, m.subRows * 3}, Column: 0}
	a0 := m.Access(0, far, false)

	ref := m.RefreshBankOverlapped(a0.Done, bank)
	if ref.Done <= ref.Issue {
		t.Fatal("overlapped refresh has no duration")
	}
	if ref.ClosedOpenRow {
		t.Error("overlapped refresh closed a page in another subarray")
	}
	if got := m.OpenRow(bank); got != far.Row {
		t.Errorf("open row after overlapped refresh = %d, want %d", got, far.Row)
	}
	// A row hit to the open page proceeds while the refresh is in flight.
	hit := m.Access(ref.Issue, far, false)
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
	bank := BankID{Channel: 0, Rank: 0, Bank: 0}
	ref := m.RefreshBankOverlapped(0, bank) // refreshes counter row 0
	// Demand to the refreshing subarray serializes behind the refresh...
	same := Address{RowID: RowID{0, 0, 0, 1}, Column: 0}
	r := m.Access(ref.Issue, same, false)
	if r.Issue < ref.Done {
		t.Errorf("same-subarray access issued at %v, before refresh end %v", r.Issue, ref.Done)
	}

	m2 := testModule()
	ref = m2.RefreshBankOverlapped(0, bank)
	// ...while demand to another subarray starts underneath it.
	other := Address{RowID: RowID{0, 0, 0, m2.subRows * 5}, Column: 0}
	r = m2.Access(ref.Issue, other, false)
	if r.Issue >= ref.Done {
		t.Errorf("other-subarray access issued at %v, after refresh end %v", r.Issue, ref.Done)
	}
}

func TestRefreshBankOverlappedSameSubarrayConflictClosesPage(t *testing.T) {
	m := testModule()
	bank := BankID{Channel: 0, Rank: 0, Bank: 0}
	near := Address{RowID: RowID{0, 0, 0, 1}, Column: 0} // same subarray as counter row 0
	a0 := m.Access(0, near, false)

	ref := m.RefreshBankOverlapped(a0.Done, bank)
	if !ref.ClosedOpenRow || ref.ClosedRow != near.Row {
		t.Errorf("same-subarray overlap did not close the page: %+v", ref)
	}
	if got := m.OpenRow(bank); got != -1 {
		t.Errorf("bank still open after conflict overlap: row %d", got)
	}
	if m.Stats().RefreshConflictOps != 1 {
		t.Errorf("conflict not counted: %+v", m.Stats())
	}
}
