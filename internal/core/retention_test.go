package core

import (
	"math"
	"strings"
	"testing"

	"smartrefresh/internal/dram"
	"smartrefresh/internal/sim"
)

func TestRetentionCheckerNoViolation(t *testing.T) {
	g := smallGeom()
	chk := NewRetentionChecker(g, testInterval, nil)
	chk.OnRestore(30*sim.Millisecond, 0, 1)
	chk.OnRestore(90*sim.Millisecond, 0, 1)
	if chk.Violations() != 0 {
		t.Fatalf("violations = %d", chk.Violations())
	}
	if chk.WorstGap() != 60*sim.Millisecond {
		t.Errorf("worst gap = %v", chk.WorstGap())
	}
	if chk.Err() != nil {
		t.Errorf("Err = %v", chk.Err())
	}
}

func TestRetentionCheckerDetectsViolation(t *testing.T) {
	g := smallGeom()
	chk := NewRetentionChecker(g, testInterval, nil)
	chk.OnRestore(65*sim.Millisecond, 1, 2) // 65ms > 64ms deadline
	if chk.Violations() != 1 {
		t.Fatalf("violations = %d, want 1", chk.Violations())
	}
	// The report names the row by its coordinates.
	if err := chk.Err(); err == nil || !strings.Contains(err.Error(), "row "+dram.RowInBank(&g, 1, 2).String()+" gap") {
		t.Errorf("Err() = %v, want it to name %v", err, dram.RowInBank(&g, 1, 2))
	}
}

func TestRetentionCheckerEndCheck(t *testing.T) {
	g := smallGeom()
	chk := NewRetentionChecker(g, testInterval, nil)
	// No restores at all; at 100ms every row is stale.
	chk.CheckEnd(100 * sim.Millisecond)
	if chk.Violations() != uint64(g.TotalRows()) {
		t.Fatalf("violations = %d, want %d", chk.Violations(), g.TotalRows())
	}
}

func TestRetentionCheckerEndCheckClean(t *testing.T) {
	g := smallGeom()
	chk := NewRetentionChecker(g, testInterval, nil)
	chk.CheckEnd(10 * sim.Millisecond)
	if chk.Violations() != 0 {
		t.Fatalf("violations = %d, want 0", chk.Violations())
	}
}

func TestRetentionCheckerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-positive deadline did not panic")
		}
	}()
	NewRetentionChecker(smallGeom(), 0, nil)
}

func TestOptimalityFormula(t *testing.T) {
	// Section 4.4: 2-bit counters 75%, 3-bit 87.5%.
	if got := Optimality(2); got != 0.75 {
		t.Errorf("Optimality(2) = %v, want 0.75", got)
	}
	if got := Optimality(3); got != 0.875 {
		t.Errorf("Optimality(3) = %v, want 0.875", got)
	}
	if got := Optimality(4); got != 0.9375 {
		t.Errorf("Optimality(4) = %v", got)
	}
	for bits := 1; bits < 10; bits++ {
		if o := Optimality(bits); o <= 0 || o >= 1 {
			t.Errorf("Optimality(%d) = %v outside (0,1)", bits, o)
		}
	}
}

func TestOptimalityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Optimality(0) did not panic")
		}
	}()
	Optimality(0)
}

func TestCounterAreaFormula(t *testing.T) {
	// Section 4.7: 2 GB module, 4 banks * 2 ranks * 16384 rows * 3 bits
	// = 48 KB.
	g := paperGeom2GB()
	if got := CounterAreaKB(g, 3); got != 48 {
		t.Errorf("CounterAreaKB(2GB, 3) = %v, want 48", got)
	}
	// 32 GB (16x the rows at the same width): 768 KB.
	g32 := g
	g32.Rows = g.Rows * 16
	if got := CounterAreaKB(g32, 3); math.Abs(got-768) > 1e-9 {
		t.Errorf("CounterAreaKB(32GB, 3) = %v, want 768", got)
	}
}
