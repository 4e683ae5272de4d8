package config

import (
	"math"
	"testing"

	"smartrefresh/internal/sim"
)

func TestAllPresetsValid(t *testing.T) {
	for name, c := range Presets() {
		if err := c.Validate(); err != nil {
			t.Errorf("preset %s invalid: %v", name, err)
		}
		if c.Name != name {
			t.Errorf("preset map key %q != name %q", name, c.Name)
		}
	}
}

func TestTable1_2GBMatchesPaper(t *testing.T) {
	c := Table1_2GB()
	g := c.Geometry
	if g.Rows != 16384 || g.Banks != 4 || g.Ranks != 2 || g.Columns != 2048 || g.DataWidthBits != 72 {
		t.Errorf("Table 1 geometry mismatch: %+v", g)
	}
	if c.Timing.RefreshInterval != 64*sim.Millisecond {
		t.Errorf("refresh interval = %v", c.Timing.RefreshInterval)
	}
	if got := g.CapacityBytes(); got != 2<<30 {
		t.Errorf("capacity = %d, want 2 GiB", got)
	}
	// Figure 6 baseline: 2,048,000 refreshes per second.
	if got := c.BaselineRefreshesPerSecond(); math.Abs(got-2048000) > 1e-6 {
		t.Errorf("baseline refreshes/s = %v, want 2048000", got)
	}
}

func TestTable1_4GBMatchesPaper(t *testing.T) {
	c := Table1_4GB()
	if c.Geometry.Banks != 8 {
		t.Errorf("4GB banks = %d, want 8", c.Geometry.Banks)
	}
	if got := c.Geometry.CapacityBytes(); got != 4<<30 {
		t.Errorf("capacity = %d, want 4 GiB", got)
	}
	// Figure 9 baseline: 4,096,000 refreshes per second.
	if got := c.BaselineRefreshesPerSecond(); math.Abs(got-4096000) > 1e-6 {
		t.Errorf("baseline refreshes/s = %v, want 4096000", got)
	}
	if c.Power.Geometry.Banks != 8 {
		t.Error("power model geometry not updated for 4GB")
	}
}

func TestTable2_3DMatchesPaper(t *testing.T) {
	c64 := Table2_3D64(64 * sim.Millisecond)
	g := c64.Geometry
	if g.Rows != 16384 || g.Banks != 4 || g.Ranks != 1 || g.Columns != 128 {
		t.Errorf("Table 2 geometry mismatch: %+v", g)
	}
	if got := g.CapacityBytes(); got != 64<<20 {
		t.Errorf("capacity = %d, want 64 MiB", got)
	}
	// Figure 12 baseline: 1,024,000 refreshes per second at 64 ms.
	if got := c64.BaselineRefreshesPerSecond(); math.Abs(got-1024000) > 1e-6 {
		t.Errorf("64ms baseline = %v, want 1024000", got)
	}
	// Figure 15 baseline: 2,048,000 at 32 ms.
	c32 := Table2_3D32()
	if got := c32.BaselineRefreshesPerSecond(); math.Abs(got-2048000) > 1e-6 {
		t.Errorf("32ms baseline = %v, want 2048000", got)
	}
	if c32.Timing.RefreshInterval != 32*sim.Millisecond {
		t.Errorf("32ms preset interval = %v", c32.Timing.RefreshInterval)
	}
	if c64.Name == c32.Name {
		t.Error("presets share a name")
	}
}

func TestValidateCatchesBadBundle(t *testing.T) {
	c := Table1_2GB()
	c.Name = ""
	if c.Validate() == nil {
		t.Error("empty name accepted")
	}
	c = Table1_2GB()
	c.Smart.Segments = 3 // 131072 % 3 != 0 and queue < segments invalid
	c.Smart.QueueDepth = 3
	if c.Validate() == nil {
		t.Error("indivisible segments accepted")
	}
}

func TestTable1L2MatchesPaper(t *testing.T) {
	l2 := Table1L2()
	if err := l2.Validate(); err != nil {
		t.Fatalf("L2 invalid: %v", err)
	}
	if l2.SizeBytes != 1<<20 || l2.Ways != 8 {
		t.Errorf("L2 = %+v, want 1MB 8-way", l2)
	}
}

func TestTable2_3DCacheShape(t *testing.T) {
	c := Table2_3DCache()
	if err := c.Validate(); err != nil {
		t.Fatalf("3D cache invalid: %v", err)
	}
	if c.SizeBytes != 64<<20 || c.Ways != 1 {
		t.Errorf("3D cache = %+v, want 64MB direct mapped", c)
	}
}

func TestCacheValidateRejects(t *testing.T) {
	bad := CacheConfig{Name: "x", SizeBytes: 1000, LineBytes: 64, Ways: 2}
	if bad.Validate() == nil {
		t.Error("size not multiple of line accepted")
	}
	bad = CacheConfig{Name: "x", SizeBytes: 3 << 10, LineBytes: 64, Ways: 2}
	if bad.Validate() == nil {
		t.Error("non-power-of-two sets accepted")
	}
	bad = CacheConfig{Name: "x", SizeBytes: 0, LineBytes: 64, Ways: 1}
	if bad.Validate() == nil {
		t.Error("zero size accepted")
	}
}

// TestCacheValidateShapeBoundaries pins both sides of the line-size and
// address-limit rules: a power-of-two line, and at most 2^33 bytes a way
// so that the tag store's limit of 2^30 ways' spans fits in 64 bits. Any
// smaller shape holds its 30-bit tags, down to one set of 1-byte lines.
func TestCacheValidateShapeBoundaries(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  CacheConfig
		ok   bool
	}{
		{"48-byte line", CacheConfig{SizeBytes: 48 * 64, LineBytes: 48, Ways: 1}, false},
		{"96-byte line", CacheConfig{SizeBytes: 96 * 64, LineBytes: 96, Ways: 2}, false},
		{"32-byte line", CacheConfig{SizeBytes: 32 * 64, LineBytes: 32, Ways: 1}, true},
		{"1-byte line", CacheConfig{SizeBytes: 64, LineBytes: 1, Ways: 1}, true},
		{"1 set of 1-byte lines", CacheConfig{SizeBytes: 4, LineBytes: 1, Ways: 4}, true},
		{"2 sets of 1-byte lines", CacheConfig{SizeBytes: 4, LineBytes: 1, Ways: 2}, true},
		{"1 set of 2-byte lines", CacheConfig{SizeBytes: 2, LineBytes: 2, Ways: 1}, true},
		{"fully associative", CacheConfig{SizeBytes: 4 << 10, LineBytes: 64, Ways: 64}, true},
		{"2^33 bytes a way", CacheConfig{SizeBytes: 1 << 33, LineBytes: 64, Ways: 1}, true},
		{"2^33 bytes in each of 2 ways", CacheConfig{SizeBytes: 1 << 34, LineBytes: 64, Ways: 2}, true},
		{"2^34 bytes a way", CacheConfig{SizeBytes: 1 << 34, LineBytes: 64, Ways: 1}, false},
		{"2^34 bytes of 1-byte lines", CacheConfig{SizeBytes: 1 << 34, LineBytes: 1, Ways: 1}, false},
	} {
		if err := tc.cfg.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestCounterAreaMatchesSection47(t *testing.T) {
	// Ties the preset to the section 4.7 arithmetic: 131,072 counters of
	// 3 bits = 48 KB.
	c := Table1_2GB()
	if got := c.Geometry.TotalRows() * c.Smart.CounterBits / (8 * 1024); got != 48 {
		t.Errorf("counter area = %d KB, want 48", got)
	}
}
