package dram

import (
	"testing"
	"testing/quick"
)

// table1Geom2GB mirrors Table 1 of the paper for the 2 GB module.
func table1Geom2GB() Geometry {
	return Geometry{
		Channels: 1, Ranks: 2, Banks: 4, Rows: 16384, Columns: 2048,
		DataWidthBits: 72, BurstLength: 4, DevicesPerRank: 18,
	}
}

// table2Geom3D mirrors Table 2 for the 64 MB 3D DRAM cache.
func table2Geom3D() Geometry {
	return Geometry{
		Channels: 1, Ranks: 1, Banks: 4, Rows: 16384, Columns: 128,
		DataWidthBits: 72, BurstLength: 4, DevicesPerRank: 2,
	}
}

func TestGeometryTable1TotalRows(t *testing.T) {
	g := table1Geom2GB()
	// Section 4.7: 4 banks * 2 ranks * 16384 rows = 131,072 counters.
	if got := g.TotalRows(); got != 131072 {
		t.Fatalf("TotalRows = %d, want 131072", got)
	}
}

func TestGeometryTable1Capacity(t *testing.T) {
	g := table1Geom2GB()
	// 2048 columns * 64 data bits = 16 KB data per row; 131072 rows = 2 GB.
	if got := g.DataRowBytes(); got != 16384 {
		t.Fatalf("DataRowBytes = %d, want 16384", got)
	}
	if got := g.CapacityBytes(); got != 2<<30 {
		t.Fatalf("CapacityBytes = %d, want 2 GiB", got)
	}
}

func TestGeometryTable2Capacity(t *testing.T) {
	g := table2Geom3D()
	// 128 columns * 64 data bits = 1 KB data per row; 65536 rows = 64 MB.
	if got := g.TotalRows(); got != 65536 {
		t.Fatalf("TotalRows = %d, want 65536", got)
	}
	if got := g.CapacityBytes(); got != 64<<20 {
		t.Fatalf("CapacityBytes = %d, want 64 MiB", got)
	}
}

func TestGeometryRowBytesIncludesECC(t *testing.T) {
	g := table1Geom2GB()
	if got := g.RowBytes(); got != 2048*72/8 {
		t.Fatalf("RowBytes = %d", got)
	}
}

func TestGeometryAccessBytes(t *testing.T) {
	g := table1Geom2GB()
	// Burst of 4 beats * 8 data bytes per beat = 32 bytes.
	if got := g.AccessBytes(); got != 32 {
		t.Fatalf("AccessBytes = %d, want 32", got)
	}
}

func TestGeometryValidate(t *testing.T) {
	g := table1Geom2GB()
	if err := g.Validate(); err != nil {
		t.Fatalf("valid geometry rejected: %v", err)
	}
	bad := g
	bad.Rows = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero rows accepted")
	}
	bad = g
	bad.Rows = 1000 // not a power of two
	if err := bad.Validate(); err == nil {
		t.Error("non-power-of-two rows accepted")
	}
	bad = g
	bad.DevicesPerRank = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative devices accepted")
	}
}

func TestRowIDFlatRoundTrip(t *testing.T) {
	// Random valid geometries (Validate requires every dimension to be a
	// power of two), with unequal widths so a swapped shift or mask shows.
	f := func(lc, lr, lb, lrow uint8, c, r, b, row uint32) bool {
		g := table1Geom2GB()
		g.Channels, g.Ranks, g.Banks, g.Rows = 1<<(lc%5), 1<<(lr%4), 1<<(lb%6), 1<<(lrow%17)
		if err := g.Validate(); err != nil {
			t.Log(err)
			return false
		}
		id := RowID{
			Channel: int(c) % g.Channels,
			Rank:    int(r) % g.Ranks,
			Bank:    int(b) % g.Banks,
			Row:     int(row) % g.Rows,
		}
		flat := id.Flat(&g)
		if flat < 0 || flat >= g.TotalRows() {
			return false
		}
		bank, inBank := SplitRow(&g, flat)
		return RowFromFlat(&g, flat) == id && RowInBank(&g, bank, inBank) == id && bank*g.Rows+inBank == flat
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestRowIDFlatDense(t *testing.T) {
	g := Geometry{Channels: 2, Ranks: 2, Banks: 2, Rows: 4, Columns: 8,
		DataWidthBits: 72, BurstLength: 4, DevicesPerRank: 2}
	seen := make(map[int]bool)
	for c := 0; c < g.Channels; c++ {
		for r := 0; r < g.Ranks; r++ {
			for b := 0; b < g.Banks; b++ {
				for row := 0; row < g.Rows; row++ {
					id := RowID{Channel: c, Rank: r, Bank: b, Row: row}
					f := id.Flat(&g)
					if f < 0 || f >= g.TotalRows() || seen[f] {
						t.Fatalf("Flat not a bijection at %+v -> %d", id, f)
					}
					seen[f] = true
				}
			}
		}
	}
	if len(seen) != g.TotalRows() {
		t.Fatalf("covered %d of %d", len(seen), g.TotalRows())
	}
}

// The flat bank index, (channel*Ranks+rank)*Banks+bank, is dense over
// [0, TotalBanks()), and RowInBank decodes it.
func TestBankIDFlat(t *testing.T) {
	g := table1Geom2GB()
	g.Channels = 2
	seen := make(map[int]bool)
	for c := 0; c < g.Channels; c++ {
		for r := 0; r < g.Ranks; r++ {
			for b := 0; b < g.Banks; b++ {
				f := (c*g.Ranks+r)*g.Banks + b
				if f < 0 || f >= g.TotalBanks() || seen[f] {
					t.Fatalf("bank flat collision at %d/%d/%d", c, r, b)
				}
				seen[f] = true
				if got, want := RowInBank(&g, f, 7), (RowID{c, r, b, 7}); got != want {
					t.Errorf("RowInBank(%d, 7) = %v, want %v", f, got, want)
				}
			}
		}
	}
}

func TestRowIDString(t *testing.T) {
	s := RowID{Channel: 0, Rank: 1, Bank: 2, Row: 37}.String()
	if s != "ch0/rk1/bk2/row37" {
		t.Errorf("String() = %q", s)
	}
}

// hmcGeom8 is an 8-vault HMC-style stack: 8 channels (one per vault),
// 4 layers contributing one rank each.
func hmcGeom8() Geometry {
	return Geometry{
		Channels: 8, Ranks: 4, Banks: 2, Rows: 4096, Columns: 128,
		DataWidthBits: 72, BurstLength: 4, DevicesPerRank: 2,
		Vaults: 8, Layers: 4,
	}
}

func TestGeometryValidateBounds(t *testing.T) {
	base := table1Geom2GB()
	cases := []struct {
		name   string
		mutate func(*Geometry)
		ok     bool
	}{
		{"table1", func(*Geometry) {}, true},
		{"vaulted-hmc", func(g *Geometry) { *g = hmcGeom8() }, true},
		// Row-index space boundary: 2^62 total rows is representable,
		// one more doubling (2^63) wraps int64 negative.
		{"rows-2^62", func(g *Geometry) {
			*g = Geometry{Channels: 1 << 21, Ranks: 1 << 21, Banks: 1 << 20, Rows: 1,
				Columns: 1, DataWidthBits: 1, BurstLength: 1, DevicesPerRank: 1}
		}, true},
		{"rows-2^63-overflow", func(g *Geometry) {
			*g = Geometry{Channels: 1 << 21, Ranks: 1 << 21, Banks: 1 << 21, Rows: 1,
				Columns: 1, DataWidthBits: 1, BurstLength: 1, DevicesPerRank: 1}
		}, false},
		// Row product fits but rows x columns x width overflows int64.
		{"capacity-overflow", func(g *Geometry) {
			*g = Geometry{Channels: 1, Ranks: 1, Banks: 1, Rows: 1 << 40,
				Columns: 1 << 20, DataWidthBits: 16, BurstLength: 1, DevicesPerRank: 1}
		}, false},
		{"vaults-not-pow2", func(g *Geometry) { g.Vaults = 3; g.Channels = 8 }, false},
		{"vaults-exceed-channels", func(g *Geometry) { g.Vaults = 4 }, false}, // 1 channel / 4 vaults
		{"vaults-negative", func(g *Geometry) { g.Vaults = -1 }, false},
		{"layers-rank-mismatch", func(g *Geometry) { g.Layers = 4 }, false}, // 2 ranks != 4 layers
		{"layers-negative", func(g *Geometry) { g.Layers = -2 }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := base
			tc.mutate(&g)
			err := g.Validate()
			if tc.ok && err != nil {
				t.Fatalf("Validate() = %v, want ok", err)
			}
			if !tc.ok && err == nil {
				t.Fatalf("Validate() accepted %+v", g)
			}
		})
	}
}

func TestGeometryPerVault(t *testing.T) {
	g := hmcGeom8()
	if !g.Vaulted() || g.VaultCount() != 8 || g.LayerCount() != 4 {
		t.Fatalf("Vaulted/VaultCount/LayerCount = %v/%d/%d", g.Vaulted(), g.VaultCount(), g.LayerCount())
	}
	pv := g.PerVault()
	if err := pv.Validate(); err != nil {
		t.Fatalf("PerVault().Validate() = %v", err)
	}
	if pv.Channels != 1 || pv.Vaults != 0 || pv.Layers != 0 {
		t.Fatalf("PerVault = %+v", pv)
	}
	if pv.TotalRows()*g.VaultCount() != g.TotalRows() {
		t.Fatalf("per-vault rows %d x %d vaults != total %d", pv.TotalRows(), g.VaultCount(), g.TotalRows())
	}

	mono := table1Geom2GB()
	if mono.Vaulted() || mono.VaultCount() != 1 || mono.LayerCount() != 1 {
		t.Fatal("monolithic geometry misreports stacking")
	}
	if mono.PerVault() != mono {
		t.Fatal("PerVault of monolithic geometry should be identity")
	}
}
