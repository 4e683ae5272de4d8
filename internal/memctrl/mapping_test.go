package memctrl

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"smartrefresh/internal/config"
	"smartrefresh/internal/dram"
)

func TestMapperCapacity(t *testing.T) {
	m := NewMapper(config.Table1_2GB().Geometry)
	if m.Capacity() != 2<<30 {
		t.Fatalf("capacity = %d", m.Capacity())
	}
	if m.BurstBytes() != 32 {
		t.Fatalf("burst bytes = %d", m.BurstBytes())
	}
}

func TestMapperValidCoordinates(t *testing.T) {
	g := config.Table1_2GB().Geometry
	m := NewMapper(g)
	for _, phys := range []uint64{0, 31, 32, 4095, 1 << 20, 1<<31 - 1, 1 << 31, 1<<40 + 12345, math.MaxUint64} {
		bank, row := m.Map(phys)
		if bank < 0 || bank >= g.TotalBanks() || row < 0 || row >= g.Rows {
			t.Errorf("Map(%d) = bank %d row %d, outside the geometry", phys, bank, row)
		}
	}
}

func TestMapperOpenPageLocality(t *testing.T) {
	g := config.Table1_2GB().Geometry
	m := NewMapper(g)
	// Consecutive lines within a 16 KB row-spread must land in the same
	// row with the open-page mapping.
	base := uint64(1 << 20)
	bank0, row0 := m.Map(base)
	rowSpan := uint64(g.DataRowBytes()) // bytes mapped before bank changes
	for off := uint64(0); off < rowSpan; off += uint64(m.BurstBytes()) {
		if bank, row := m.Map(base + off); bank != bank0 || row != row0 {
			t.Fatalf("offset %d changed row: bank %d row %d -> bank %d row %d", off, bank0, row0, bank, row)
		}
	}
	// The next line beyond must change the bank, not the row index.
	if bank, row := m.Map(base + rowSpan); bank == bank0 || row != row0 {
		t.Errorf("across the row boundary: bank %d row %d -> bank %d row %d", bank0, row0, bank, row)
	}
}

func TestMapperWrapsModuloCapacity(t *testing.T) {
	g := config.Table1_2GB().Geometry
	m := NewMapper(g)
	b0, r0 := m.Map(123456)
	if b1, r1 := m.Map(123456 + uint64(m.Capacity())); b0 != b1 || r0 != r1 {
		t.Error("addresses do not wrap modulo capacity")
	}
}

// Map wraps by dropping the bits above the row field, so a geometry
// whose fields do not span its capacity cannot be mapped: with 12-bit
// data a row holds 1.5 bytes a column, but a burst rounds to 4 bytes.
func TestMapperRejectsCapacityGap(t *testing.T) {
	g := config.Table1_2GB().Geometry
	g.DataWidthBits = 12
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "fields span") {
			t.Errorf("NewMapper on a %d-byte capacity its fields do not span: panic %q", g.CapacityBytes(), msg)
		}
	}()
	NewMapper(g)
}

// Property: Map takes a row-aligned address to the (bank, row) that
// Unmap takes back to it, and every (bank, row) to an address Map takes
// back to it.
func TestMapperRoundTripProperty(t *testing.T) {
	g := dram.Geometry{
		Channels: 2, Ranks: 2, Banks: 4, Rows: 64, Columns: 64,
		DataWidthBits: 72, BurstLength: 4, DevicesPerRank: 2,
	}
	m := NewMapper(g)
	f := func(raw uint64, bank, row uint16) bool {
		phys := (raw % uint64(m.Capacity())) &^ uint64(g.DataRowBytes()-1)
		b, r := int(bank)%g.TotalBanks(), int(row)%g.Rows
		gb, gr := m.Map(m.Unmap(b, r))
		return m.Unmap(m.Map(phys)) == phys && gb == b && gr == r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: distinct row-aligned addresses within capacity map to
// distinct rows, and they cover every row of the geometry.
func TestMapperInjective(t *testing.T) {
	g := dram.Geometry{
		Channels: 1, Ranks: 2, Banks: 2, Rows: 16, Columns: 32,
		DataWidthBits: 72, BurstLength: 4, DevicesPerRank: 2,
	}
	m := NewMapper(g)
	type loc struct{ bank, row int }
	seen := map[loc]uint64{}
	for phys := uint64(0); phys < uint64(m.Capacity()); phys += uint64(g.DataRowBytes()) {
		bank, row := m.Map(phys)
		if prev, dup := seen[loc{bank, row}]; dup {
			t.Fatalf("addresses %d and %d both map to bank %d row %d", prev, phys, bank, row)
		}
		seen[loc{bank, row}] = phys
	}
	if len(seen) != g.TotalBanks()*g.Rows {
		t.Errorf("row-aligned addresses reach %d rows, want %d", len(seen), g.TotalBanks()*g.Rows)
	}
}

// Map and Unmap are inverse on every preset geometry and on the share
// of it one vault controller maps: Unmap(b, r) is an address inside the
// capacity that Map takes back to (b, r), and Unmap(Map(a)) is a wrapped
// modulo capacity with the column and burst bits, the low log2
// DataRowBytes, cleared. Together they make Map a bijection between rows
// and row-aligned addresses.
func FuzzMapperRoundTrip(f *testing.F) {
	var geoms []dram.Geometry
	for _, c := range config.Presets() {
		geoms = append(geoms, c.Geometry, c.Geometry.PerVault())
	}
	mappers := make([]*Mapper, len(geoms))
	for i, g := range geoms {
		mappers[i] = NewMapper(g)
	}
	f.Add(uint64(0), uint64(0), uint64(0))
	f.Add(uint64(math.MaxUint64), uint64(math.MaxUint64), uint64(math.MaxUint64))
	f.Add(uint64(5), uint64(12345), uint64(1<<31+4095))
	f.Fuzz(func(t *testing.T, bank, row, addr uint64) {
		for i, m := range mappers {
			g := geoms[i]
			b, r := int(bank%uint64(g.TotalBanks())), int(row%uint64(g.Rows))
			phys := m.Unmap(b, r)
			if phys >= uint64(m.Capacity()) {
				t.Fatalf("%+v: Unmap(%d, %d) = %#x, beyond capacity %#x", g, b, r, phys, m.Capacity())
			}
			if gb, gr := m.Map(phys); gb != b || gr != r {
				t.Fatalf("%+v: Map(Unmap(%d, %d)) = (%d, %d)", g, b, r, gb, gr)
			}
			want := addr % uint64(m.Capacity()) &^ uint64(g.DataRowBytes()-1)
			if got := m.Unmap(m.Map(addr)); got != want {
				t.Fatalf("%+v: Unmap(Map(%#x)) = %#x, want %#x", g, addr, got, want)
			}
		}
	})
}
