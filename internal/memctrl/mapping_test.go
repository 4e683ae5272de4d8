package memctrl

import (
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
	for _, phys := range []uint64{0, 31, 32, 4095, 1 << 20, 1<<31 - 1, 1 << 31, 1<<40 + 12345} {
		a := m.Map(phys)
		if !a.Valid(&g) {
			t.Errorf("Map(%d) = %+v invalid", phys, a)
		}
		if a.Column%g.BurstLength != 0 {
			t.Errorf("column %d not burst aligned", a.Column)
		}
	}
}

func TestMapperOpenPageLocality(t *testing.T) {
	g := config.Table1_2GB().Geometry
	m := NewMapper(g)
	// Consecutive lines within a 16 KB row-spread must land in the same
	// row with the open-page mapping.
	base := uint64(1 << 20)
	a0 := m.Map(base)
	rowSpan := uint64(g.DataRowBytes()) // bytes mapped before bank changes
	for off := uint64(0); off < rowSpan; off += uint64(m.BurstBytes()) {
		a := m.Map(base + off)
		if a.RowID != a0.RowID {
			t.Fatalf("offset %d changed row: %+v -> %+v", off, a0, a)
		}
	}
	// The next line beyond must change the bank (not the row index).
	next := m.Map(base + rowSpan)
	if next.RowID == a0.RowID {
		t.Error("row did not change across row boundary")
	}
}

func TestMapperWrapsModuloCapacity(t *testing.T) {
	g := config.Table1_2GB().Geometry
	m := NewMapper(g)
	if m.Map(123456) != m.Map(123456+uint64(m.Capacity())) {
		t.Error("addresses do not wrap modulo capacity")
	}
}

// locate wraps by dropping the bits above the row field, so a geometry
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

// Property: Map is a bijection between burst-aligned addresses and
// coordinates; Unmap inverts it.
func TestMapperRoundTripProperty(t *testing.T) {
	g := dram.Geometry{
		Channels: 2, Ranks: 2, Banks: 4, Rows: 64, Columns: 64,
		DataWidthBits: 72, BurstLength: 4, DevicesPerRank: 2,
	}
	m := NewMapper(g)
	f := func(raw uint64) bool {
		phys := (raw % uint64(m.Capacity())) &^ uint64(m.BurstBytes()-1)
		a := m.Map(phys)
		return m.Unmap(a) == phys
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: distinct aligned addresses within capacity map to distinct
// coordinates (injectivity via Unmap).
func TestMapperInjective(t *testing.T) {
	g := dram.Geometry{
		Channels: 1, Ranks: 2, Banks: 2, Rows: 16, Columns: 32,
		DataWidthBits: 72, BurstLength: 4, DevicesPerRank: 2,
	}
	m := NewMapper(g)
	seen := map[dram.Address]uint64{}
	for phys := uint64(0); phys < uint64(m.Capacity()); phys += uint64(m.BurstBytes()) {
		a := m.Map(phys)
		if prev, dup := seen[a]; dup {
			t.Fatalf("addresses %d and %d both map to %+v", prev, phys, a)
		}
		seen[a] = phys
	}
}
