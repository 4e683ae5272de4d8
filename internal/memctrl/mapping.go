// Package memctrl implements the enhanced memory controller of the paper:
// physical-address mapping, open-page transaction handling against the
// DRAM module, and the refresh machinery — the policy's pending refresh
// requests are dispatched to the module as RAS-only or CBR refresh
// operations, interleaved with demand traffic in time order (Figure 5).
package memctrl

import (
	"fmt"
	"math/bits"

	"smartrefresh/internal/dram"
	"smartrefresh/internal/sim"
)

// Mapper translates physical byte addresses to flat DRAM coordinates: a
// flat bank index and a row within that bank. Each mapped column is one
// burst (AccessBytes), so consecutive bursts of a row are consecutive
// addresses.
type Mapper struct {
	// bankShift is the width of the burst offset and column fields below
	// the flat bank field, rowShift that plus the flat bank field's width
	// (log2 of Banks, Ranks and Channels summed); the masks select each
	// field once shifted down.
	bankShift, rowShift uint
	bankMask, rowMask   uint64
	capacity            int64
	burstBytes          int64
}

// NewMapper builds a mapper for the geometry. The mapping is the
// open-page-friendly row:rank:bank:column layout of the paper's Table 1:
// column bits lowest, then bank, then rank (and channel), then row, so
// consecutive lines stay in one row and rows interleave across banks at
// row-buffer granularity. It panics on a geometry whose dimensions are
// not powers of two (Validate enforces that).
func NewMapper(g dram.Geometry) *Mapper {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	burst := g.AccessBytes()
	if burst <= 0 || burst&(burst-1) != 0 {
		panic(fmt.Sprintf("memctrl: burst bytes %d not a power of two", burst))
	}
	// Columns are addressed in bursts: columns-per-row / burst-length.
	colUnits := g.Columns / g.BurstLength
	if colUnits <= 0 || colUnits&(colUnits-1) != 0 {
		panic(fmt.Sprintf("memctrl: %d column units not a power of two", colUnits))
	}
	bankShift := uint(bits.TrailingZeros64(uint64(burst)) + bits.TrailingZeros(uint(colUnits)))
	rowShift := bankShift + uint(bits.TrailingZeros(uint(g.TotalBanks())))
	// A vault's mapper owns its cache lines (DESIGN §16).
	m := sim.OwnLine[Mapper]()
	*m = Mapper{
		bankShift:  bankShift,
		rowShift:   rowShift,
		bankMask:   uint64(g.TotalBanks() - 1),
		rowMask:    uint64(g.Rows - 1),
		capacity:   g.CapacityBytes(),
		burstBytes: burst,
	}
	// Map wraps an address by dropping the bits above the mapped fields,
	// which is a modulo by the capacity only if the fields span it
	// exactly.
	if width := rowShift + uint(bits.TrailingZeros(uint(g.Rows))); m.capacity != 1<<width {
		panic(fmt.Sprintf("memctrl: capacity %d bytes is not the 2^%d the address fields span", m.capacity, width))
	}
	return m
}

// Capacity returns the addressable bytes.
func (m *Mapper) Capacity() int64 { return m.capacity }

// BurstBytes returns the bytes of one mapped column unit.
func (m *Mapper) BurstBytes() int64 { return m.burstBytes }

// Map translates a physical byte address, wrapped modulo capacity, into
// its flat bank index and its row within that bank. The bank, rank and
// channel fields are adjacent, lowest first, which is the flat bank
// index's layout, so the flat bank is one field above the column. The
// fields span the capacity (NewMapper checks), so the bits above the
// row field, which are dropped, are exactly the wrap modulo capacity.
// The column selects nothing the timing model reads, so it is not
// decoded.
func (m *Mapper) Map(phys uint64) (bank, row int) {
	return int(phys >> m.bankShift & m.bankMask), int(phys >> m.rowShift & m.rowMask)
}

// Unmap is the inverse of Map: it returns the lowest physical address
// of row in flat bank bank, the address of the row's first burst.
func (m *Mapper) Unmap(bank, row int) uint64 {
	return uint64(row)<<m.rowShift | uint64(bank)<<m.bankShift
}
