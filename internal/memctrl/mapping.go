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

// Mapper translates physical byte addresses to DRAM coordinates. The unit
// of a "column" here is one burst (AccessBytes), so one mapped column
// corresponds to one data transfer.
type Mapper struct {
	geom dram.Geometry

	lineShift uint // log2 of burst bytes
	colBits   uint
	// flatBits is the width of the flat bank field: log2 of Banks,
	// Ranks and Channels summed (see locate).
	flatBits   uint
	bankBits   uint
	rankBits   uint
	chanBits   uint
	rowBits    uint
	capacity   int64
	burstBytes int64
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
	// A vault's mapper owns its cache lines (DESIGN §16).
	m := sim.OwnLine[Mapper]()
	*m = Mapper{
		geom:       g,
		lineShift:  uint(bits.TrailingZeros64(uint64(burst))),
		colBits:    uint(bits.TrailingZeros64(uint64(colUnits))),
		bankBits:   uint(bits.TrailingZeros64(uint64(g.Banks))),
		rankBits:   uint(bits.TrailingZeros64(uint64(g.Ranks))),
		chanBits:   uint(bits.TrailingZeros64(uint64(g.Channels))),
		rowBits:    uint(bits.TrailingZeros64(uint64(g.Rows))),
		capacity:   g.CapacityBytes(),
		burstBytes: burst,
	}
	m.flatBits = m.bankBits + m.rankBits + m.chanBits
	// locate wraps an address by dropping the bits above the mapped
	// fields, which is a modulo by the capacity only if the fields span
	// it exactly.
	if width := m.lineShift + m.colBits + m.flatBits + m.rowBits; m.capacity != 1<<width {
		panic(fmt.Sprintf("memctrl: capacity %d bytes is not the 2^%d the address fields span", m.capacity, width))
	}
	return m
}

// Capacity returns the addressable bytes.
func (m *Mapper) Capacity() int64 { return m.capacity }

// BurstBytes returns the bytes of one mapped column unit.
func (m *Mapper) BurstBytes() int64 { return m.burstBytes }

// Map translates a physical byte address (wrapped modulo capacity) into
// DRAM coordinates. The returned Column is in burst units scaled back to
// device columns.
func (m *Mapper) Map(phys uint64) dram.Address {
	bank, row, col := m.locate(phys)
	return dram.Address{RowID: dram.RowInBank(&m.geom, bank, row), Column: col}
}

// locate is Map's core: it returns the flat bank index (BankID.Flat),
// the row within that bank and the device column. The bank, rank and
// channel fields are adjacent, lowest first, which is BankID.Flat's
// layout, so the flat bank is one flatBits-wide field. The fields span
// the capacity (NewMapper checks), so the bits above the row field,
// which are dropped, are exactly the wrap modulo capacity.
func (m *Mapper) locate(phys uint64) (bank, row, col int) {
	a := phys >> m.lineShift

	take := func(n uint) int {
		v := int(a & ((1 << n) - 1))
		a >>= n
		return v
	}

	col = take(m.colBits)
	bank = take(m.flatBits)
	row = take(m.rowBits)
	return bank, row, col * m.geom.BurstLength
}

// Unmap is the inverse of Map for addresses aligned to a burst; it returns
// the lowest physical address mapping to the coordinates.
func (m *Mapper) Unmap(addr dram.Address) uint64 {
	col := uint64(addr.Column / m.geom.BurstLength)
	bank := uint64(addr.Bank)
	rank := uint64(addr.Rank)
	ch := uint64(addr.Channel)
	row := uint64(addr.Row)

	a := col
	a |= bank << m.colBits
	a |= rank << (m.colBits + m.bankBits)
	a |= ch << (m.colBits + m.bankBits + m.rankBits)
	a |= row << (m.colBits + m.bankBits + m.rankBits + m.chanBits)
	return a << m.lineShift
}
