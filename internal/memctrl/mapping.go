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
)

// Interleave selects how a physical byte address is split into DRAM
// coordinates.
type Interleave int

const (
	// RowRankBankColumn is the open-page-friendly mapping the paper's
	// open-page row-buffer policy implies: column bits lowest, then bank,
	// then rank, then row — consecutive lines stay in one row, and rows
	// interleave across banks at row-buffer granularity.
	RowRankBankColumn Interleave = iota
	// RowColumnRankBank interleaves banks at line granularity
	// (close-page-friendly); included for mapping ablations.
	RowColumnRankBank
)

// String names the interleave.
func (i Interleave) String() string {
	switch i {
	case RowRankBankColumn:
		return "row:rank:bank:column"
	case RowColumnRankBank:
		return "row:column:rank:bank"
	default:
		return fmt.Sprintf("Interleave(%d)", int(i))
	}
}

// Mapper translates physical byte addresses to DRAM coordinates. The unit
// of a "column" here is one burst (AccessBytes), so one mapped column
// corresponds to one data transfer.
type Mapper struct {
	geom   dram.Geometry
	scheme Interleave

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

// NewMapper builds a mapper for the geometry. It panics on a geometry
// whose dimensions are not powers of two (Validate enforces that).
func NewMapper(g dram.Geometry, scheme Interleave) *Mapper {
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
	m := &Mapper{
		geom:       g,
		scheme:     scheme,
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
// the row within that bank and the device column. Under both interleaves
// the bank, rank and channel fields are adjacent, lowest first, which is
// BankID.Flat's layout, so the flat bank is one flatBits-wide field.
func (m *Mapper) locate(phys uint64) (bank, row, col int) {
	a := phys % uint64(m.capacity)
	a >>= m.lineShift

	take := func(n uint) int {
		v := int(a & ((1 << n) - 1))
		a >>= n
		return v
	}

	switch m.scheme {
	case RowRankBankColumn:
		col = take(m.colBits)
		bank = take(m.flatBits)
		row = take(m.rowBits)
	case RowColumnRankBank:
		bank = take(m.flatBits)
		col = take(m.colBits)
		row = take(m.rowBits)
	default:
		panic(fmt.Sprintf("memctrl: unknown interleave %d", int(m.scheme)))
	}
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

	var a uint64
	switch m.scheme {
	case RowRankBankColumn:
		a = col
		a |= bank << m.colBits
		a |= rank << (m.colBits + m.bankBits)
		a |= ch << (m.colBits + m.bankBits + m.rankBits)
		a |= row << (m.colBits + m.bankBits + m.rankBits + m.chanBits)
	case RowColumnRankBank:
		a = bank
		a |= rank << m.bankBits
		a |= ch << (m.bankBits + m.rankBits)
		a |= col << (m.bankBits + m.rankBits + m.chanBits)
		a |= row << (m.bankBits + m.rankBits + m.chanBits + m.colBits)
	default:
		panic(fmt.Sprintf("memctrl: unknown interleave %d", int(m.scheme)))
	}
	return a << m.lineShift
}
