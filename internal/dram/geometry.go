// Package dram models DDR2-style DRAM devices: module geometry, bank state
// machines, command timing, the open-page row-buffer policy, and the two
// refresh command styles the paper contrasts (CAS-before-RAS with the
// module-internal row counter, and RAS-only refresh with an explicit row
// address, which Smart Refresh requires).
//
// The model is transaction-level with cycle-accurate command spacing: each
// operation advances per-bank and per-channel ready times according to the
// DDR2 timing constraints, and the module keeps the activity and state-
// residency statistics the power model consumes.
package dram

import (
	"fmt"
	"math"
	"math/bits"
)

// Geometry describes the physical organisation of a DRAM module, following
// Table 1 and Table 2 of the paper — optionally organised as an HMC-style
// 3D stack of independent vaults (the sniper stacked-DRAM controller
// models the die as 32 vaults x banks x layers, each vault owning its own
// controller).
type Geometry struct {
	Channels int // independent memory channels
	Ranks    int // ranks per channel
	Banks    int // banks per rank
	Rows     int // rows per bank
	Columns  int // columns per row

	// DataWidthBits is the module data width including ECC; the paper uses
	// 72 (64 data + 8 ECC).
	DataWidthBits int

	// BurstLength is the number of beats per column access (4 for DDR2).
	BurstLength int

	// DevicesPerRank is the number of DRAM devices that activate together
	// for one row; it scales per-operation energy in the power model.
	// A 72-bit rank of x4 devices has 18.
	DevicesPerRank int

	// Vaults partitions the module into that many independent HMC-style
	// vaults, each owning Channels/Vaults channels with their own
	// controller, refresh state and timing. Zero or one means a
	// conventional (monolithic) module.
	Vaults int

	// Layers is the number of stacked DRAM dies; each layer contributes
	// one rank to its vault's channel (so Ranks must equal Layers when
	// both are set). Zero means unstacked. Layer 1 is bonded to the
	// processor and runs hottest; the thermal model maps layer index to
	// the required refresh interval.
	Layers int
}

// Validate reports an error if any geometry field is non-positive, a row
// or bank count is not a power of two (address mapping requires it), the
// vault/layer dimensions are inconsistent, or a dimension product would
// overflow the int arithmetic of TotalRows/RowID.Flat.
func (g Geometry) Validate() error {
	type field struct {
		name string
		v    int
	}
	for _, f := range []field{
		{"Channels", g.Channels}, {"Ranks", g.Ranks}, {"Banks", g.Banks},
		{"Rows", g.Rows}, {"Columns", g.Columns},
		{"DataWidthBits", g.DataWidthBits}, {"BurstLength", g.BurstLength},
		{"DevicesPerRank", g.DevicesPerRank},
	} {
		if f.v <= 0 {
			return fmt.Errorf("dram: geometry field %s = %d, must be positive", f.name, f.v)
		}
	}
	for _, f := range []field{
		{"Channels", g.Channels}, {"Ranks", g.Ranks}, {"Banks", g.Banks},
		{"Rows", g.Rows}, {"Columns", g.Columns},
	} {
		if f.v&(f.v-1) != 0 {
			return fmt.Errorf("dram: geometry field %s = %d, must be a power of two", f.name, f.v)
		}
	}
	// Stacking dimensions: optional, but power-of-two and consistent with
	// the flat dimensions when present, so per-vault slices stay valid
	// geometries and vault routing can use mask/shift address bits.
	for _, f := range []field{{"Vaults", g.Vaults}, {"Layers", g.Layers}} {
		if f.v < 0 {
			return fmt.Errorf("dram: geometry field %s = %d, must be non-negative", f.name, f.v)
		}
		if f.v > 0 && f.v&(f.v-1) != 0 {
			return fmt.Errorf("dram: geometry field %s = %d, must be a power of two", f.name, f.v)
		}
	}
	if g.Vaults > 0 && g.Channels%g.Vaults != 0 {
		return fmt.Errorf("dram: %d channels not divisible into %d vaults", g.Channels, g.Vaults)
	}
	if g.Layers > 1 && g.Ranks != g.Layers {
		return fmt.Errorf("dram: %d ranks != %d layers (each stacked layer contributes one rank)", g.Ranks, g.Layers)
	}
	// Fleet-sized vault configs can push the dimension products past the
	// int range; TotalRows()/RowID.Flat()/CapacityBytes() would then
	// silently wrap. Reject such geometries here, where the failure is
	// diagnosable, instead of corrupting every downstream index.
	rows, ok := checkedProduct(g.Channels, g.Ranks, g.Banks, g.Rows)
	if !ok || rows > math.MaxInt {
		return fmt.Errorf("dram: %d channels x %d ranks x %d banks x %d rows overflows the row index space",
			g.Channels, g.Ranks, g.Banks, g.Rows)
	}
	if _, ok := checkedMulInt64(rows, int64(g.Columns)*int64(g.DataWidthBits)); !ok {
		return fmt.Errorf("dram: capacity of %d rows x %d columns x %d bits overflows int64",
			rows, g.Columns, g.DataWidthBits)
	}
	return nil
}

// checkedMulInt64 multiplies two positive int64s, reporting overflow.
func checkedMulInt64(a, b int64) (int64, bool) {
	p := a * b
	if a != 0 && (p/a != b || p < 0) {
		return 0, false
	}
	return p, true
}

// checkedProduct multiplies positive ints in int64, reporting overflow.
func checkedProduct(vs ...int) (int64, bool) {
	p := int64(1)
	for _, v := range vs {
		var ok bool
		if p, ok = checkedMulInt64(p, int64(v)); !ok {
			return 0, false
		}
	}
	return p, true
}

// Vaulted reports whether the geometry describes a multi-vault stack.
func (g Geometry) Vaulted() bool { return g.Vaults > 1 }

// VaultCount returns the number of independent vaults (1 for a
// conventional module).
func (g Geometry) VaultCount() int {
	if g.Vaults > 1 {
		return g.Vaults
	}
	return 1
}

// LayerCount returns the number of stacked dies (1 when unstacked).
func (g Geometry) LayerCount() int {
	if g.Layers > 1 {
		return g.Layers
	}
	return 1
}

// PerVault returns the geometry one vault controller owns: its share of
// the channels with the stacking dimensions cleared. PerVault of a
// non-vaulted geometry is the geometry itself.
func (g Geometry) PerVault() Geometry {
	v := g
	v.Channels = g.Channels / g.VaultCount()
	v.Vaults = 0
	v.Layers = 0
	return v
}

// TotalRows returns the number of refreshable (channel, rank, bank, row)
// tuples. With the paper's one-channel/one-rank/one-bank refresh command
// policy this is also the number of refresh operations per refresh
// interval in the baseline, and the number of Smart Refresh counters.
func (g Geometry) TotalRows() int {
	return g.Channels * g.Ranks * g.Banks * g.Rows
}

// RowBytes returns the storage of one row, including ECC bits.
func (g Geometry) RowBytes() int64 {
	return int64(g.Columns) * int64(g.DataWidthBits) / 8
}

// DataRowBytes returns the addressable (non-ECC) bytes of one row, assuming
// the conventional 8/9 data fraction when DataWidthBits is a multiple of 9.
func (g Geometry) DataRowBytes() int64 {
	if g.DataWidthBits%9 == 0 {
		return int64(g.Columns) * int64(g.DataWidthBits) * 8 / 9 / 8
	}
	return g.RowBytes()
}

// CapacityBytes returns the addressable capacity of the module (data bits
// only, excluding ECC).
func (g Geometry) CapacityBytes() int64 {
	return g.DataRowBytes() * int64(g.TotalRows())
}

// AccessBytes returns the bytes transferred by one burst (data bits only).
func (g Geometry) AccessBytes() int64 {
	return g.DataRowBytes() / int64(g.Columns) * int64(g.BurstLength)
}

// RowID identifies one refreshable row by its coordinates. The
// simulator's commands address a row flat instead: a flat bank index in
// [0, TotalBanks()), (Channel*Ranks+Rank)*Banks+Bank, and the row within
// that bank. RowInBank and RowID.Flat convert.
type RowID struct {
	Channel, Rank, Bank, Row int
}

// String renders the row identity compactly.
func (r RowID) String() string {
	return fmt.Sprintf("ch%d/rk%d/bk%d/row%d", r.Channel, r.Rank, r.Bank, r.Row)
}

// Flat returns a dense index for the row in [0, g.TotalRows()): its
// flat bank index times Rows, plus its row.
func (r RowID) Flat(g *Geometry) int {
	return ((r.Channel*g.Ranks+r.Rank)*g.Banks+r.Bank)*g.Rows + r.Row
}

// RowFromFlat is the inverse of RowID.Flat. Validate guarantees every
// dimension is a power of two, so the decode is shifts and masks.
func RowFromFlat(g *Geometry, flat int) RowID {
	bank, row := SplitRow(g, flat)
	return RowInBank(g, bank, row)
}

// SplitRow splits a flat row index into its flat bank index and its row
// within that bank: flat >> log2 Rows and flat & (Rows-1).
func SplitRow(g *Geometry, flat int) (bank, row int) {
	return flat >> bits.TrailingZeros(uint(g.Rows)), flat & (g.Rows - 1)
}

// RowInBank returns the RowID of row within flat bank bank, by shifts
// and masks like RowFromFlat. Flat banks lay banks out lowest, then
// ranks, then channels: the flat rank is bank >> log2 Banks and its
// channel the flat rank >> log2 Ranks.
func RowInBank(g *Geometry, bank, row int) RowID {
	rank := bank >> bits.TrailingZeros(uint(g.Banks))
	return RowID{
		Channel: rank >> bits.TrailingZeros(uint(g.Ranks)),
		Rank:    rank & (g.Ranks - 1),
		Bank:    bank & (g.Banks - 1),
		Row:     row,
	}
}

// TotalBanks returns the number of banks across the module.
func (g Geometry) TotalBanks() int { return g.Channels * g.Ranks * g.Banks }
