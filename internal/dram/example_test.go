package dram_test

import (
	"fmt"

	"smartrefresh/internal/dram"
	"smartrefresh/internal/sim"
)

// Example_openPagePolicy shows the row-buffer behaviour the controller's
// open-page policy exploits: the first access to a row activates it, the
// second hits the open row, and an access to a different row of the same
// bank conflicts.
func Example_openPagePolicy() {
	g := dram.Geometry{
		Channels: 1, Ranks: 1, Banks: 4, Rows: 64, Columns: 64,
		DataWidthBits: 72, BurstLength: 4, DevicesPerRank: 18,
	}
	m := dram.NewModule(g, dram.DDR2_667(64*sim.Millisecond))

	// Commands address a flat bank index and a row within that bank.
	var r1, r2, r3 dram.AccessResult
	m.Access(&r1, 0, 0, 5, false)
	m.Access(&r2, r1.Done, 0, 5, false)
	m.Access(&r3, r2.Done, 0, 9, false)

	fmt.Printf("first:  hit=%v conflict=%v\n", r1.RowHit, r1.Conflict)
	fmt.Printf("second: hit=%v conflict=%v\n", r2.RowHit, r2.Conflict)
	fmt.Printf("third:  hit=%v conflict=%v\n", r3.RowHit, r3.Conflict)
	// Output:
	// first:  hit=false conflict=false
	// second: hit=true conflict=false
	// third:  hit=false conflict=true
}

// Example_refreshKinds contrasts the two refresh command styles of
// section 3: CBR uses the module-internal counter, RAS-only takes an
// explicit row address (what Smart Refresh needs).
func Example_refreshKinds() {
	g := dram.Geometry{
		Channels: 1, Ranks: 1, Banks: 2, Rows: 8, Columns: 16,
		DataWidthBits: 72, BurstLength: 4, DevicesPerRank: 2,
	}
	m := dram.NewModule(g, dram.DDR2_667(64*sim.Millisecond))

	// Three CBR refreshes walk rows 0, 1, 2 on their own.
	var rows []int
	var t sim.Time
	for i := 0; i < 3; i++ {
		res := m.RefreshCBR(t, 0)
		rows = append(rows, res.Row)
		t = res.Done
	}
	fmt.Println("CBR rows:", rows)

	// RAS-only refresh targets exactly the row the controller names.
	res := m.RefreshRow(t, 1, 6)
	fmt.Println("RAS-only row:", res.Row)
	fmt.Println("refreshes:", m.Stats().RefreshCBROps, "CBR,", m.Stats().RefreshRASOnlyOps, "RAS-only")
	// Output:
	// CBR rows: [0 1 2]
	// RAS-only row: 6
	// refreshes: 3 CBR, 1 RAS-only
}

// ExampleGeometry_TotalRows ties the Table 1 geometry to the section 4.7
// counter count.
func ExampleGeometry_TotalRows() {
	g := dram.Geometry{
		Channels: 1, Ranks: 2, Banks: 4, Rows: 16384, Columns: 2048,
		DataWidthBits: 72, BurstLength: 4, DevicesPerRank: 18,
	}
	fmt.Println(g.TotalRows(), "counters needed")
	// Output:
	// 131072 counters needed
}
