package core_test

import (
	"fmt"

	"smartrefresh/internal/core"
	"smartrefresh/internal/dram"
	"smartrefresh/internal/sim"
)

func exampleGeometry() dram.Geometry {
	return dram.Geometry{
		Channels: 1, Ranks: 1, Banks: 2, Rows: 32, Columns: 16,
		DataWidthBits: 72, BurstLength: 4, DevicesPerRank: 2,
	}
}

// Example_smartRefreshBasics shows the core mechanism: a row accessed by
// the processor skips its next periodic refresh.
func Example_smartRefreshBasics() {
	g := exampleGeometry()
	interval := 64 * sim.Millisecond
	cfg := core.DefaultSmartConfig()
	cfg.SelfDisable = false
	policy := core.NewSmart(g, interval, cfg)

	// Touch row 5 of bank 0 continuously; over five intervals it is never
	// refreshed, while an untouched row is refreshed once per interval.
	touched := dram.RowID{Channel: 0, Rank: 0, Bank: 0, Row: 5}
	counts := map[dram.RowID]int{}
	var cmds []core.Command
	for now := sim.Time(0); now < 5*interval; now += interval / 64 {
		cmds = policy.Advance(now, cmds[:0])
		for _, c := range cmds {
			counts[dram.RowInBank(&g, c.Bank, c.Row)]++
		}
		policy.OnRowRestore(now, touched)
	}
	untouched := dram.RowID{Channel: 0, Rank: 0, Bank: 0, Row: 6}
	fmt.Printf("touched row refreshes:   %d\n", counts[touched])
	fmt.Printf("untouched row refreshes: %d\n", counts[untouched])
	// Output:
	// touched row refreshes:   0
	// untouched row refreshes: 5
}

// ExampleOptimality prints the section 4.4 optimality ladder.
func ExampleOptimality() {
	for bits := 2; bits <= 4; bits++ {
		fmt.Printf("%d bits -> %.2f%% optimal\n", bits, 100*core.Optimality(bits))
	}
	// Output:
	// 2 bits -> 75.00% optimal
	// 3 bits -> 87.50% optimal
	// 4 bits -> 93.75% optimal
}

// ExampleCounterAreaKB reproduces the section 4.7 area arithmetic.
func ExampleCounterAreaKB() {
	g := dram.Geometry{
		Channels: 1, Ranks: 2, Banks: 4, Rows: 16384, Columns: 2048,
		DataWidthBits: 72, BurstLength: 4, DevicesPerRank: 18,
	}
	fmt.Printf("%.0f KB\n", core.CounterAreaKB(g, 3))
	// Output:
	// 48 KB
}

// ExampleRetentionChecker shows the correctness harness: a policy that
// stops refreshing is caught.
func ExampleRetentionChecker() {
	g := exampleGeometry()
	chk := core.NewRetentionChecker(g, 64*sim.Millisecond, nil)
	// Nothing restores anything for 100 ms.
	chk.CheckEnd(100 * sim.Millisecond)
	fmt.Println(chk.Violations() == uint64(g.TotalRows()))
	// Output:
	// true
}
