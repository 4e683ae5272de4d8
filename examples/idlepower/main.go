// Idle-power management: the section 4.6 question — what should the
// memory controller do when the DRAM is barely touched? — answered three
// ways on the near-idle "idle OS" workload the paper simulates:
//
//  1. plain CBR baseline (refresh everything, always),
//  2. Smart Refresh with the 1%/2% self-disable circuitry (the paper's
//     answer: never lose energy to the counters when they cannot pay off),
//  3. module self-refresh (this library's extension: the DDR2 deep sleep
//     Smart Refresh is orthogonal to).
package main

import (
	"fmt"
	"log"

	"smartrefresh"
)

func main() {
	opts := smartrefresh.RunOptions{
		Warmup:  64 * smartrefresh.Millisecond,
		Measure: 256 * smartrefresh.Millisecond,
	}
	eng := smartrefresh.NewEngine(0)

	fmt.Println("near-idle workload (accesses < 1% of rows per 64 ms interval)")
	fmt.Println("2 GB module, 256 ms measured window")
	fmt.Println()
	fmt.Printf("%-18s %14s %20s\n", "scheme", "total energy", "controller refreshes")
	points, err := smartrefresh.IdlePowerStudy(eng, opts)
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range points {
		fmt.Printf("%-18s %11.3f mJ %20d\n", p.Name, p.TotalEnergyMJ, p.RefreshOps)
	}

	fmt.Println()
	d, err := smartrefresh.DisableStudy(eng, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("self-disable engaged: %v; energy loss vs baseline: %.3f%%\n",
		d.DisableSwitched, d.EnergyLossPctWithDisable)
	fmt.Println()
	fmt.Println("Reading: Smart Refresh's self-disable guarantees it never does")
	fmt.Println("worse than the baseline when idle (the paper's section 4.6 claim);")
	fmt.Println("self-refresh goes much further but pays a wake-up latency, and the")
	fmt.Println("two mechanisms compose — Smart Refresh for busy ranks, self-refresh")
	fmt.Println("for sleeping ones.")
}
