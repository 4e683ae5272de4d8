package workload_test

import (
	"fmt"

	"smartrefresh/internal/sim"
	"smartrefresh/internal/workload"
)

// Example_benchmarkProfiles lists the calibration anchors the paper's
// text states explicitly.
func Example_benchmarkProfiles() {
	for _, name := range []string{"fasta", "water-spatial"} {
		p, _ := workload.ByName(name)
		fmt.Printf("%s: %.1f%% of 2GB rows re-touched per interval\n",
			p.Name, 100*p.MainCoverage)
	}
	// Output:
	// fasta: 26.0% of 2GB rows re-touched per interval
	// water-spatial: 85.7% of 2GB rows re-touched per interval
}

// ExampleGenerator shows the deterministic stream a profile produces.
func ExampleGenerator() {
	spec := workload.StreamSpec{
		FootprintBytes: 4 * 16384, // four 16 KB rows
		StrideBytes:    16384,
		SweepPeriod:    40 * sim.Millisecond,
		WriteFraction:  0,
	}
	gen := workload.NewGenerator(spec, 1)
	for i := 0; i < 4; i++ {
		rec, _ := gen.Next()
		fmt.Printf("row %d\n", rec.Addr/16384)
	}
	// Output:
	// row 0
	// row 1
	// row 2
	// row 3
}

// ExampleNewMerge interleaves two streams in time order (the 2-process
// methodology of section 6), the second offset into a disjoint region.
func ExampleNewMerge() {
	a, _ := workload.ByName("gcc")
	b, _ := workload.ByName("twolf")
	src := workload.NewMerge(a.NewSource(false), workload.NewOffset(b.NewSource(false), 1<<30))
	n := 0
	for i := 0; i < 1000; i++ {
		if _, ok := src.Next(); ok {
			n++
		}
	}
	fmt.Println(n == 1000)
	// Output:
	// true
}
