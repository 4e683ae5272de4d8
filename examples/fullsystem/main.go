// Full-system flavour: an in-order core with an L1 and the paper's 1 MB
// L2 drives the 2 GB module, so memory traffic arrives with
// instruction-level timing (the Simics role in the paper's toolchain).
// Runs the identical instruction stream under CBR and Smart Refresh and
// reports IPC, memory stall and DRAM energy — Figure 18's performance
// story measured from the processor side.
package main

import (
	"fmt"
	"log"

	"smartrefresh"
	"smartrefresh/internal/cache"
	"smartrefresh/internal/config"
	"smartrefresh/internal/cpu"
	"smartrefresh/internal/memctrl"
)

const instructions = 3_000_000

func run(cfg smartrefresh.Config, policy smartrefresh.Policy) (cpu.Results, smartrefresh.Results) {
	ctl, err := memctrl.New(cfg, policy, memctrl.Options{})
	if err != nil {
		log.Fatal(err)
	}

	hier := cache.NewHierarchy(
		config.CacheConfig{Name: "l1", SizeBytes: 32 << 10, LineBytes: 64, Ways: 4, WriteBack: true},
		config.Table1L2(), // Table 1: 1 MB, 8-way
	)

	// A pointer-chasing-flavoured reference stream over a working set
	// that overflows the L2, so the DRAM sees steady traffic.
	prof, err := smartrefresh.ProfileByName("twolf")
	if err != nil {
		log.Fatal(err)
	}
	gen := smartrefresh.NewGenerator(prof.MainSpec(), prof.Seed())
	stream := cpu.StreamFunc(func() (uint64, bool) {
		rec, _ := gen.Next() // generator is endless; the core supplies timing
		return rec.Addr, rec.Write
	})

	core, err := cpu.New(cpu.DefaultConfig(), hier, ctl, stream)
	if err != nil {
		log.Fatal(err)
	}
	core.Run(instructions)
	cpuRes := core.Finish()
	return cpuRes, ctl.Results(cpuRes.End)
}

func main() {
	cfg := smartrefresh.Table1_2GB()
	base, baseMem := run(cfg, smartrefresh.NewCBRPolicy(cfg))
	smart, smartMem := run(cfg, smartrefresh.NewSmartPolicy(cfg))

	fmt.Printf("executed %d instructions per run (3 GHz in-order core, L1 32KB + L2 1MB)\n\n", instructions)
	fmt.Printf("%-22s %14s %14s\n", "", "CBR baseline", "Smart Refresh")
	fmt.Printf("%-22s %14.4f %14.4f\n", "IPC", base.IPC, smart.IPC)
	fmt.Printf("%-22s %14v %14v\n", "memory stall", base.MemStall, smart.MemStall)
	fmt.Printf("%-22s %14d %14d\n", "DRAM accesses", base.DRAMAccesses, smart.DRAMAccesses)
	fmt.Printf("%-22s %14d %14d\n", "refresh operations", baseMem.RefreshOps, smartMem.RefreshOps)
	fmt.Printf("%-22s %14.3f %14.3f\n", "DRAM energy (mJ)",
		baseMem.Energy.Total().Millijoules(), smartMem.Energy.Total().Millijoules())

	dIPC := 100 * (smart.IPC - base.IPC) / base.IPC
	dE := 100 * (1 - float64(smartMem.Energy.Total())/float64(baseMem.Energy.Total()))
	fmt.Printf("\nSmart Refresh: %+.3f%% IPC, -%.1f%% DRAM energy on this run\n", dIPC, dE)
}
