package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
)

// host describes the machine a run measured, printed next to its
// metrics: worker counts above the CPU count explain parallel runs that
// are no faster than serial ones.
type host struct {
	GOMAXPROCS    int    `json:"gomaxprocs"`
	NumCPU        int    `json:"nproc"`
	CPUModel      string `json:"cpu_model"`
	GoVersion     string `json:"go_version"`
	EngineWorkers int    `json:"engine_workers"`
	Shards        int    `json:"shards"`
}

func hostRecord(w benchWorkload) host {
	return host{
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		CPUModel:      cpuModel(),
		GoVersion:     runtime.Version(),
		EngineWorkers: w.workers,
		Shards:        w.opts.Shards,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown"
// where there is none).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
