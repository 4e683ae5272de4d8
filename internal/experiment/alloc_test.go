package experiment

import (
	"runtime"
	"strings"
	"sync"
	"testing"

	"smartrefresh/internal/sim"
	"smartrefresh/internal/trace"
	"smartrefresh/internal/workload"
)

// ladderJobs is the benchmark's hmc-ladder job set at short windows:
// the 8-vault stack on the full power-state ladder, two shards, gcc and
// the idle OS profile under CBR and Smart Refresh.
func ladderJobs(t *testing.T) []Job {
	ladder := PowerStatePolicies()
	full := ladder[len(ladder)-1]
	opts := RunOptions{Warmup: 2 * sim.Millisecond, Measure: 6 * sim.Millisecond,
		SelfRefreshAfter: full.SelfRefreshAfter, PowerStates: full.Cfg, Shards: 2}
	var jobs []Job
	for _, prof := range []workload.Profile{mustProfile(t, "gcc"), workload.Idle()} {
		for _, kind := range []PolicyKind{PolicyCBR, PolicySmart} {
			jobs = append(jobs, Job{Cfg: HMC8V.DRAM(), Prof: prof, Policy: kind, Opts: opts})
		}
	}
	return jobs
}

// convJobs is the benchmark's conv-fig job set at short windows: the
// Table 1 2 GB module, four benchmarks under CBR and Smart Refresh.
func convJobs(t *testing.T) []Job {
	opts := RunOptions{Warmup: 2 * sim.Millisecond, Measure: 6 * sim.Millisecond}
	var jobs []Job
	for _, name := range []string{"fasta", "gcc", "perl_twolf", "radix"} {
		for _, kind := range []PolicyKind{PolicyCBR, PolicySmart} {
			jobs = append(jobs, Job{Cfg: Conv2GB.DRAM(), Prof: mustProfile(t, name), Policy: kind, Opts: opts})
		}
	}
	return jobs
}

// totalAlloc returns the bytes f allocates, read from
// runtime.MemStats.TotalAlloc around it.
func totalAlloc(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// allocatedIn returns, per function name, the bytes allocated so far
// with that function on the allocating stack, from the heap profile
// (complete only while runtime.MemProfileRate is 1).
func allocatedIn(fns ...string) map[string]int64 {
	// The profile is published at the end of a collection cycle: two
	// make it current.
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	out := map[string]int64{}
	for _, r := range recs {
		frames := runtime.CallersFrames(r.Stack())
		seen := map[string]bool{}
		for {
			fr, more := frames.Next()
			for _, fn := range fns {
				if !seen[fn] && strings.HasSuffix(fr.Function, fn) {
					seen[fn] = true
					out[fn] += r.AllocBytes
				}
			}
			if !more {
				break
			}
		}
	}
	return out
}

// A fresh Engine that runs jobs an earlier Engine ran takes its
// machines from the idle store: a job set's second run allocates only
// its sources, results and closures, not its controllers, histograms,
// policies or vault queues. The bounds count bytes, not time, so they do
// not depend on the host. The hmc-ladder set allocates about 25 KB;
// rebuilding the machines per job, as the engine once did, allocates
// about 1 MB. The conv-fig set's bound is exactly what it allocated when
// a monolithic module ran on a bare controller instead of a one-vault
// array.
func TestWarmEngineAllocationFence(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, tc := range []struct {
		name  string
		jobs  []Job
		bound uint64
	}{
		{"hmc-ladder", ladderJobs(t), 128 << 10},
		{"conv-fig", convJobs(t), 30736},
	} {
		run := func() {
			for i, res := range NewEngine(1).RunJobs(tc.jobs) {
				if res.Err != nil {
					t.Fatalf("%s job %d: %v", tc.name, i, res.Err)
				}
			}
		}
		run()
		if got := totalAlloc(run); got > tc.bound {
			t.Errorf("second run of the %s jobs allocates %d bytes, want at most %d", tc.name, got, tc.bound)
		}
	}
}

// A job on a warm machine grows none of its buffers: a stacked job
// installs its 3D-cache lines in the chunks the previous job used, and
// a vaulted job enqueues into the queues the previous job grew. Each
// job set runs on a one-worker engine, one job at a time.
func TestWarmJobGrowsNoBuffers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	machines.empty()
	stacked := Job{Cfg: Stacked3D32.DRAM(), Prof: mustProfile(t, "gcc"), Policy: PolicySmart,
		Opts: RunOptions{Warmup: 2 * sim.Millisecond, Measure: 6 * sim.Millisecond, Stacked: true}}
	for _, tc := range []struct {
		fn   string
		jobs []Job
	}{
		{"cache.(*Cache).allocChunk", []Job{stacked}},
		{"memctrl.(*VaultArray).Enqueue", ladderJobs(t)[:2]},
	} {
		run := func() {
			for i, res := range NewEngine(1).RunJobs(tc.jobs) {
				if res.Err != nil {
					t.Fatalf("job %d: %v", i, res.Err)
				}
			}
		}
		runtime.MemProfileRate = 1
		before := allocatedIn(tc.fn)
		run()
		cold := allocatedIn(tc.fn)[tc.fn] - before[tc.fn]
		if cold == 0 {
			t.Fatalf("the cold run allocates nothing in %s: nothing to reuse", tc.fn)
		}
		run()
		if warm := allocatedIn(tc.fn)[tc.fn] - before[tc.fn] - cold; warm != 0 {
			t.Errorf("warm jobs allocate %d bytes in %s, want 0 (%d cold)", warm, tc.fn, cold)
		}
	}
}

// The idle store keeps as many machines as ran at once, even beyond
// GOMAXPROCS: at GOMAXPROCS 1, a two-worker engine's second round over
// two stacked jobs that ran together finds both machines idle and
// allocates no 3D-cache chunk.
func TestIdleStoreKeepsConcurrentMachines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	machines.empty()
	// Each job's first record waits for the other job's, so the two
	// machines are checked out at once whatever the scheduler does.
	var started sync.WaitGroup
	jobs := make([]Job, 2)
	for i, name := range []string{"gcc", "fasta"} {
		prof := mustProfile(t, name)
		jobs[i] = Job{Cfg: Stacked3D32.DRAM(), Prof: prof, Policy: PolicySmart,
			Opts: RunOptions{Warmup: 2 * sim.Millisecond, Measure: 6 * sim.Millisecond, Stacked: true},
			MakeSource: func() trace.Source {
				src, first := prof.NewSource(true), true
				return sourceFunc(func() (trace.Record, bool) {
					if first {
						first = false
						started.Done()
						started.Wait()
					}
					return src.Next()
				})
			}}
	}
	run := func() {
		started.Add(len(jobs))
		for i, res := range NewEngine(2).RunJobs(jobs) {
			if res.Err != nil {
				t.Fatalf("job %d: %v", i, res.Err)
			}
		}
	}
	const fn = "cache.(*Cache).allocChunk"
	runtime.MemProfileRate = 1
	before := allocatedIn(fn)[fn]
	run()
	cold := allocatedIn(fn)[fn] - before
	if cold == 0 {
		t.Fatalf("the first round allocates nothing in %s: nothing to reuse", fn)
	}
	run()
	if warm := allocatedIn(fn)[fn] - before - cold; warm != 0 {
		t.Errorf("the second round allocates %d bytes in %s, want 0 (%d in the first)", warm, fn, cold)
	}
}
