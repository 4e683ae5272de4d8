package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the parallel substrate for vault-sharded simulation. A
// stacked-DRAM run decomposes into independent vault controllers whose
// interactions are confined to epoch boundaries; within an epoch each
// shard advances alone.

// ShardRunner executes a parallel-for over shard indices with a barrier
// at the end: Run returns only after every shard function has returned.
// Workers claim shards through an atomic counter, so any worker count
// produces the same set of executions; determinism of the overall
// simulation then rests on the shard functions not sharing mutable state
// (each vault owns its banks, refresh state, and forked RNG).
type ShardRunner struct {
	// Workers bounds the goroutines used per Run. Zero means
	// GOMAXPROCS; one means serial execution on the calling goroutine
	// (no goroutines spawned), the reference schedule the determinism
	// suite compares against.
	Workers int
}

// Run invokes fn(shard) for every shard in [0, n) and waits for all of
// them. It is a barrier: no call site observes partial completion. A
// shard's panic is raised again on the calling goroutine once every
// worker has stopped, where a serial run raises it, so a caller's
// recover sees it at any worker count.
func (r ShardRunner) Run(n int, fn func(shard int)) {
	if n <= 0 {
		return
	}
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	// One object holds all the workers share; fault is the first panic.
	var s struct {
		next  atomic.Int64
		wg    sync.WaitGroup
		fault atomic.Pointer[any]
	}
	s.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer s.wg.Done()
			defer func() {
				if p := recover(); p != nil {
					fault := p
					s.fault.CompareAndSwap(nil, &fault)
				}
			}()
			for {
				i := int(s.next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	s.wg.Wait()
	if p := s.fault.Load(); p != nil {
		panic(*p)
	}
}
