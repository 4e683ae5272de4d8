package main

import (
	"time"

	"smartrefresh/internal/trace"
)

// The host this benchmark runs on changes speed in phases that last from
// under a second to minutes, so raw host time moves by tens of percent
// between identical runs. Every job's host time is therefore measured in
// units of a frozen reference kernel run interleaved with the job: the
// kernel lives here, in the benchmark, so no change to the simulator can
// move it, and only the host's speed can.

const (
	// updateWords sizes the kernel's update table (4 MiB, twice the
	// private L2 of the host it was tuned on) and probeWords its probe
	// table (1 MiB). Timed over the same recorded chunks against 1, 2 and
	// 16 MiB update tables, a pure-ALU loop, map churn and container/heap,
	// this sum was among the best on every workload, though the ranking
	// shifted between recordings. No kernel tried tracks the host fully:
	// about 40% of conv-fig's raw round-to-round variation remains.
	updateWords = 1 << 19
	probeBits   = 17
	probeWords  = 1 << probeBits
	// updates and probes are one reference slice's work, about 1 ms.
	updates = 1 << 15
	probes  = 1 << 14
	// chunkLen is the host time between reference slices.
	chunkLen = 15 * time.Millisecond
	// pollStride is how many records pass between clock reads.
	pollStride = 16
)

// refKernel is the reference workload: xorshift-indexed read-modify-
// writes over the update table, then hash lookups with linear probing
// into a half-full table that never changes. Each concurrently running
// job needs its own.
type refKernel struct {
	update, probe []uint64
	state         uint64
}

func newRefKernel() *refKernel {
	k := &refKernel{
		update: make([]uint64, updateWords),
		probe:  make([]uint64, probeWords),
		state:  0x2545f4914f6cdd1d,
	}
	for i := range k.update {
		// Fault every page in before anything is timed.
		k.update[i] = uint64(i)
	}
	x := uint64(88172645463325252)
	for i := 0; i < probeWords/2; i++ {
		x = xorshift(x)
		key := x>>43 | 1 // 0 marks an empty slot
		h := probeSlot(key)
		for k.probe[h] != 0 {
			h = (h + 1) & (probeWords - 1)
		}
		k.probe[h] = key
	}
	return k
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

func probeSlot(key uint64) uint64 { return (key * 0x9e3779b97f4a7c15) >> (64 - probeBits) }

// slice runs one reference slice.
func (k *refKernel) slice() {
	x, upd, tab := k.state, k.update, k.probe
	for i := 0; i < updates; i++ {
		x = xorshift(x)
		upd[x&(updateWords-1)] += x
	}
	hits := uint64(0)
	for i := 0; i < probes; i++ {
		x = xorshift(x)
		key := x >> 43
		for h, n := probeSlot(key), 0; n < 8 && tab[h] != 0; h, n = (h+1)&(probeWords-1), n+1 {
			if tab[h] == key {
				hits++
				break
			}
		}
	}
	k.state = x + hits
}

// kernelPool hands each running job a kernel of its own.
type kernelPool chan *refKernel

func newKernelPool(n int) kernelPool {
	p := make(kernelPool, n)
	for i := 0; i < n; i++ {
		p <- newRefKernel()
	}
	return p
}

// jobMeter splits one job's host time into set-up, chunks and reference
// slices. Its timeline is
//
//	begin | setup | slice | chunk | slice | chunk | ... | chunk | slice | end
//
// where set-up runs from begin (Engine.OnJobStart) to the first Next, a
// chunk closes at the first poll at least chunkLen after it opened, and
// the last chunk — the post-stream drain — closes at finish
// (Engine.OnJobDone). Every boundary is a single clock reading shared by
// the interval it ends and the one it starts, so set-up, chunks and
// slices add up to the job's wall time exactly.
type jobMeter struct {
	now   func() time.Time
	pool  kernelPool
	kern  *refKernel
	slice func() // runs one reference slice; tests substitute a fake

	start, chunkStart, end time.Time
	streaming              bool
	setup                  time.Duration
	chunks, slices         []time.Duration
}

func newJobMeter(pool kernelPool) *jobMeter {
	m := &jobMeter{now: time.Now, pool: pool}
	m.slice = func() { m.kern.slice() }
	return m
}

// begin opens the job's set-up interval.
func (m *jobMeter) begin() {
	if m.pool != nil {
		m.kern = <-m.pool
	}
	m.start = m.now()
}

// poll is called from the job's record stream; the first call ends
// set-up, later ones close the running chunk once it is long enough.
func (m *jobMeter) poll() {
	t := m.now()
	if !m.streaming {
		m.streaming = true
		m.setup = t.Sub(m.start)
		m.runSlice(t)
		return
	}
	if t.Sub(m.chunkStart) >= chunkLen {
		m.chunks = append(m.chunks, t.Sub(m.chunkStart))
		m.runSlice(t)
	}
}

// finish closes the drain chunk and runs the slice that brackets it. A
// job that never read its stream spent all its time in set-up.
func (m *jobMeter) finish() {
	t := m.now()
	if m.streaming {
		m.chunks = append(m.chunks, t.Sub(m.chunkStart))
	} else {
		m.streaming = true
		m.setup = t.Sub(m.start)
	}
	m.runSlice(t)
	m.end = m.chunkStart
	if m.pool != nil {
		m.pool <- m.kern
		m.kern = nil
	}
}

func (m *jobMeter) runSlice(t time.Time) {
	m.slice()
	e := m.now()
	m.slices = append(m.slices, e.Sub(t))
	m.chunkStart = e
}

// wall is the job's host time from begin to the end of its last slice.
func (m *jobMeter) wall() time.Duration { return m.end.Sub(m.start) }

// ref is the job's host time, slices excluded, in reference-slice units:
// set-up over the slice after it, each chunk over the mean of the slices
// before and after it.
func (m *jobMeter) ref() float64 {
	r := float64(m.setup) / float64(m.slices[0])
	for i, c := range m.chunks {
		r += 2 * float64(c) / float64(m.slices[i]+m.slices[i+1])
	}
	return r
}

// meteredSource polls its job's meter every pollStride records.
type meteredSource struct {
	src trace.Source
	m   *jobMeter
	n   int
}

func (s *meteredSource) Next() (trace.Record, bool) {
	if s.n%pollStride == 0 {
		s.m.poll()
	}
	s.n++
	return s.src.Next()
}
