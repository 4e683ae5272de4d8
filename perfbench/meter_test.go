package main

import (
	"testing"
	"time"

	"smartrefresh/internal/sim"
	"smartrefresh/internal/trace"
	"smartrefresh/internal/workload"
)

// fakeClock advances one nanosecond per reading; a fake slice adds a fixed
// cost without reading it.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time {
	c.t = c.t.Add(time.Nanosecond)
	return c.t
}

func fakeMeter(c *fakeClock, sliceCost time.Duration) *jobMeter {
	m := newJobMeter(nil)
	m.now = c.now
	m.slice = func() { c.t = c.t.Add(sliceCost) }
	return m
}

// firstRead records the clock when its stream is first read.
type firstRead struct {
	src  trace.Source
	c    *fakeClock
	seen time.Time
}

func (f *firstRead) Next() (trace.Record, bool) {
	if f.seen.IsZero() {
		f.seen = f.c.t
	}
	return f.src.Next()
}

// checkAccounting asserts that set-up, chunks and slices tile the job's
// wall time exactly, with one slice after set-up and after every chunk.
func checkAccounting(t *testing.T, name string, m *jobMeter) {
	t.Helper()
	sum := m.setup
	for _, c := range m.chunks {
		sum += c
	}
	for _, s := range m.slices {
		sum += s
	}
	if sum != m.wall() {
		t.Errorf("%s: setup+chunks+slices = %v, wall = %v", name, sum, m.wall())
	}
	if len(m.slices) != len(m.chunks)+1 {
		t.Errorf("%s: %d slices for %d chunks", name, len(m.slices), len(m.chunks))
	}
	if r := m.ref(); !(r > 0) {
		t.Errorf("%s: ref %v", name, r)
	}
}

func TestMeterTilesWallTime(t *testing.T) {
	recs := make([]trace.Record, 5000)
	for i := range recs {
		recs[i].Time = sim.Time(i)
	}
	for _, tc := range []struct {
		name    string
		records int
		work    time.Duration // fake host time per record
	}{
		{"streaming", len(recs), 50 * time.Microsecond},
		{"zero-records", 0, 0},
	} {
		c := &fakeClock{t: time.Unix(0, 0)}
		m := fakeMeter(c, time.Millisecond)
		src := &firstRead{src: trace.NewSliceSource(recs[:tc.records]), c: c}
		m.begin()
		c.t = c.t.Add(3 * time.Millisecond) // set-up work
		ms := &meteredSource{src: src, m: m}
		for {
			if _, ok := ms.Next(); !ok {
				break
			}
			c.t = c.t.Add(tc.work)
		}
		c.t = c.t.Add(7 * time.Millisecond) // post-stream drain
		m.finish()

		checkAccounting(t, tc.name, m)
		// Set-up ends at the first read of the stream; only the first
		// reference slice lies between them.
		if got := m.start.Add(m.setup + m.slices[0]); !got.Equal(src.seen) {
			t.Errorf("%s: set-up plus first slice ends at %v, first record read at %v", tc.name, got, src.seen)
		}
		if last := m.chunks[len(m.chunks)-1]; last < 7*time.Millisecond {
			t.Errorf("%s: drain chunk %v misses the post-stream drain", tc.name, last)
		}
		if tc.records > 0 && len(m.chunks) < 2 {
			t.Errorf("%s: %d chunks; the stream should have closed several", tc.name, len(m.chunks))
		}
	}
}

func TestMeterJobThatNeverStreams(t *testing.T) {
	c := &fakeClock{t: time.Unix(0, 0)}
	m := fakeMeter(c, time.Millisecond)
	m.begin()
	c.t = c.t.Add(time.Millisecond)
	m.finish()
	checkAccounting(t, "never-streams", m)
	if len(m.chunks) != 0 {
		t.Errorf("chunks %v; a job that never streamed is all set-up", m.chunks)
	}
}

// shortWindow shrinks a workload's simulated windows so tests run fast.
func shortWindow(w benchWorkload) benchWorkload {
	w.opts.Warmup, w.opts.Measure = 2*sim.Millisecond, 3*sim.Millisecond
	return w
}

func TestEngineMetersTileWallTime(t *testing.T) {
	conv, _ := findWorkload("conv-fig")
	hmc, _ := findWorkload("hmc-ladder")
	conv, hmc = shortWindow(conv), shortWindow(hmc)
	empty := conv
	empty.benchmarks = []workload.Profile{{Name: "empty", RowRepeats: 1}}
	pool := newKernelPool(2)
	for _, tc := range []struct {
		name string
		w    benchWorkload
	}{{"monolithic", conv}, {"vaulted", hmc}, {"zero-records", empty}} {
		jobs := tc.w.jobs(1)[:2]
		r := runEngine(tc.w, jobs, pool)
		for i, m := range r.meters {
			name := tc.name + "/" + jobs[i].key()
			if err := r.res[i].Err; err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			checkAccounting(t, name, m)
			if len(m.chunks) == 0 {
				t.Errorf("%s: OnJobDone closed no drain chunk", name)
			}
		}
	}
}

func TestTracedReplayMatchesEngine(t *testing.T) {
	for _, w := range workloads() {
		w = shortWindow(w)
		jobs := w.jobs(3)[:2]
		pool := newKernelPool(w.workers)
		eng := runEngine(w, jobs, pool)
		tr := runTraced(w, jobs, pool)
		for i := range jobs {
			if a, b := fingerprint(eng.res[i]), fingerprint(tr.res[i]); a != b {
				t.Errorf("%s %s: engine %.16s, traced %.16s", w.name, jobs[i].key(), a, b)
			}
		}
		if tr.l.records == 0 || tr.l.advance.calls == 0 || tr.l.evaluate.calls == 0 {
			t.Errorf("%s: traced run counted nothing: %+v", w.name, tr.l)
		}
	}
}

func TestSeedZeroIsTheProfileStream(t *testing.T) {
	for _, w := range workloads() {
		for _, p := range w.benchmarks {
			stacked := w.opts.Stacked
			want, got := p.NewSource(stacked), newSource(p, stacked, streamSeed(p, 0))
			for i := 0; i < 10000; i++ {
				a, aok := want.Next()
				b, bok := got.Next()
				if a != b || aok != bok {
					t.Fatalf("%s/%s record %d: profile %+v, benchmark %+v", w.name, p.Name, i, a, b)
				}
				if !aok {
					break
				}
			}
		}
	}
}

func TestExpectationsCoverEveryWorkload(t *testing.T) {
	ef, err := loadExpect()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads() {
		x, ok := ef.lookup(w.name, 0)
		if !ok {
			t.Fatalf("%s: no seed-0 expectation", w.name)
		}
		for _, j := range w.jobs(0) {
			if x.Jobs[j.key()] == "" {
				t.Errorf("%s: no fingerprint for %s", w.name, j.key())
			}
		}
	}
}
