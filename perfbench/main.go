// Command perfbench is the repository's benchmark. It runs one workload of
// Smart/CBR refresh pairs through experiment.Engine.RunJobs for a fixed
// host time, checks every result against committed expectations, and
// prints one JSON line of metrics. With -trace 1 it also replays each job
// through the layers directly and reports per-layer metrics instead.
//
// Host time is reported in reference-slice units (see meter.go) because the
// host's speed drifts too much for raw seconds to compare two commits.
//
//	go run . -workload conv-fig -seed 1 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"

	"smartrefresh/internal/atomicio"
	"smartrefresh/internal/experiment"
	"smartrefresh/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// expectSeeds is how many seeds, from 0, -write-expect records.
const expectSeeds = 16

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: conv-fig, stacked-32ms or hmc-ladder")
	seed := fs.Uint64("seed", 0, "workload seed (0 = the benchmark profiles' own seeds)")
	seconds := fs.Float64("seconds", 10, "host seconds to keep starting rounds")
	traced := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	writeExpect := fs.String("write-expect", "", "write expectations for every workload and seeds 0..15 to this file, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *writeExpect != "" {
		if err := writeExpectations(*writeExpect); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		return 0
	}
	w, err := findWorkload(*name)
	if err == nil && *traced != 0 && *traced != 1 {
		err = fmt.Errorf("-trace must be 0 or 1, not %d", *traced)
	}
	var ef expectFile
	if err == nil {
		ef, err = loadExpect()
	}
	var ver *verifier
	jobs := w.jobs(*seed)
	if err == nil {
		ver, err = newVerifier(ef, w.name, *seed, jobs)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}

	// Marshalling plain structs of strings and numbers cannot fail.
	hostJSON, _ := json.Marshal(hostRecord(w))
	fmt.Fprintf(stdout, "{\"host\":%s}\n", hostJSON)

	pool := newKernelPool(w.workers)
	b := &bench{w: w, jobs: jobs, pool: pool, ver: ver, log: stderr}
	deadline := time.Now().Add(time.Duration(*seconds * float64(time.Second)))
	for first := true; first || time.Now().Before(deadline); first = false {
		b.engineRound()
		if *traced == 1 {
			b.tracedRound()
		}
	}

	var metrics map[string]metric
	if *traced == 1 {
		metrics = b.layerMetrics()
	} else {
		metrics = b.endToEnd()
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{b.failed == 0, b.attempted, b.failed, metrics})
	if err != nil {
		// A NaN or infinite metric: no result rather than a wrong one.
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	for _, e := range ver.errors {
		fmt.Fprintln(stderr, "perfbench: mismatch:", e)
	}
	fmt.Fprintf(stdout, "%s\n", out)
	if b.failed > 0 {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// engineRun is one untraced round: every job through Engine.RunJobs.
type engineRun struct {
	res    []experiment.RunResult
	meters []*jobMeter
	wall   time.Duration
	alloc  uint64 // bytes allocated during the round
}

// tracedRun is one traced round.
type tracedRun struct {
	res    []experiment.RunResult
	meters []*jobMeter
	l      layers
}

type bench struct {
	w    benchWorkload
	jobs []benchJob
	pool kernelPool
	ver  *verifier
	log  io.Writer // per-round progress

	engine            []engineRun
	traced            []tracedRun
	attempted, failed int
}

func (b *bench) engineRound() {
	r := runEngine(b.w, b.jobs, b.pool)
	b.engine = append(b.engine, r)
	b.attempted += len(b.jobs)
	b.failed += b.ver.round(r.res)
	var busy time.Duration
	var slices []float64
	for _, m := range r.meters {
		busy += m.wall()
		for _, s := range m.slices {
			slices = append(slices, float64(s)/float64(time.Millisecond))
		}
	}
	fmt.Fprintf(b.log, "round %d: job_ref=%.1f job_s=%.3f wall_s=%.3f ref_ms=%.4f\n",
		len(b.engine), jobRef(r.meters), busy.Seconds(), r.wall.Seconds(), median(slices))
}

// tracedRound runs the traced replay and checks each job's fingerprint
// against the engine round just before it.
func (b *bench) tracedRound() {
	r := runTraced(b.w, b.jobs, b.pool)
	b.traced = append(b.traced, r)
	eng := b.engine[len(b.engine)-1].res
	b.attempted += len(b.jobs)
	for i, res := range r.res {
		if fingerprint(res) != fingerprint(eng[i]) {
			b.ver.fail("%s: traced fingerprint differs from the engine's", b.jobs[i].key())
			b.failed++
		}
	}
}

func runEngine(w benchWorkload, jobs []benchJob, pool kernelPool) engineRun {
	r := engineRun{meters: make([]*jobMeter, len(jobs))}
	byKey := make(map[string]*jobMeter, len(jobs))
	ejobs := make([]experiment.Job, len(jobs))
	for i, j := range jobs {
		m := newJobMeter(pool)
		r.meters[i], byKey[j.key()] = m, m
		j := j
		ejobs[i] = j.Job
		ejobs[i].MakeSource = func() trace.Source {
			return &meteredSource{src: newSource(j.Prof, j.Opts.Stacked, j.seed), m: m}
		}
	}
	eng := &experiment.Engine{
		Workers:    w.workers,
		OnJobStart: func(ev experiment.JobEvent) { byKey[jobKey(ev.Config, ev.Benchmark, ev.Policy)].begin() },
		OnJobDone:  func(ev experiment.JobEvent) { byKey[jobKey(ev.Config, ev.Benchmark, ev.Policy)].finish() },
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	start := time.Now()
	r.res = eng.RunJobs(ejobs)
	r.wall = time.Since(start)
	runtime.ReadMemStats(&ms)
	r.alloc = ms.TotalAlloc - before
	return r
}

func runTraced(w benchWorkload, jobs []benchJob, pool kernelPool) tracedRun {
	r := tracedRun{res: make([]experiment.RunResult, len(jobs)), meters: make([]*jobMeter, len(jobs))}
	per := make([]layers, len(jobs))
	forEachJob(len(jobs), w.workers, func(i int) {
		r.meters[i] = newJobMeter(pool)
		r.res[i], per[i] = tracedJob(jobs[i], r.meters[i])
	})
	for _, l := range per {
		r.l.merge(l)
	}
	return r
}

// jobRef is the round's summed host time in reference-slice units.
func jobRef(meters []*jobMeter) float64 {
	s := 0.0
	for _, m := range meters {
		s += m.ref()
	}
	return s
}

func (b *bench) endToEnd() map[string]metric {
	var ref, setup, alloc []float64
	for _, r := range b.engine {
		ref = append(ref, jobRef(r.meters))
		var s time.Duration
		for _, m := range r.meters {
			s += m.setup
		}
		setup = append(setup, s.Seconds())
		alloc = append(alloc, float64(r.alloc)/(1<<20))
	}
	refresh, energy := ratios(b.engine[0].res)
	return map[string]metric{
		"job_ref":             {median(ref), "ref"},
		"setup_s":             {median(setup), "s"},
		"max_rss_mb":          {maxRSSMB(), "MB"},
		"alloc_mb":            {median(alloc), "MB"},
		"pass_frac":           {float64(b.attempted-b.failed) / float64(b.attempted), "ratio"},
		"smart_refresh_ratio": {refresh, "ratio"},
		"smart_energy_ratio":  {energy, "ratio"},
	}
}

func (b *bench) layerMetrics() map[string]metric {
	out := map[string]metric{}
	// Per-round values, reported as the median over the run's rounds.
	series := map[string][]float64{}
	units := map[string]string{}
	put := func(name, unit string, v float64) {
		series[name] = append(series[name], v)
		units[name] = unit
	}
	for _, r := range b.traced {
		l := r.l
		put("workload.records", "count", float64(l.records))
		put("workload.ns_per_record", "ns", l.next.perCall())
		put("cache.accesses", "count", float64(l.cacheAccess.calls))
		put("cache.hit_rate", "ratio", share(float64(l.cacheHits), float64(l.cacheAccess.calls)))
		put("cache.data_accesses_per_access", "ratio", share(float64(l.cacheData), float64(l.cacheAccess.calls)))
		put("cache.ns_per_access", "ns", l.cacheAccess.perCall())
		put("memctrl.submit_ns_per_request", "ns", l.submit.perCall())
		put("memctrl.self_ns_per_request", "ns", share(float64(l.submitSelf), float64(l.submit.timed)))
		put("memctrl.drain_ms", "ms", float64(l.drain)/float64(time.Millisecond))
		put("memctrl.vault.epochs", "count", float64(l.flush.calls))
		put("memctrl.vault.flush_ms_per_epoch", "ms", l.flush.perCall()/1e6)
		put("memctrl.vault.enqueue_ns_per_request", "ns", l.enqueue.perCall())
		put("memctrl.vault.request_imbalance", "ratio", imbalance(l.vaultRequests))
		put("core.advance_calls", "count", float64(l.advance.calls))
		put("core.advance_ns_per_call", "ns", l.advance.perCall())
		put("core.restore_calls", "count", float64(l.restore.calls))
		put("core.restore_ns_per_call", "ns", l.restore.perCall())
		put("power.evaluate_ns", "ns", l.evaluate.perCall())
		put("host.traced_ref", "ref", jobRef(r.meters))
	}
	for _, r := range b.engine {
		maxRef, busy := 0.0, time.Duration(0)
		for _, m := range r.meters {
			if x := m.ref(); x > maxRef {
				maxRef = x
			}
			busy += m.wall()
		}
		put("experiment.max_job_ref", "ref", maxRef)
		put("experiment.worker_busy_frac", "ratio", float64(busy)/float64(time.Duration(b.w.workers)*r.wall))
		put("host.wall_s", "s", r.wall.Seconds())
		put("host.untraced_ref", "ref", jobRef(r.meters))
	}
	for name, vs := range series {
		out[name] = metric{median(vs), units[name]}
	}
	out["host.trace_overhead_pct"] = metric{
		100 * (out["host.traced_ref"].Value/out["host.untraced_ref"].Value - 1), "%"}
	delete(out, "host.traced_ref")
	delete(out, "host.untraced_ref")

	// Simulated quantities repeat exactly in every round; take the first.
	res := b.engine[0].res
	var requests, rowHits, activates, refreshOps, pd, sr, counters uint64
	var stall time.Duration
	var pdn, srTime, rankTime, refreshE, backgroundE, totalE float64
	for _, r := range res {
		x := r.Results
		requests += x.Requests
		rowHits += x.RowHits
		activates += x.Module.Activates
		refreshOps += x.Module.RefreshOps
		pd += x.Module.PowerDownEntries
		sr += x.Module.SelfRefreshEntries
		counters += x.Policy.CounterReads + x.Policy.CounterWrites
		stall += time.Duration(x.Module.DemandStall)
		pdn += float64(x.Module.ActPdnTime + x.Module.PrePdnFastTime + x.Module.PrePdnSlowTime)
		srTime += float64(x.Module.SelfRefreshTime)
		rankTime += float64(x.Module.ActiveTime + x.Module.IdleTime)
		refreshE += float64(x.Energy.RefreshRelated())
		backgroundE += float64(x.Energy.Background)
		totalE += float64(x.Energy.Total())
	}
	out["experiment.jobs"] = metric{float64(len(res)), "count"}
	out["memctrl.requests"] = metric{float64(requests), "count"}
	out["memctrl.row_hit_rate"] = metric{share(float64(rowHits), float64(requests)), "ratio"}
	out["memctrl.pd_entries"] = metric{float64(pd), "count"}
	out["memctrl.sr_entries"] = metric{float64(sr), "count"}
	out["memctrl.pdn_residency_pct"] = metric{100 * share(pdn, rankTime), "%"}
	out["memctrl.sr_residency_pct"] = metric{100 * share(srTime, rankTime), "%"}
	out["core.counter_accesses"] = metric{float64(counters), "count"}
	out["dram.activates"] = metric{float64(activates), "count"}
	out["dram.refresh_ops"] = metric{float64(refreshOps), "count"}
	out["dram.demand_stall_us"] = metric{float64(stall) / float64(time.Microsecond), "us"}
	out["power.refresh_share"] = metric{share(refreshE, totalE), "ratio"}
	out["power.background_share"] = metric{share(backgroundE, totalE), "ratio"}

	slices := b.sliceMS()
	out["host.ref_ms"] = metric{median(slices), "ms"}
	out["host.ref_spread"] = metric{iqr(slices) / median(slices), "ratio"}
	return out
}

// sliceMS lists every reference slice of the run's engine rounds, in ms.
func (b *bench) sliceMS() []float64 {
	var out []float64
	for _, r := range b.engine {
		for _, m := range r.meters {
			for _, s := range m.slices {
				out = append(out, float64(s)/float64(time.Millisecond))
			}
		}
	}
	return out
}

// share is a/b, or 0 when b is (a layer the workload does not use).
func share(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// imbalance is the busiest vault's demand over the mean (0 when unvaulted).
func imbalance(perVault []uint64) float64 {
	var sum, max uint64
	for _, n := range perVault {
		sum += n
		if n > max {
			max = n
		}
	}
	if sum == 0 {
		return 0
	}
	return float64(max) * float64(len(perVault)) / float64(sum)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// iqr is the distance between the first and third quartiles.
func iqr(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) < 2 {
		return 0
	}
	q := func(p float64) float64 {
		x := p * float64(len(s)-1)
		i := int(x)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (x-float64(i))*(s[i+1]-s[i])
	}
	return q(0.75) - q(0.25)
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// writeExpectations records, for every workload and seeds 0..expectSeeds-1,
// the fingerprints and ratios of one untraced round.
func writeExpectations(path string) error {
	ef := expectFile{}
	for _, w := range workloads() {
		ef[w.name] = map[string]expectation{}
		pool := newKernelPool(w.workers)
		for s := uint64(0); s < expectSeeds; s++ {
			jobs := w.jobs(s)
			r := runEngine(w, jobs, pool)
			for i, res := range r.res {
				if res.Err != nil || res.RetentionErr != nil {
					return fmt.Errorf("%s seed %d %s: err=%v retention=%v", w.name, s, jobs[i].key(), res.Err, res.RetentionErr)
				}
				if msg := invariants(res); msg != "" {
					return fmt.Errorf("%s seed %d %s: %s", w.name, s, jobs[i].key(), msg)
				}
			}
			ef[w.name][strconv.FormatUint(s, 10)] = expectFor(jobs, r.res)
		}
	}
	data, err := json.MarshalIndent(ef, "", " ")
	if err != nil {
		return err
	}
	return atomicio.WriteFileBytes(path, append(data, '\n'))
}
