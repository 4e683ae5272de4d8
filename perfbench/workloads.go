package main

import (
	"fmt"

	"smartrefresh/internal/experiment"
	"smartrefresh/internal/trace"
	"smartrefresh/internal/workload"
)

// benchWorkload is one named input set: a list of Smart/CBR job pairs and
// the worker counts they run under.
type benchWorkload struct {
	name string
	// kind is the evaluated configuration every job runs on.
	kind experiment.ConfigKind
	// benchmarks are the profiles run as CBR and Smart pairs.
	benchmarks []workload.Profile
	// opts are the run options shared by every job (windows default).
	opts experiment.RunOptions
	// workers is the Engine worker count.
	workers int
}

// Why each workload exists is recorded in BENCHMARK.json; the layers each
// one exercises are listed in README.md.
func workloads() []benchWorkload {
	ladder := experiment.PowerStatePolicies()
	full := ladder[len(ladder)-1] // ladder-full
	return []benchWorkload{
		{
			name:       "conv-fig",
			kind:       experiment.Conv2GB,
			benchmarks: profiles("fasta", "gcc", "radix", "perl_twolf"),
			workers:    2,
		},
		{
			name:       "stacked-32ms",
			kind:       experiment.Stacked3D32,
			benchmarks: profiles("fasta", "mummer", "gcc", "radix", "water-spatial", "perl_twolf"),
			opts:       experiment.RunOptions{Stacked: true},
			workers:    2,
		},
		{
			name:       "hmc-ladder",
			kind:       experiment.HMC8V,
			benchmarks: append(profiles("gcc"), workload.Idle()),
			opts: experiment.RunOptions{
				SelfRefreshAfter: full.SelfRefreshAfter,
				PowerStates:      full.Cfg,
				Shards:           2,
			},
			workers: 1,
		},
	}
}

func findWorkload(name string) (benchWorkload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return benchWorkload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

func profiles(names ...string) []workload.Profile {
	out := make([]workload.Profile, len(names))
	for i, n := range names {
		p, err := workload.ByName(n)
		if err != nil {
			panic(err) // the names above are built-in profiles
		}
		out[i] = p
	}
	return out
}

// benchJob is one engine job plus the stream seed it was generated from.
type benchJob struct {
	experiment.Job
	seed uint64
}

// key names the job the way the engine's hooks describe it.
func (j benchJob) key() string {
	return jobKey(j.Cfg.Name, j.Prof.Name, j.Policy)
}

func jobKey(cfg, benchmark string, policy experiment.PolicyKind) string {
	return cfg + "/" + benchmark + "/" + policy.String()
}

// jobs expands the workload into CBR/Smart pairs, CBR first, generated
// from the benchmark seed. Seed 0 reproduces the profiles' own streams.
func (w benchWorkload) jobs(seed uint64) []benchJob {
	cfg := w.kind.DRAM()
	var out []benchJob
	for _, p := range w.benchmarks {
		s := streamSeed(p, seed)
		for _, pol := range []experiment.PolicyKind{experiment.PolicyCBR, experiment.PolicySmart} {
			out = append(out, benchJob{
				Job:  experiment.Job{Cfg: cfg, Prof: p, Policy: pol, Opts: w.opts},
				seed: s,
			})
		}
	}
	return out
}

// streamSeed derives a profile's generator seed from the benchmark seed.
func streamSeed(p workload.Profile, seed uint64) uint64 {
	if seed == 0 {
		return p.Seed()
	}
	// splitmix64 finaliser, so neighbouring seeds give unrelated streams.
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return p.Seed() ^ z ^ (z >> 31)
}

// newSource is workload.Profile.NewSource with an explicit generator
// seed: at seed p.Seed() it yields exactly the profile's own stream.
func newSource(p workload.Profile, stacked bool, seed uint64) trace.Source {
	if !stacked {
		return workload.NewGenerator(p.MainSpec(), seed)
	}
	fast, slow := p.StackedSpecs()
	fastGen := workload.NewGenerator(fast, seed)
	if slow.FootprintBytes <= 0 {
		return fastGen
	}
	slowGen := workload.NewOffset(workload.NewGenerator(slow, seed^0x9e3779b97f4a7c15), uint64(fast.FootprintBytes))
	return workload.NewMerge(fastGen, slowGen)
}
