package workload

import (
	"fmt"

	"smartrefresh/internal/sim"
	"smartrefresh/internal/trace"
)

// Benchmark suite labels as grouped in the paper's figures.
const (
	SuiteBiobench = "Biobench"
	SuiteSPLASH2  = "SPLASH2"
	SuiteSPECint  = "SPECint2000"
	SuiteTwoProc  = "2 Processes (SPECint2000)"
)

// Stream geometry constants shared by all profiles (see DESIGN.md §3).
const (
	mainCapacityBytes    = int64(2) << 30 // Table 1 2 GB module
	mainRowBytes         = int64(16384)   // 2048 cols x 64 data bits
	stackedCapacityBytes = int64(64) << 20
	stackedRowBytes      = int64(1024) // 128 cols x 64 data bits

	// mainSweepPeriod must stay under 87.5% of the 64 ms interval so a
	// swept row's 3-bit counter never reaches zero.
	mainSweepPeriod = 40 * sim.Millisecond

	// The stacked stream is split into two regions so the same stream
	// reproduces both 3D experiments: the fast region's rows stay alive
	// at both 32 ms and 64 ms, while the slow region's rows stay alive
	// only at 64 ms. That is why the paper's 32 ms reduction is roughly
	// 70% of the 64 ms one ("since the number of accesses is constant,
	// the number of refreshes eliminated is reduced", section 7.2).
	stackedFastFraction    = 0.6
	stackedFastSweepPeriod = 22 * sim.Millisecond // < 87.5% of 32 ms
	stackedSlowSweepPeriod = 46 * sim.Millisecond // < 87.5% of 64 ms only
)

// Profile describes one benchmark's synthetic stand-in. Coverage values
// are the calibration targets: the fraction of device rows the stream
// re-touches every refresh interval, which is (to first order) the
// fraction of periodic refreshes Smart Refresh eliminates.
type Profile struct {
	Name  string
	Suite string

	// MainCoverage calibrates the conventional-DRAM stream to the
	// benchmark's Figure 6 refresh reduction on the 2 GB module. The same
	// stream runs against the 4 GB module, where the achieved reduction
	// halves because the row population doubles (Figure 9).
	MainCoverage float64

	// StackedCoverage calibrates the 3D-cache stream to the benchmark's
	// Figure 12 reduction at 64 ms. The same stream runs at 32 ms, where
	// the reduction roughly halves against the doubled baseline
	// (Figure 15).
	StackedCoverage float64

	// RowRepeats and WriteFraction shape row-buffer locality and the
	// read/write mix; the 2-process mixes use low repeats (the paper:
	// "dual process benchmark runs contain less spatial locality").
	RowRepeats    float64
	WriteFraction float64

	// Shuffle scatters the sweep order (pointer-chasing style).
	Shuffle bool
}

// MainSpec returns the stream spec for the conventional-DRAM experiments.
func (p Profile) MainSpec() StreamSpec {
	footprint := int64(p.MainCoverage * float64(mainCapacityBytes))
	footprint -= footprint % mainRowBytes
	return StreamSpec{
		FootprintBytes: footprint,
		StrideBytes:    mainRowBytes,
		SweepPeriod:    mainSweepPeriod,
		RowRepeats:     p.RowRepeats,
		WriteFraction:  p.WriteFraction,
		JitterFraction: 0.1,
		Shuffle:        p.Shuffle,
	}
}

// StackedSpecs returns the fast- and slow-region stream specs for the 3D
// DRAM cache experiments (see the stackedFastFraction comment).
func (p Profile) StackedSpecs() (fast, slow StreamSpec) {
	total := int64(p.StackedCoverage * float64(stackedCapacityBytes))
	total -= total % stackedRowBytes
	fastBytes := int64(stackedFastFraction * float64(total))
	fastBytes -= fastBytes % stackedRowBytes
	slowBytes := total - fastBytes
	base := StreamSpec{
		StrideBytes:    stackedRowBytes,
		RowRepeats:     p.RowRepeats * 0.5,
		WriteFraction:  p.WriteFraction,
		JitterFraction: 0.1,
		Shuffle:        p.Shuffle,
	}
	fast, slow = base, base
	fast.FootprintBytes = fastBytes
	fast.SweepPeriod = stackedFastSweepPeriod
	slow.FootprintBytes = slowBytes
	slow.SweepPeriod = stackedSlowSweepPeriod
	return fast, slow
}

// StackedSpec returns the fast-region spec (kept for single-spec callers;
// NewSource composes both regions).
func (p Profile) StackedSpec() StreamSpec {
	fast, _ := p.StackedSpecs()
	return fast
}

// NewSource builds the benchmark's access stream: the single main-memory
// stream for the conventional experiments, or the merged fast+slow region
// stream for the 3D cache experiments (slow region offset past the fast
// one so the regions touch disjoint rows).
func (p Profile) NewSource(stacked bool) trace.Source {
	if !stacked {
		return NewGenerator(p.MainSpec(), p.Seed())
	}
	fast, slow := p.StackedSpecs()
	fastGen := NewGenerator(fast, p.Seed())
	if slow.FootprintBytes <= 0 {
		return fastGen
	}
	slowGen := NewOffset(NewGenerator(slow, p.Seed()^0x9e3779b97f4a7c15), uint64(fast.FootprintBytes))
	return NewMerge(fastGen, slowGen)
}

// Seed derives a deterministic per-benchmark seed.
func (p Profile) Seed() uint64 {
	var h uint64 = 14695981039346656037
	for _, b := range []byte(p.Name) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// profiles lists all 32 benchmarks in the paper's figure order. Coverage
// anchors from the text: fasta 26% and water-spatial 85.7% (Figure 6,
// 2 GB); fasta 4% and mummer 42% (Figure 12, 3D 64 ms); averages 59.3%
// (2 GB) and ~22% gmean-equivalent (3D). The remaining values are
// interpolated by suite character and recorded here as the calibration
// the experiments report against.
var profiles = []Profile{
	// Biobench: bioinformatics, large streaming references.
	{Name: "clustalw", Suite: SuiteBiobench, MainCoverage: 0.68, StackedCoverage: 0.40, RowRepeats: 1.6, WriteFraction: 0.25},
	{Name: "fasta", Suite: SuiteBiobench, MainCoverage: 0.26, StackedCoverage: 0.04, RowRepeats: 2.2, WriteFraction: 0.20},
	{Name: "hmmer", Suite: SuiteBiobench, MainCoverage: 0.55, StackedCoverage: 0.25, RowRepeats: 1.8, WriteFraction: 0.22},
	{Name: "mummer", Suite: SuiteBiobench, MainCoverage: 0.72, StackedCoverage: 0.42, RowRepeats: 1.2, WriteFraction: 0.25, Shuffle: true},
	{Name: "phylip", Suite: SuiteBiobench, MainCoverage: 0.62, StackedCoverage: 0.28, RowRepeats: 1.5, WriteFraction: 0.24},
	{Name: "tiger", Suite: SuiteBiobench, MainCoverage: 0.58, StackedCoverage: 0.24, RowRepeats: 1.7, WriteFraction: 0.23},

	// SPLASH-2: scientific kernels, big sweeps, high coverage.
	{Name: "barnes", Suite: SuiteSPLASH2, MainCoverage: 0.55, StackedCoverage: 0.20, RowRepeats: 1.4, WriteFraction: 0.30, Shuffle: true},
	{Name: "cholesky", Suite: SuiteSPLASH2, MainCoverage: 0.50, StackedCoverage: 0.18, RowRepeats: 1.6, WriteFraction: 0.32},
	{Name: "fft", Suite: SuiteSPLASH2, MainCoverage: 0.70, StackedCoverage: 0.30, RowRepeats: 1.3, WriteFraction: 0.35, Shuffle: true},
	{Name: "fmm", Suite: SuiteSPLASH2, MainCoverage: 0.52, StackedCoverage: 0.19, RowRepeats: 1.5, WriteFraction: 0.30},
	{Name: "lucontig", Suite: SuiteSPLASH2, MainCoverage: 0.65, StackedCoverage: 0.26, RowRepeats: 1.8, WriteFraction: 0.33},
	{Name: "lunoncontig", Suite: SuiteSPLASH2, MainCoverage: 0.68, StackedCoverage: 0.28, RowRepeats: 1.1, WriteFraction: 0.33, Shuffle: true},
	{Name: "ocean-contig", Suite: SuiteSPLASH2, MainCoverage: 0.75, StackedCoverage: 0.33, RowRepeats: 1.4, WriteFraction: 0.36},
	{Name: "radix", Suite: SuiteSPLASH2, MainCoverage: 0.82, StackedCoverage: 0.38, RowRepeats: 0.9, WriteFraction: 0.40, Shuffle: true},
	{Name: "water-nsquared", Suite: SuiteSPLASH2, MainCoverage: 0.80, StackedCoverage: 0.35, RowRepeats: 1.2, WriteFraction: 0.30},
	{Name: "water-spatial", Suite: SuiteSPLASH2, MainCoverage: 0.857, StackedCoverage: 0.36, RowRepeats: 1.1, WriteFraction: 0.30},

	// SPECint2000: integer codes, smaller working sets, higher locality.
	{Name: "eon", Suite: SuiteSPECint, MainCoverage: 0.40, StackedCoverage: 0.12, RowRepeats: 2.6, WriteFraction: 0.28},
	{Name: "gcc", Suite: SuiteSPECint, MainCoverage: 0.30, StackedCoverage: 0.15, RowRepeats: 2.4, WriteFraction: 0.30},
	{Name: "parser", Suite: SuiteSPECint, MainCoverage: 0.45, StackedCoverage: 0.17, RowRepeats: 2.2, WriteFraction: 0.27, Shuffle: true},
	{Name: "perl", Suite: SuiteSPECint, MainCoverage: 0.62, StackedCoverage: 0.26, RowRepeats: 2.0, WriteFraction: 0.29},
	{Name: "twolf", Suite: SuiteSPECint, MainCoverage: 0.65, StackedCoverage: 0.28, RowRepeats: 1.9, WriteFraction: 0.26, Shuffle: true},
	{Name: "vpr", Suite: SuiteSPECint, MainCoverage: 0.55, StackedCoverage: 0.20, RowRepeats: 2.1, WriteFraction: 0.27},

	// Paired SPECint mixes: less spatial locality, more distinct rows.
	{Name: "gcc_parser", Suite: SuiteTwoProc, MainCoverage: 0.50, StackedCoverage: 0.28, RowRepeats: 1.0, WriteFraction: 0.29, Shuffle: true},
	{Name: "gcc_perl", Suite: SuiteTwoProc, MainCoverage: 0.58, StackedCoverage: 0.32, RowRepeats: 1.0, WriteFraction: 0.29, Shuffle: true},
	{Name: "gcc_twolf", Suite: SuiteTwoProc, MainCoverage: 0.62, StackedCoverage: 0.38, RowRepeats: 0.9, WriteFraction: 0.28, Shuffle: true},
	{Name: "parser_perl", Suite: SuiteTwoProc, MainCoverage: 0.60, StackedCoverage: 0.30, RowRepeats: 1.0, WriteFraction: 0.28, Shuffle: true},
	{Name: "parser_twolf", Suite: SuiteTwoProc, MainCoverage: 0.63, StackedCoverage: 0.33, RowRepeats: 0.9, WriteFraction: 0.27, Shuffle: true},
	{Name: "perl_twolf", Suite: SuiteTwoProc, MainCoverage: 0.72, StackedCoverage: 0.40, RowRepeats: 0.8, WriteFraction: 0.28, Shuffle: true},
	{Name: "vpr_gcc", Suite: SuiteTwoProc, MainCoverage: 0.52, StackedCoverage: 0.27, RowRepeats: 1.0, WriteFraction: 0.28, Shuffle: true},
	{Name: "vpr_parser", Suite: SuiteTwoProc, MainCoverage: 0.56, StackedCoverage: 0.29, RowRepeats: 1.0, WriteFraction: 0.27, Shuffle: true},
	{Name: "vpr_perl", Suite: SuiteTwoProc, MainCoverage: 0.66, StackedCoverage: 0.35, RowRepeats: 0.9, WriteFraction: 0.28, Shuffle: true},
	{Name: "vpr_twolf", Suite: SuiteTwoProc, MainCoverage: 0.68, StackedCoverage: 0.37, RowRepeats: 0.9, WriteFraction: 0.27, Shuffle: true},
}

// Profiles returns all benchmark profiles in the paper's figure order.
func Profiles() []Profile {
	out := make([]Profile, len(profiles))
	copy(out, profiles)
	return out
}

// ByName returns the named profile.
func ByName(name string) (Profile, error) {
	for _, p := range profiles {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("workload: unknown benchmark %q", name)
}

// Names returns the benchmark names in figure order.
func Names() []string {
	out := make([]string, len(profiles))
	for i, p := range profiles {
		out[i] = p.Name
	}
	return out
}

// Idle returns the near-idle workload of section 4.6 ("simulating an idle
// OS"): accesses to well under 1% of the rows per interval, which must
// trip the Smart Refresh self-disable.
func Idle() Profile {
	return Profile{
		Name:            "idle-os",
		Suite:           "synthetic",
		MainCoverage:    0.002, // restores stay under 1% of rows per interval
		StackedCoverage: 0.002,
		RowRepeats:      1.0,
		WriteFraction:   0.2,
	}
}
