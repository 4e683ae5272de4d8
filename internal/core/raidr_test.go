package core

import (
	"testing"

	"smartrefresh/internal/dram"
	"smartrefresh/internal/sim"
)

func TestBloomFilterNoFalseNegatives(t *testing.T) {
	f := NewBloomFilter(1<<12, 6, 12345)
	for k := uint64(0); k < 500; k++ {
		f.Add(k * 3)
	}
	if f.Count() != 500 {
		t.Fatalf("Count = %d, want 500", f.Count())
	}
	for k := uint64(0); k < 500; k++ {
		if !f.Contains(k * 3) {
			t.Fatalf("added key %d not found: Bloom filters must have no false negatives", k*3)
		}
	}
}

func TestBloomFilterFalsePositiveRate(t *testing.T) {
	// 16 bits/key with 6 hashes: the theoretical false-positive rate is
	// well under 0.1%; assert a loose 5% ceiling so the test stays
	// robust to hash-function quality rather than exact analysis.
	f := NewBloomFilter(1<<16, 6, 1)
	const n = 4096 // 16 bits/key -> theoretical FP rate ~ 0.04%
	for k := uint64(0); k < n; k++ {
		f.Add(k)
	}
	fp := 0
	const probes = 20000
	for k := uint64(n); k < n+probes; k++ {
		if f.Contains(k) {
			fp++
		}
	}
	if rate := float64(fp) / probes; rate > 0.05 {
		t.Fatalf("false-positive rate %.4f exceeds 5%% at 16 bits/key", rate)
	}
}

func TestBloomFilterValidate(t *testing.T) {
	for _, tc := range []struct {
		name   string
		bits   int
		hashes int
	}{
		{"bits not power of two", 100, 4},
		{"bits too small", 32, 4},
		{"zero hashes", 1 << 10, 0},
		{"too many hashes", 1 << 10, 17},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewBloomFilter(%d, %d) did not panic", tc.bits, tc.hashes)
				}
			}()
			NewBloomFilter(tc.bits, tc.hashes, 0)
		})
	}
}

func TestRAIDRConfigValidate(t *testing.T) {
	if err := DefaultRAIDRConfig().validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*RAIDRConfig)
	}{
		{"no bins", func(c *RAIDRConfig) { c.BinMultipliers = []int{} }},
		{"first bin not 1", func(c *RAIDRConfig) { c.BinMultipliers = []int{2, 4} }},
		{"not increasing", func(c *RAIDRConfig) { c.BinMultipliers = []int{1, 4, 2} }},
		{"duplicate bin", func(c *RAIDRConfig) { c.BinMultipliers = []int{1, 2, 2} }},
		{"multiplier too large", func(c *RAIDRConfig) { c.BinMultipliers = []int{1, 32} }},
		{"bloom bits not power of two", func(c *RAIDRConfig) { c.BloomBits = 1000 }},
		{"bloom hashes out of range", func(c *RAIDRConfig) { c.BloomHashes = 99 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultRAIDRConfig()
			tc.mut(&cfg)
			if cfg.validate() == nil {
				t.Fatalf("config %+v unexpectedly valid", cfg)
			}
		})
	}
}

func TestRAIDRConstructorPanics(t *testing.T) {
	g := smallGeom()
	rmap := testRetentionMap(t, g)
	t.Run("nil profile", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("NewRAIDR with nil profile did not panic")
			}
		}()
		NewRAIDR(g, testInterval, DefaultRAIDRConfig(), nil)
	})
	t.Run("invalid config", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("NewRAIDR with invalid config did not panic")
			}
		}()
		cfg := DefaultRAIDRConfig()
		cfg.BinMultipliers = []int{2, 4}
		NewRAIDR(g, testInterval, cfg, rmap)
	})
}

// TestRAIDRConservativeBins is the false-positive safety property: the
// bin the wheel operates a row at is never weaker-retention (larger
// multiplier) than the bin its profiled class maps to. False positives
// may demote rows to smaller multipliers, never promote them.
func TestRAIDRConservativeBins(t *testing.T) {
	g := paperGeom2GB()
	rmap := testRetentionMap(t, g)
	r := NewRAIDR(g, testInterval, DefaultRAIDRConfig(), rmap)
	configured := map[int]bool{}
	for _, m := range r.cfg.BinMultipliers {
		configured[m] = true
	}
	for flat := 0; flat < g.TotalRows(); flat++ {
		got := r.BinMultiplier(flat)
		if !configured[got] {
			t.Fatalf("row %d resolved to multiplier %d, not a configured bin", flat, got)
		}
		assigned := r.cfg.BinMultipliers[r.binIndexFor(rmap.multiplierFlat(flat))]
		if got > assigned {
			t.Fatalf("row %d (profiled mult %d, assigned bin %d) resolved to weaker bin %d",
				flat, rmap.multiplierFlat(flat), assigned, got)
		}
		if assigned > rmap.multiplierFlat(flat) {
			t.Fatalf("row %d profiled mult %d assigned to bin %d beyond its retention",
				flat, rmap.multiplierFlat(flat), assigned)
		}
	}
}

// runRAIDRWheel drives the wheel over the given span and returns the
// refresh times per flat row index.
func runRAIDRWheel(t *testing.T, r *RAIDR, g dram.Geometry, end sim.Time) [][]sim.Time {
	t.Helper()
	times := make([][]sim.Time, g.TotalRows())
	var cmds []Command
	var now sim.Time
	for {
		next, ok := r.NextTick()
		if !ok || next > end {
			break
		}
		now = next
		cmds = r.Advance(now, cmds[:0])
		for _, c := range cmds {
			if c.Kind != dram.RefreshRASOnly || c.Row < 0 {
				t.Fatalf("raidr emitted non-RAS-only command %+v", c)
			}
			flat := c.Bank*g.Rows + c.Row
			times[flat] = append(times[flat], now)
		}
	}
	return times
}

// TestRAIDRWheelSchedule checks the multirate cadence on a uniform-class
// map: every row of class c is refreshed exactly once per c base
// intervals, with successive refreshes exactly c*interval apart.
func TestRAIDRWheelSchedule(t *testing.T) {
	g := smallGeom()
	for _, mult := range []int{1, 2, 4} {
		ms := make([]uint8, g.TotalRows())
		for i := range ms {
			ms[i] = uint8(mult)
		}
		rmap := NewRetentionMapFromMultipliers(g, ms)
		r := NewRAIDR(g, testInterval, DefaultRAIDRConfig(), rmap)

		const passes = 8
		end := sim.Time(passes) * sim.Time(testInterval)
		times := runRAIDRWheel(t, r, g, end-1)

		for flat, ts := range times {
			// A false positive could legitimately demote a row to a
			// smaller multiplier; resolve the operating bin first.
			op := r.BinMultiplier(flat)
			if op > mult {
				t.Fatalf("row %d operating bin %d weaker than uniform class %d", flat, op, mult)
			}
			want := passes / op
			if len(ts) != want {
				t.Fatalf("class-%d row %d refreshed %d times in %d passes, want %d",
					mult, flat, len(ts), passes, want)
			}
			for i := 1; i < len(ts); i++ {
				gap := sim.Duration(ts[i] - ts[i-1])
				if gap != sim.Duration(op)*testInterval {
					t.Fatalf("row %d gap %v, want %v", flat, gap, sim.Duration(op)*testInterval)
				}
			}
		}
	}
}

// TestRAIDRRefreshShare checks that the measured refresh volume matches
// the share the filter programming predicts, and that a mixed-class map
// refreshes measurably fewer rows than the CBR baseline.
func TestRAIDRRefreshShare(t *testing.T) {
	g := paperGeom2GB()
	rmap := testRetentionMap(t, g)
	r := NewRAIDR(g, testInterval, DefaultRAIDRConfig(), rmap)

	share := r.RefreshShare()
	if share <= 0 || share > 1 {
		t.Fatalf("RefreshShare = %v, want in (0, 1]", share)
	}
	// Default classes: 20% at 1x, 50% at 2x, 30% at 4x -> share near
	// 0.2 + 0.5/2 + 0.3/4 = 0.525 (false positives push it up slightly).
	if share < 0.5 || share > 0.62 {
		t.Fatalf("RefreshShare = %v, want near 0.525 for the default classes", share)
	}

	const passes = 4
	end := sim.Time(passes)*sim.Time(testInterval) - 1
	var cmds []Command
	refreshes := 0
	for {
		next, ok := r.NextTick()
		if !ok || next > end {
			break
		}
		cmds = r.Advance(next, cmds[:0])
		refreshes += len(cmds)
	}
	cbr := passes * g.TotalRows()
	want := share * float64(cbr)
	// The lcm of the bin multipliers divides passes, so the measured
	// count matches the share up to float rounding.
	if diff := float64(refreshes) - want; diff < -1 || diff > 1 {
		t.Fatalf("refreshes = %d over %d passes, want %v (share %v of CBR's %d)",
			refreshes, passes, want, share, cbr)
	}
	if refreshes >= cbr {
		t.Fatalf("raidr issued %d refreshes, not fewer than CBR's %d", refreshes, cbr)
	}

	st := r.Stats()
	if st.RefreshesRequested != uint64(refreshes) {
		t.Fatalf("stats RefreshesRequested = %d, want %d", st.RefreshesRequested, refreshes)
	}
	if st.BloomLookups != uint64(passes*g.TotalRows()) {
		t.Fatalf("BloomLookups = %d, want %d (one per wheel slot)", st.BloomLookups, passes*g.TotalRows())
	}
	if st.SkippedIndexings != st.BloomLookups-st.RefreshesRequested {
		t.Fatalf("SkippedIndexings = %d, want lookups-refreshes = %d",
			st.SkippedIndexings, st.BloomLookups-st.RefreshesRequested)
	}
}

// TestRAIDRProfiledDeadlines is the tentpole property: driving the idle
// wheel and feeding its refreshes to a retention checker built from the
// *profiled* map must produce zero violations — no row ever crosses its
// profiled retention deadline.
func TestRAIDRProfiledDeadlines(t *testing.T) {
	g := smallGeom()
	rmap := testRetentionMap(t, g)
	r := NewRAIDR(g, testInterval, DefaultRAIDRConfig(), rmap)

	chk := NewRetentionChecker(g, sim.Duration(testInterval)+sim.Duration(testInterval)/sim.Duration(g.TotalRows())+1, rmap)
	end := 10 * sim.Time(testInterval)
	var cmds []Command
	for {
		next, ok := r.NextTick()
		if !ok || next > end {
			break
		}
		cmds = r.Advance(next, cmds[:0])
		for _, c := range cmds {
			chk.OnRestore(next, c.Bank, c.Row)
		}
	}
	chk.CheckEnd(end)
	if err := chk.Err(); err != nil {
		t.Fatalf("profiled retention deadline crossed: %v", err)
	}
}

// TestRAIDRDeterminism: Reset restores the wheel exactly; two runs emit
// identical command streams.
func TestRAIDRDeterminism(t *testing.T) {
	g := smallGeom()
	rmap := testRetentionMap(t, g)
	r := NewRAIDR(g, testInterval, DefaultRAIDRConfig(), rmap)

	run := func() []Command {
		r.Reset(0)
		var out []Command
		end := 5 * sim.Time(testInterval)
		for {
			next, ok := r.NextTick()
			if !ok || next > end {
				break
			}
			out = r.Advance(next, out)
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("command %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	if len(a) == 0 {
		t.Fatal("no commands emitted")
	}
}

func TestRAIDRFilterSizeConstant(t *testing.T) {
	small := smallGeom()
	big := paperGeom2GB()
	rs := NewRAIDR(small, testInterval, DefaultRAIDRConfig(), testRetentionMap(t, small))
	rb := NewRAIDR(big, testInterval, DefaultRAIDRConfig(), testRetentionMap(t, big))
	if rs.FilterSizeBytes() != rb.FilterSizeBytes() {
		t.Fatalf("filter storage depends on row count: %d vs %d bytes",
			rs.FilterSizeBytes(), rb.FilterSizeBytes())
	}
	// Default: two explicit bins at 1 Mi bits = 128 KB each.
	if want := 2 * (1 << 20) / 8; rs.FilterSizeBytes() != want {
		t.Fatalf("FilterSizeBytes = %d, want %d", rs.FilterSizeBytes(), want)
	}
}

// FuzzRAIDRBinLookup fuzzes the Bloom-filter bin resolution against the
// conservative-refresh invariant: whatever the seed, filter sizing, and
// profiled class mix, every row's resolved multiplier is a configured
// bin no weaker than the bin its profile assigns.
func FuzzRAIDRBinLookup(f *testing.F) {
	f.Add(uint64(1), uint(10), uint8(3), uint64(42))
	f.Add(uint64(0x5241494452), uint(16), uint8(6), uint64(7))
	f.Add(uint64(99), uint(6), uint8(1), uint64(0))
	f.Fuzz(func(t *testing.T, seed uint64, bitsLog uint, hashes uint8, mapSeed uint64) {
		g := smallGeom()
		cfg := DefaultRAIDRConfig()
		cfg.Seed = seed
		cfg.BloomBits = 1 << (6 + bitsLog%11) // 64 .. 64 Ki bits
		cfg.BloomHashes = 1 + int(hashes%16)
		rmap := NewRetentionMap(g, DefaultRetentionClasses(), mapSeed)
		r := NewRAIDR(g, testInterval, cfg, rmap)
		configured := map[int]bool{}
		for _, m := range cfg.BinMultipliers {
			configured[m] = true
		}
		for flat := 0; flat < g.TotalRows(); flat++ {
			got := r.BinMultiplier(flat)
			if !configured[got] {
				t.Fatalf("row %d resolved to %d, not a configured bin", flat, got)
			}
			if assigned := cfg.BinMultipliers[r.binIndexFor(rmap.multiplierFlat(flat))]; got > assigned {
				t.Fatalf("seed %d bits %d hashes %d: row %d resolved to %d beyond assigned bin %d",
					seed, cfg.BloomBits, cfg.BloomHashes, flat, got, assigned)
			}
		}
	})
}
