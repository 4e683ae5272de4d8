package core

import (
	"testing"
	"testing/quick"

	"smartrefresh/internal/dram"
	"smartrefresh/internal/sim"
)

func testRetentionMap(t *testing.T, g dram.Geometry) *RetentionMap {
	t.Helper()
	return NewRetentionMap(g, DefaultRetentionClasses(), 42)
}

func TestRetentionMapFractions(t *testing.T) {
	g := dram.Geometry{
		Channels: 1, Ranks: 1, Banks: 4, Rows: 4096, Columns: 16,
		DataWidthBits: 72, BurstLength: 4, DevicesPerRank: 2,
	}
	m := testRetentionMap(t, g)
	h := m.Histogram()
	total := g.TotalRows()
	frac := func(mult int) float64 { return float64(h[mult]) / float64(total) }
	if f := frac(1); f < 0.17 || f > 0.23 {
		t.Errorf("class-1 fraction = %v, want ~0.20", f)
	}
	if f := frac(2); f < 0.46 || f > 0.54 {
		t.Errorf("class-2 fraction = %v, want ~0.50", f)
	}
	if f := frac(4); f < 0.26 || f > 0.34 {
		t.Errorf("class-4 fraction = %v, want ~0.30", f)
	}
}

func TestRetentionMapDeterministic(t *testing.T) {
	g := smallGeom()
	a := NewRetentionMap(g, DefaultRetentionClasses(), 7)
	b := NewRetentionMap(g, DefaultRetentionClasses(), 7)
	for flat := 0; flat < g.TotalRows(); flat++ {
		row := dram.RowFromFlat(&g, flat)
		if a.Multiplier(row) != b.Multiplier(row) {
			t.Fatalf("map not deterministic at %v", row)
		}
	}
}

func TestRetentionMapDeadline(t *testing.T) {
	g := smallGeom()
	m := testRetentionMap(t, g)
	for flat := 0; flat < g.TotalRows(); flat++ {
		row := dram.RowFromFlat(&g, flat)
		want := sim.Duration(m.Multiplier(row)) * testInterval
		if got := m.Deadline(row, testInterval); got != want {
			t.Fatalf("deadline of %v = %v, want %v", row, got, want)
		}
	}
}

func TestRetentionMapValidation(t *testing.T) {
	g := smallGeom()
	cases := []struct {
		name    string
		classes []RetentionClass
	}{
		{"empty", nil},
		{"zero multiplier", []RetentionClass{{Multiplier: 0, Fraction: 1}}},
		{"huge multiplier", []RetentionClass{{Multiplier: 17, Fraction: 1}}},
		{"negative fraction", []RetentionClass{{Multiplier: 1, Fraction: -1}}},
		{"zero total", []RetentionClass{{Multiplier: 1, Fraction: 0}}},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted", c.name)
				}
			}()
			NewRetentionMap(g, c.classes, 1)
		}()
	}
}

// TestRetentionMapSeedIdentical: same seed, same classes -> the whole
// multiplier assignment is bit-identical across reruns, not merely equal
// per sampled row.
func TestRetentionMapSeedIdentical(t *testing.T) {
	g := paperGeom2GB()
	a := NewRetentionMap(g, DefaultRetentionClasses(), 12345).Multipliers()
	b := NewRetentionMap(g, DefaultRetentionClasses(), 12345).Multipliers()
	if len(a) != len(b) || len(a) != g.TotalRows() {
		t.Fatalf("multiplier slice lengths %d/%d, want %d", len(a), len(b), g.TotalRows())
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("multipliers diverge at flat %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := NewRetentionMap(g, DefaultRetentionClasses(), 12346).Multipliers()
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical maps")
	}
}

// TestRetentionMapClassifyFallback exercises the floating-point
// shortfall path: a draw at (or beyond) the summed total escapes the
// accumulation loop and must land in the last class, not panic or
// return a zero multiplier.
func TestRetentionMapClassifyFallback(t *testing.T) {
	classes := DefaultRetentionClasses()
	var total float64
	for _, c := range classes {
		total += c.Fraction
	}
	last := uint8(classes[len(classes)-1].Multiplier)
	if got := classify(classes, total); got != last {
		t.Fatalf("classify(total) = %d, want last class %d", got, last)
	}
	// Fractions whose partial sums undershoot their pre-summed total in
	// the final ulps: 10 x 0.1 accumulates to < 1.0 exactly.
	tricky := make([]RetentionClass, 10)
	for i := range tricky {
		tricky[i] = RetentionClass{Multiplier: i + 1, Fraction: 0.1}
	}
	var acc float64
	for _, c := range tricky {
		acc += c.Fraction
	}
	if got := classify(tricky, acc); got != uint8(tricky[len(tricky)-1].Multiplier) {
		t.Fatalf("classify at accumulated total = %d, want last class", got)
	}
	if got := classify(classes, 0); got != uint8(classes[0].Multiplier) {
		t.Fatalf("classify(0) = %d, want first class %d", got, classes[0].Multiplier)
	}
}

func TestRetentionMapFromMultipliers(t *testing.T) {
	g := smallGeom()
	ms := make([]uint8, g.TotalRows())
	for i := range ms {
		ms[i] = uint8(1 + i%4)
	}
	m := NewRetentionMapFromMultipliers(g, ms)
	for flat := 0; flat < g.TotalRows(); flat++ {
		if got := m.multiplierFlat(flat); got != int(ms[flat]) {
			t.Fatalf("flat %d: multiplier %d, want %d", flat, got, ms[flat])
		}
	}
	// The constructor copies: mutating the input must not leak through.
	ms[0] = 9
	if m.multiplierFlat(0) == 9 {
		t.Fatal("constructor aliases the caller's slice")
	}
	out := m.Multipliers()
	out[1] = 9
	if m.multiplierFlat(1) == 9 {
		t.Fatal("Multipliers returns an aliased slice")
	}

	for _, tc := range []struct {
		name string
		ms   []uint8
	}{
		{"short slice", make([]uint8, g.TotalRows()-1)},
		{"zero multiplier", make([]uint8, g.TotalRows())},
		{"huge multiplier", func() []uint8 {
			s := make([]uint8, g.TotalRows())
			for i := range s {
				s[i] = 1
			}
			s[3] = 17
			return s
		}()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s accepted", tc.name)
				}
			}()
			NewRetentionMapFromMultipliers(g, tc.ms)
		})
	}
}

// TestRetentionAwareIdleRates: without accesses, a class-c row is
// refreshed once every c intervals (the VRA behaviour), so the total
// refresh volume matches the weighted harmonic rate.
func TestRetentionAwareIdleRates(t *testing.T) {
	g := smallGeom()
	m := testRetentionMap(t, g)
	p := NewRetentionAwareSmart(g, testInterval, smartNoDisable(), m)

	// Count per-row refreshes over 8 intervals after a warmup of 4
	// (class-4 rows need a long horizon to reach steady state).
	var cmds []Command
	cmds = p.Advance(4*testInterval, cmds[:0])
	counts := map[dram.RowID]int{}
	const intervals = 8
	for now := 4 * testInterval; now <= (4+intervals)*testInterval; now += testInterval / 64 {
		cmds = p.Advance(now, cmds[:0])
		for _, c := range cmds {
			counts[c.RowID(&g)]++
		}
	}
	for flat := 0; flat < g.TotalRows(); flat++ {
		row := dram.RowFromFlat(&g, flat)
		mult := m.Multiplier(row)
		want := intervals / mult
		got := counts[row]
		if got < want-1 || got > want+1 {
			t.Errorf("row %v (class %d): %d refreshes over %d intervals, want ~%d",
				row, mult, got, intervals, want)
		}
	}
}

// TestRetentionAwareFewerRefreshes: the combined policy must refresh less
// than plain Smart Refresh on the same traffic (that is the point of the
// extension).
func TestRetentionAwareFewerRefreshes(t *testing.T) {
	g := smallGeom()
	m := testRetentionMap(t, g)
	run := func(p Policy) uint64 {
		rng := sim.NewRNG(3)
		var cmds []Command
		var now sim.Time
		for now < 10*testInterval {
			cmds = p.Advance(now, cmds[:0])
			p.OnRowRestore(now, dram.RowFromFlat(&g, rng.Intn(g.TotalRows())))
			now += 3 * sim.Millisecond
		}
		return p.Stats().RefreshesRequested
	}
	plain := run(NewSmart(g, testInterval, smartNoDisable()))
	aware := run(NewRetentionAwareSmart(g, testInterval, smartNoDisable(), m))
	if aware >= plain {
		t.Errorf("retention-aware %d >= plain smart %d refreshes", aware, plain)
	}
	// With the default classes (20% at 1x, 50% at 2x, 30% at 4x) idle
	// rows refresh at 20% + 25% + 7.5% = 52.5% of the base rate.
	ratio := float64(aware) / float64(plain)
	if ratio < 0.35 || ratio > 0.75 {
		t.Errorf("refresh ratio = %.3f, want around 0.5", ratio)
	}
}

// TestRetentionAwareCorrectness: the per-row deadline invariant holds for
// arbitrary access patterns.
func TestRetentionAwareCorrectness(t *testing.T) {
	g := smallGeom()
	m := testRetentionMap(t, g)
	f := func(seed uint64) bool {
		p := NewRetentionAwareSmart(g, testInterval, smartNoDisable(), m)
		chk := NewRetentionCheckerWithMap(g, testInterval, 0, m)
		rng := sim.NewRNG(seed)
		var cmds []Command
		var now sim.Time
		end := 12 * testInterval
		nextAccess := sim.Time(rng.Int63n(int64(5 * sim.Millisecond)))
		for now < end {
			pt, ok := p.NextTick()
			if ok && pt <= nextAccess && pt <= end {
				now = sim.Max(now, pt)
				cmds = p.Advance(pt, cmds[:0])
				for _, c := range cmds {
					chk.OnRestore(pt, c.RowID(&g))
				}
				continue
			}
			if nextAccess > end {
				break
			}
			now = nextAccess
			row := dram.RowFromFlat(&g, rng.Intn(g.TotalRows()))
			p.OnRowRestore(now, row)
			chk.OnRestore(now, row)
			nextAccess = now + 1 + sim.Time(rng.Int63n(int64(5*sim.Millisecond)))
		}
		chk.CheckEnd(now)
		return chk.Violations() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestRetentionAwareStrictDeadlineViolatedForWeakChecker confirms the
// extension really does exceed the uniform base deadline for strong rows
// (i.e. the test above is not vacuous).
func TestRetentionAwareExceedsBaseDeadline(t *testing.T) {
	g := smallGeom()
	m := testRetentionMap(t, g)
	p := NewRetentionAwareSmart(g, testInterval, smartNoDisable(), m)
	chk := NewRetentionChecker(g, testInterval, 0) // uniform base deadline
	var cmds []Command
	for now := sim.Time(0); now < 6*testInterval; now += testInterval / 128 {
		cmds = p.Advance(now, cmds[:0])
		for _, c := range cmds {
			chk.OnRestore(now, c.RowID(&g))
		}
	}
	if chk.Violations() == 0 {
		t.Error("retention-aware policy never exceeded the base interval; extension inert?")
	}
}

func TestRetentionAwareOverflowGuard(t *testing.T) {
	g := smallGeom()
	classes := []RetentionClass{{Multiplier: 16, Fraction: 1}}
	m := NewRetentionMap(g, classes, 1)
	cfg := smartNoDisable()
	cfg.CounterBits = 5 // 16 << 5 = 512 > 256: must panic
	defer func() {
		if recover() == nil {
			t.Error("counter overflow accepted")
		}
	}()
	NewRetentionAwareSmart(g, testInterval, cfg, m)
}

func TestRetentionAwareName(t *testing.T) {
	g := smallGeom()
	p := NewRetentionAwareSmart(g, testInterval, smartNoDisable(), testRetentionMap(t, g))
	if p.Name() != "smart-retention" {
		t.Errorf("name = %q", p.Name())
	}
	if p.Map() == nil {
		t.Error("map not exposed")
	}
}
