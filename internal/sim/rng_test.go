package sim

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical draws", same)
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 99 {
		t.Fatalf("zero seed generator produced only %d distinct values", len(seen))
	}
}

func TestForkIndependence(t *testing.T) {
	parent := NewRNG(7)
	child := parent.Fork()
	// The child and what remains of the parent stream should not track
	// each other.
	same := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("fork produced %d/100 identical draws", same)
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(3)
	for n := 1; n < 40; n++ {
		for i := 0; i < 50; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestUint64nPowerOfTwo(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 1000; i++ {
		if v := r.Uint64n(8); v >= 8 {
			t.Fatalf("Uint64n(8) = %d", v)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(9)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
		sum += v
	}
	mean := sum / n
	if mean < 0.48 || mean > 0.52 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestBoolEdges(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := NewRNG(13)
	hits := 0
	const n = 50000
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.23 || frac > 0.27 {
		t.Errorf("Bool(0.25) hit rate %v", frac)
	}
}

// chanceProbabilities spans both clamps, the smallest and largest
// probabilities strictly inside (0, 1), and values with and without an
// exact 53-bit scaling.
var chanceProbabilities = []float64{-1, 0, 0x1p-60, 1.0 / 3, 0.5, 1 - 0x1p-53, 1, 2}

func TestHitMatchesBoolDrawForDraw(t *testing.T) {
	for i, p := range chanceProbabilities {
		a, b := NewRNG(uint64(100+i)), NewRNG(uint64(100+i))
		c := NewChance(p)
		for n := 0; n < 100000; n++ {
			if want, got := a.Bool(p), b.Hit(c); got != want {
				t.Fatalf("p=%v draw %d: Hit %v, Bool %v", p, n, got, want)
			}
		}
		if a.s != b.s {
			t.Errorf("p=%v: RNG states differ after the draws", p)
		}
	}
}

// TestChanceThresholdExact checks the boundary draw on both sides: the
// largest 53-bit draw Hit accepts is one Bool accepts, and the next one
// is rejected by both.
func TestChanceThresholdExact(t *testing.T) {
	for _, p := range chanceProbabilities {
		c := NewChance(p)
		if c == 0 || c == chanceAlways {
			continue
		}
		if x := uint64(c) - 1; !(float64(x)/(1<<53) < p) {
			t.Errorf("p=%v: draw %d below NewChance is not a Bool hit", p, x)
		}
		if x := uint64(c); float64(x)/(1<<53) < p {
			t.Errorf("p=%v: draw %d at NewChance is a Bool hit", p, x)
		}
	}
	if got := NewChance(0x1p-60); got != 1 {
		t.Errorf("NewChance(2^-60) = %d, want 1", got)
	}
	if got := NewChance(1 - 0x1p-53); got != chanceAlways-1 {
		t.Errorf("NewChance(1-2^-53) = %d, want 2^53-1", got)
	}
}

func TestNewChanceNaNPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewChance(NaN) did not panic")
		}
	}()
	NewChance(math.NaN())
}

func TestExpMean(t *testing.T) {
	r := NewRNG(17)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Exp(10)
		if v < 0 {
			t.Fatalf("Exp returned negative %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-10) > 0.3 {
		t.Errorf("Exp(10) sample mean %v, want ~10", mean)
	}
}

func TestExpNonPositiveMean(t *testing.T) {
	r := NewRNG(1)
	if r.Exp(0) != 0 || r.Exp(-1) != 0 {
		t.Error("Exp of non-positive mean should be 0")
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(19)
	out := make([]uint32, 64)
	r.Perm(out)
	seen := make([]bool, 64)
	for _, v := range out {
		if v >= 64 || seen[v] {
			t.Fatalf("Perm produced invalid permutation: %v", out)
		}
		seen[v] = true
	}
}

// Property: Uint64n always respects its bound for arbitrary bounds.
func TestUint64nBoundProperty(t *testing.T) {
	r := NewRNG(23)
	f := func(bound uint64) bool {
		if bound == 0 {
			bound = 1
		}
		return r.Uint64n(bound) < bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: Int63n stays in range for arbitrary positive bounds.
func TestInt63nBoundProperty(t *testing.T) {
	r := NewRNG(29)
	f := func(bound int64) bool {
		if bound <= 0 {
			bound = 1
		}
		v := r.Int63n(bound)
		return v >= 0 && v < bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// uint64nEager is the eager-threshold form of Lemire's method: it takes
// 2^64 mod n on every call. Uint64n defers that division but keeps the
// same accept set, so the two must return identical values and consume
// identical streams.
func uint64nEager(r *RNG, n uint64) uint64 {
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	threshold := -n % n
	for {
		hi, lo := bits.Mul64(r.Uint64(), n)
		if lo >= threshold {
			return hi
		}
	}
}

func TestUint64nMatchesEagerThreshold(t *testing.T) {
	ns := []uint64{3, 6, 1e9 + 7, 1<<63 + 1, math.MaxUint64}
	pick := NewRNG(99)
	for i := 0; i < 64; i++ {
		ns = append(ns, max(pick.Uint64()>>pick.Intn(64), 1))
	}
	for _, n := range ns {
		got, want := NewRNG(n), NewRNG(n)
		for i := 0; i < 2000; i++ {
			if g, w := got.Uint64n(n), uint64nEager(want, n); g != w {
				t.Fatalf("n=%d draw %d: Uint64n = %d, eager reference = %d", n, i, g, w)
			}
		}
		if got.Uint64() != want.Uint64() {
			t.Fatalf("n=%d: streams diverged after 2000 draws", n)
		}
	}
}
