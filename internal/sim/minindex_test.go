package sim

import "testing"

// bruteMin is the reference for MinIndex.Min: a scan over the keys with
// a strict <, so the lowest slot wins a tie.
func bruteMin(keys []Time, set []bool) (Time, int, bool) {
	var at Time
	i, ok := 0, false
	for j := range keys {
		if set[j] && (!ok || keys[j] < at) {
			at, i, ok = keys[j], j, true
		}
	}
	return at, i, ok
}

func TestMinIndexTieBreak(t *testing.T) {
	const none = -1
	steps := []struct {
		name   string
		slot   int
		at     Time // none empties the slot
		wantAt Time
		want   int
		wantOK bool
	}{
		{"slot 0 of four equal keys", 0, 50, 50, 0, true},
		{"slot 1 of four equal keys", 1, 50, 50, 0, true},
		{"slot 2 of four equal keys", 2, 50, 50, 0, true},
		{"four equal keys", 3, 50, 50, 0, true},
		{"equal rewrite of a higher slot", 3, 50, 50, 0, true},
		{"earlier key", 2, 40, 40, 2, true},
		{"equal key, lower slot", 1, 40, 40, 1, true},
		{"minimum moved later", 1, 90, 40, 2, true},
		{"minimum moved later, equal survivors", 2, 90, 50, 0, true},
		{"cleared minimum", 0, none, 50, 3, true},
		{"cleared non-minimum", 1, none, 50, 3, true},
		{"only slot 2 left", 3, none, 90, 2, true},
		{"every slot cleared", 2, none, 0, 0, false},
		{"refilled after empty", 1, 70, 70, 1, true},
	}
	x := NewMinIndex(4)
	if at, i, ok := x.Min(); ok {
		t.Fatalf("new index: Min = (%v, %d, true), want empty", at, i)
	}
	for _, s := range steps {
		if s.at == none {
			x.Clear(s.slot)
		} else {
			x.Set(s.slot, s.at)
		}
		if at, i, ok := x.Min(); at != s.wantAt || i != s.want || ok != s.wantOK {
			t.Fatalf("%s: Min = (%v, %d, %v), want (%v, %d, %v)", s.name, at, i, ok, s.wantAt, s.want, s.wantOK)
		}
		if at, ok := x.Key(s.slot); ok != (s.at != none) || ok && at != s.at {
			t.Fatalf("%s: Key(%d) = (%v, %v)", s.name, s.slot, at, ok)
		}
	}

	for _, z := range []MinIndex{{}, NewMinIndex(0)} {
		if at, i, ok := z.Min(); at != 0 || i != 0 || ok {
			t.Errorf("index of no slots: Min = (%v, %d, %v), want empty", at, i, ok)
		}
	}
}

// TestMinIndexMatchesBruteForce drives every size from 1 to 65 (powers
// of two and the sizes between them) with seeded sets and clears over a
// narrow key range, so ties are common, and compares Min and Key with a
// scan after every update.
func TestMinIndexMatchesBruteForce(t *testing.T) {
	for n := 1; n <= 65; n++ {
		rng := NewRNG(uint64(n))
		checkMinIndex(t, n, 40*n, func() (int, Time, bool) {
			return rng.Intn(n), Time(rng.Intn(8)), rng.Bool(0.2)
		})
	}
}

// checkMinIndex applies steps updates drawn from next to a MinIndex of n
// slots and to a plain key array, and fails on the first disagreement.
func checkMinIndex(t *testing.T, n, steps int, next func() (slot int, at Time, drop bool)) {
	t.Helper()
	x := NewMinIndex(n)
	keys, set := make([]Time, n), make([]bool, n)
	for s := 0; s < steps; s++ {
		i, at, drop := next()
		if drop {
			x.Clear(i)
			set[i] = false
		} else {
			x.Set(i, at)
			keys[i], set[i] = at, true
		}
		gAt, gI, gOK := x.Min()
		bAt, bI, bOK := bruteMin(keys, set)
		if gAt != bAt || gI != bI || gOK != bOK {
			t.Fatalf("n=%d step %d: Min = (%v, %d, %v), scan (%v, %d, %v)", n, s, gAt, gI, gOK, bAt, bI, bOK)
		}
		if k, ok := x.Key(i); ok != set[i] || ok && k != keys[i] {
			t.Fatalf("n=%d step %d: Key(%d) = (%v, %v), want (%v, %v)", n, s, i, k, ok, keys[i], set[i])
		}
	}
}

// FuzzMinIndex compares MinIndex with the scan on fuzzed sizes and
// update sequences: each byte pair of ops is one update, a slot and a
// key, where key 0xff clears the slot.
func FuzzMinIndex(f *testing.F) {
	f.Add(uint8(4), []byte{0, 5, 1, 5, 2, 3, 1, 3, 1, 9, 0xff, 0xff})
	f.Add(uint8(0), []byte{0, 1, 0, 0xff, 0, 2})
	f.Add(uint8(64), []byte{63, 0, 31, 0, 32, 0, 63, 0xff})
	f.Fuzz(func(t *testing.T, size uint8, ops []byte) {
		n := 1 + int(size)%65
		k := 0
		checkMinIndex(t, n, len(ops)/2, func() (int, Time, bool) {
			slot, key := int(ops[k])%n, ops[k+1]
			k += 2
			return slot, Time(key % 16), key == 0xff
		})
	})
}
