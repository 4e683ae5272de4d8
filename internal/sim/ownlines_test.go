package sim

import (
	"testing"
	"unsafe"
)

// span is an object's bytes, as the cache lines [first, last] it touches.
type span struct{ first, last uintptr }

func spanOf(p unsafe.Pointer, size uintptr) span {
	a := uintptr(p)
	return span{a / CacheLine, (a + size - 1) / CacheLine}
}

func (s span) overlaps(o span) bool { return s.first <= o.last && o.first <= s.last }

type odd struct {
	a int64
	b byte
	c [3]int32
} // 24 bytes, not a divisor of the line

// An owned object shares no cache line with any other allocation: here,
// with plain allocations of every size class it is likely to sit next
// to, made in between, and with other owned objects.
func TestOwnLinesShareNoLine(t *testing.T) {
	var owned, plain []span
	keep := make([]any, 0, 4096) // keeps every allocation live, so none is reused
	for i := 0; i < 200; i++ {
		n := 1 + i%9
		b := OwnLines[byte](n)
		w := OwnLines[uint64](n)
		o := OwnLines[odd](n)
		p := OwnLine[odd]()
		q := OwnLine[int32]()
		keep = append(keep, b, w, o, p, q)
		owned = append(owned,
			spanOf(unsafe.Pointer(&b[0]), uintptr(cap(b))),
			spanOf(unsafe.Pointer(&w[0]), uintptr(cap(w))*8),
			spanOf(unsafe.Pointer(&o[0]), uintptr(cap(o))*unsafe.Sizeof(odd{})),
			spanOf(unsafe.Pointer(p), unsafe.Sizeof(*p)),
			spanOf(unsafe.Pointer(q), unsafe.Sizeof(*q)))
		for _, size := range []int{8, 16, 24, 48, 64, 96, 128, 144, 160, 192, 256} {
			x := make([]byte, size)
			keep = append(keep, x)
			plain = append(plain, spanOf(unsafe.Pointer(&x[0]), uintptr(size)))
		}
	}
	for i, s := range owned {
		for _, p := range plain {
			if s.overlaps(p) {
				t.Fatalf("owned object %d (lines %#x-%#x) shares a line with a plain allocation (lines %#x-%#x)",
					i, s.first, s.last, p.first, p.last)
			}
		}
		for j := i + 1; j < len(owned); j++ {
			if s.overlaps(owned[j]) {
				t.Fatalf("owned objects %d and %d share a line", i, j)
			}
		}
	}
	_ = keep
}

func TestOwnLinesShape(t *testing.T) {
	s := OwnLines[odd](5)
	if len(s) != 5 || cap(s) != 5 {
		t.Fatalf("len %d cap %d, want 5 5", len(s), cap(s))
	}
	for i, v := range s {
		if v != (odd{}) {
			t.Fatalf("element %d = %+v, want zero", i, v)
		}
	}
	if s := OwnLines[int](0); len(s) != 0 || cap(s) != 0 {
		t.Fatalf("empty: len %d cap %d", len(s), cap(s))
	}
	if s := OwnLines[struct{}](3); len(s) != 3 {
		t.Fatalf("zero-size elements: len %d, want 3", len(s))
	}
	if p := OwnLine[odd](); *p != (odd{}) {
		t.Fatalf("OwnLine = %+v, want zero", *p)
	}
}

func TestGrowOwn(t *testing.T) {
	s := OwnLines[int](4)[:2]
	s[0], s[1] = 7, 8
	if g := GrowOwn(s, 2); &g[0] != &s[0] || len(g) != 2 {
		t.Fatal("GrowOwn moved a slice that had room")
	}
	g := GrowOwn(s, 3)
	if &g[0] == &s[0] {
		t.Fatal("GrowOwn kept a slice without room")
	}
	if len(g) != 2 || g[0] != 7 || g[1] != 8 || cap(g) < 5 {
		t.Fatalf("grown slice %v (cap %d), want [7 8] with cap >= 5", g, cap(g))
	}
	// The grown storage is owned: a plain allocation made right after
	// it does not share its lines.
	x := make([]int, cap(g))
	if spanOf(unsafe.Pointer(&g[:1][0]), uintptr(cap(g))*8).overlaps(spanOf(unsafe.Pointer(&x[0]), uintptr(len(x))*8)) {
		t.Fatal("grown storage shares a line with the next allocation")
	}
	var empty []int
	if g := GrowOwn(empty, 1); len(g) != 0 || cap(g) < 1 {
		t.Fatalf("GrowOwn(nil, 1): len %d cap %d", len(g), cap(g))
	}
}
