package sim

import "unsafe"

// CacheLine is the cache-line size OwnLines and OwnLine pad to: 64 bytes
// on every x86-64 and most arm64 parts.
const CacheLine = 64

// Vault-parallel runs advance each vault's controller on its own
// goroutine (ShardRunner). Vaults share no mutable state, but two
// vaults' objects can still share a cache line when the allocator
// places them side by side, and then each write by one worker evicts the
// line from the other's cache: false sharing. OwnLines and OwnLine
// place an object inside a larger allocation with at least CacheLine
// bytes of padding on each side, so no other allocation touches the
// lines it lives on. Every object a vault controller writes during a
// barrier is built through them (DESIGN §16).

// OwnLines returns a slice of n zero Ts, of length and capacity n, that
// shares no cache line with any other allocation. Appending past its
// capacity moves it to ordinary storage; GrowOwn grows it in place of
// append.
func OwnLines[T any](n int) []T {
	size := int(unsafe.Sizeof(*new(T)))
	if size == 0 {
		return make([]T, n)
	}
	pad := (CacheLine + size - 1) / size
	return make([]T, n+2*pad)[pad : pad+n : pad+n]
}

// GrowOwn returns s with room for at least extra more elements: s itself
// when its capacity suffices, otherwise a copy of s in OwnLines storage
// of twice the needed capacity. Appending up to extra elements to the
// result keeps it on lines of its own.
func GrowOwn[T any](s []T, extra int) []T {
	if len(s)+extra <= cap(s) {
		return s
	}
	return append(OwnLines[T](2 * (len(s) + extra))[:0], s...)
}

// OwnLine returns a pointer to a zero T that shares no cache line with
// any other allocation.
func OwnLine[T any]() *T {
	return &new(ownLine[T]).v
}

// ownLine pads v by a full cache line on each side.
type ownLine[T any] struct {
	_ [CacheLine]byte
	v T
	_ [CacheLine]byte
}
