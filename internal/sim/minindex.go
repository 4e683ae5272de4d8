package sim

import (
	"fmt"
	"math"
)

// MinIndex is an earliest-deadline index over a fixed number of slots
// 0..n-1. Each slot holds one Time key or is empty, and Min names the
// smallest key with ties to the lowest slot: the order is (key, slot).
//
// It is a tournament tree. The slots are the leaves of a complete binary
// tree padded to a power of two, and each inner node holds the winner of
// its two children, the left one on ties. A left subtree covers only
// slots below those of its right sibling, so the root is the (key, slot)
// minimum. Set and Clear replay one leaf-to-root path, O(log n); Key and
// Min are O(1). The zero value is an index of no slots.
type MinIndex struct {
	base int        // leaf count, a power of two: slot i is node[base+i]
	node []minEntry // node[1] is the root, node[k]'s children node[2k] and node[2k+1]
	leaf []minEntry // node[base : base+n], so a slot outside the index panics
}

// minEntry is a node of the tree: the winning slot of its subtree and
// that slot's key.
type minEntry struct {
	at Time
	i  int
}

// empty is an empty slot's key; it sorts after every real key. Setting a
// slot to the largest Time therefore empties it.
const empty = Time(math.MaxInt64)

// NewMinIndex returns an index of n slots, all empty.
func NewMinIndex(n int) MinIndex {
	if n < 0 {
		panic(fmt.Sprintf("sim: MinIndex of %d slots", n))
	}
	base := 1
	for base < n {
		base <<= 1
	}
	node := OwnLines[minEntry](2 * base)
	x := MinIndex{base: base, node: node, leaf: node[base : base+n]}
	x.Reset()
	return x
}

// Reset empties every slot, keeping the slot count and the tree's
// storage: the index NewMinIndex returns.
func (x *MinIndex) Reset() {
	node, base := x.node, x.base
	for k := range node {
		node[k].at = empty
	}
	for i := 0; i < base; i++ {
		node[base+i].i = i
	}
	for k := base - 1; k >= 1; k-- {
		node[k] = node[2*k]
	}
}

// Set gives slot i the key at, replacing any key it held.
func (x *MinIndex) Set(i int, at Time) {
	if x.leaf[i].at == at {
		return
	}
	x.leaf[i].at = at
	for k := x.base + i; k > 1; {
		k >>= 1
		w, r := x.node[2*k], x.node[2*k+1]
		if r.at < w.at {
			w = r
		}
		x.node[k] = w
	}
}

// Clear empties slot i.
func (x *MinIndex) Clear(i int) { x.Set(i, empty) }

// Key returns slot i's key; ok is false, with a zero key, when the slot
// is empty.
func (x *MinIndex) Key(i int) (at Time, ok bool) {
	if at = x.leaf[i].at; at == empty {
		return 0, false
	}
	return at, true
}

// Min returns the smallest key and its slot, the lowest slot among equal
// keys; ok is false, with a zero key and slot, when every slot is empty.
func (x *MinIndex) Min() (at Time, i int, ok bool) {
	if len(x.node) == 0 || x.node[1].at == empty {
		return 0, 0, false
	}
	w := x.node[1]
	return w.at, w.i, true
}
