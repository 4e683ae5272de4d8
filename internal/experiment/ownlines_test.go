package experiment

import (
	"cmp"
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"smartrefresh/internal/config"
	"smartrefresh/internal/memctrl"
	"smartrefresh/internal/sim"
	"smartrefresh/internal/workload"
)

// Vault controllers advance on parallel workers, so no cache line may
// hold state of two vaults (DESIGN §16): after a short sharded HMC-8V run
// of every policy a vault can run, under the full power-down ladder and
// the retention checker, no 64-byte line is reachable from two vault
// controllers' object graphs. An object two vaults reach through the
// same pointer is one shared, read-only allocation, not false sharing,
// and is skipped.
func TestVaultStateOwnsCacheLines(t *testing.T) {
	cfg := config.HMC8Vault()
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	ladder := PowerStatePolicies()
	full := ladder[len(ladder)-1]
	for _, e := range Policies() {
		if e.RetentionMap {
			continue // refused on more than one vault
		}
		t.Run(e.Name, func(t *testing.T) {
			opts := RunOptions{
				Warmup:           200 * sim.Microsecond,
				Measure:          sim.Millisecond,
				SelfRefreshAfter: full.SelfRefreshAfter,
				PowerStates:      full.Cfg,
				CheckRetention:   true,
				Shards:           2,
			}
			j := newRunJob(cfg, prof, e.Kind, opts, prof.NewSource(false))
			var shared []string
			j.inspect = func(rt *runTarget) { shared = sharedLines(rt.va) }
			if _, err := execute(context.Background(), &j); err != nil {
				t.Fatal(err)
			}
			if shared == nil {
				t.Fatal("the run was not inspected")
			}
			for _, s := range shared {
				t.Error(s)
			}
		})
	}
}

// block is one memory range a vault controller reaches: a pointer's
// pointee, or a slice's backing array up to its capacity.
type block struct {
	addr, size uintptr
	vault      int
	path       string
}

// sharedLines walks every vault controller of va and describes each pair
// of blocks of different vaults that touch a common cache line. It
// returns a non-nil slice, empty when there is none.
func sharedLines(va *memctrl.VaultArray) []string {
	var blocks []block
	for v := 0; v < va.Vaults(); v++ {
		w := walker{vault: v, seen: map[[2]uintptr]bool{}}
		w.walk(reflect.ValueOf(va.Vault(v)), "")
		blocks = append(blocks, w.blocks...)
	}
	// A block reached from more than one vault is one shared allocation.
	reached := map[[2]uintptr]map[int]bool{}
	for _, b := range blocks {
		k := [2]uintptr{b.addr, b.size}
		if reached[k] == nil {
			reached[k] = map[int]bool{}
		}
		reached[k][b.vault] = true
	}
	blocks = slices.DeleteFunc(blocks, func(b block) bool { return len(reached[[2]uintptr{b.addr, b.size}]) > 1 })

	// Sweep the blocks' line ranges in order of first line, keeping the
	// furthest-reaching block seen and the furthest-reaching one of a
	// different vault: any earlier block of another vault that reaches
	// a block's first line is one of the two.
	first := func(b block) uintptr { return b.addr / sim.CacheLine }
	last := func(b block) uintptr { return (b.addr + b.size - 1) / sim.CacheLine }
	slices.SortStableFunc(blocks, func(a, b block) int { return cmp.Compare(first(a), first(b)) })
	out := []string{}
	seen := map[string]bool{}
	report := func(a, b block) {
		s := fmt.Sprintf("vault %d %s and vault %d %s share cache line %#x",
			a.vault, a.path, b.vault, b.path, first(b)*sim.CacheLine)
		if key := fmt.Sprint(a.path, "|", b.path); !seen[key] {
			seen[key] = true
			out = append(out, s)
		}
	}
	var best, second *block
	for i := range blocks {
		b := &blocks[i]
		switch {
		case best != nil && best.vault != b.vault && last(*best) >= first(*b):
			report(*best, *b)
		case second != nil && last(*second) >= first(*b):
			report(*second, *b)
		}
		switch {
		case best == nil || last(*b) > last(*best):
			if best != nil && best.vault != b.vault {
				second = best
			}
			best = b
		case b.vault != best.vault && (second == nil || last(*b) > last(*second)):
			second = b
		}
	}
	return out
}

// walker collects the blocks one vault controller reaches. Strings and
// functions are immutable or opaque and are not followed; neither are
// maps.
type walker struct {
	vault  int
	seen   map[[2]uintptr]bool
	blocks []block
}

// visit records a block and reports whether it is new.
func (w *walker) visit(addr, size uintptr, path string) bool {
	if size == 0 {
		return false
	}
	if path == "" {
		path = "controller"
	}
	k := [2]uintptr{addr, size}
	if w.seen[k] {
		return false
	}
	w.seen[k] = true
	w.blocks = append(w.blocks, block{addr: addr, size: size, vault: w.vault, path: path})
	return true
}

func (w *walker) walk(v reflect.Value, path string) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return
		}
		if w.visit(v.Pointer(), v.Type().Elem().Size(), path) {
			w.walk(v.Elem(), path)
		}
	case reflect.Interface:
		if !v.IsNil() {
			w.walk(v.Elem(), path)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			name := v.Type().Field(i).Name
			if path != "" {
				name = path + "." + name
			}
			w.walk(v.Field(i), name)
		}
	case reflect.Array:
		if hasPointers(v.Type().Elem()) {
			for i := 0; i < v.Len(); i++ {
				w.walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
			}
		}
	case reflect.Slice:
		if v.Cap() == 0 {
			return
		}
		if w.visit(v.Pointer(), uintptr(v.Cap())*v.Type().Elem().Size(), path) && hasPointers(v.Type().Elem()) {
			for i := 0; i < v.Len(); i++ {
				w.walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
			}
		}
	}
}

// hasPointers reports whether a value of type t can reference a block.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.Interface, reflect.Slice:
		return true
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}
