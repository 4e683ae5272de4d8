package stats

import (
	"fmt"
	"reflect"
)

// Rule windows and folds a stats struct T field by field, by each
// field's kind. Integer, duration and float fields are counters: a
// window differences them and a fold adds them. A field tagged
// `stat:"max"` is a high-water mark: a window keeps the later value and
// a fold takes the larger. A bool is a mode flag: a window keeps the
// later value and a fold ORs. RuleFor rejects any other field, so no
// field can be left out of a window or a fold. The zero Rule is not
// usable.
type Rule[T any] struct {
	high []bool // per field: tagged `stat:"max"`
}

// RuleFor builds T's rule and panics on an unexported field, a field of
// another kind or an unknown stat tag. reflect.Type.Field allocates, so
// build each rule once, into a package-level variable.
func RuleFor[T any]() Rule[T] {
	t := reflect.TypeOf((*T)(nil)).Elem()
	r := Rule[T]{high: make([]bool, t.NumField())}
	for i := range r.high {
		f := t.Field(i)
		z := reflect.Zero(f.Type)
		if !f.IsExported() || !(z.Kind() == reflect.Bool || z.CanInt() || z.CanUint() || z.CanFloat()) {
			panic(fmt.Sprintf("stats: %v.%s: unsupported field of kind %v", t, f.Name, z.Kind()))
		}
		tag := f.Tag.Get("stat")
		if tag != "" && tag != "max" {
			panic(fmt.Sprintf("stats: %v.%s: unknown stat tag %q", t, f.Name, tag))
		}
		r.high[i] = tag == "max"
	}
	return r
}

// Window returns s over the window after the earlier snapshot.
func (r Rule[T]) Window(s, earlier T) T {
	combine(reflect.ValueOf(&s).Elem(), reflect.ValueOf(&earlier).Elem(), r.high, false)
	return s
}

// Fold returns s and o, the stats of two disjoint units (the vaults of
// one stack), combined into one.
func (r Rule[T]) Fold(s, o T) T {
	combine(reflect.ValueOf(&s).Elem(), reflect.ValueOf(&o).Elem(), r.high, true)
	return s
}

// combine applies the rule to d in place against o: Fold's when fold is
// set, Window's otherwise. It takes reflect.Values rather than a type
// parameter so that the callers' struct copies stay on the stack.
func combine(d, o reflect.Value, high []bool, fold bool) {
	for i := 0; i < d.NumField(); i++ {
		f, g := d.Field(i), o.Field(i)
		switch {
		case f.Kind() == reflect.Bool:
			f.SetBool(f.Bool() || fold && g.Bool())
		case f.CanInt():
			f.SetInt(apply(f.Int(), g.Int(), high[i], fold))
		case f.CanUint():
			f.SetUint(apply(f.Uint(), g.Uint(), high[i], fold))
		default:
			f.SetFloat(apply(f.Float(), g.Float(), high[i], fold))
		}
	}
}

// apply is one numeric field's rule.
func apply[N int64 | uint64 | float64](a, b N, high, fold bool) N {
	switch {
	case high && fold:
		return max(a, b)
	case high:
		return a
	case fold:
		return a + b
	}
	return a - b
}
