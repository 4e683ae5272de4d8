package check

import (
	"fmt"
	"reflect"
	"strings"
)

// fieldDiff describes where a and b, two values of one type, differ: one
// "path: first != second" entry per differing leaf field, in field order,
// joined by "; ". Paths name struct fields (an embedded struct's fields
// without the embedded type's name) and slice or array elements by
// index; two slices of different lengths differ at the slice itself, as
// "path: len n != m". It is empty exactly when reflect.DeepEqual(a, b)
// holds for the plain-data types the harness compares (no maps, no
// functions, no pointer cycles).
func fieldDiff(a, b any) string {
	var out []string
	diffValues(reflect.ValueOf(a), reflect.ValueOf(b), "", &out)
	return strings.Join(out, "; ")
}

func diffValues(a, b reflect.Value, path string, out *[]string) {
	leaf := func(x, y any) {
		*out = append(*out, fmt.Sprintf("%s: %v != %v", path, x, y))
	}
	switch a.Kind() {
	case reflect.Struct:
		for i := range a.NumField() {
			f := a.Type().Field(i)
			p := path
			if !f.Anonymous {
				p = joinPath(path, f.Name)
			}
			diffValues(a.Field(i), b.Field(i), p, out)
		}
	case reflect.Slice:
		switch {
		case a.IsNil() != b.IsNil():
			leaf(sliceLen(a), sliceLen(b))
			return
		case a.Len() != b.Len():
			leaf(fmt.Sprintf("len %d", a.Len()), fmt.Sprintf("len %d", b.Len()))
			return
		}
		fallthrough
	case reflect.Array:
		for i := range a.Len() {
			diffValues(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i), out)
		}
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				leaf(a, b)
			}
			return
		}
		diffValues(a.Elem(), b.Elem(), path, out)
	case reflect.String:
		if a.String() != b.String() {
			leaf(fmt.Sprintf("%q", a.String()), fmt.Sprintf("%q", b.String()))
		}
	default:
		if !a.Equal(b) {
			leaf(a, b)
		}
	}
}

// sliceLen renders a slice as its length, or nil.
func sliceLen(v reflect.Value) string {
	if v.IsNil() {
		return "nil"
	}
	return fmt.Sprintf("len %d", v.Len())
}

func joinPath(path, name string) string {
	if path == "" {
		return name
	}
	return path + "." + name
}
