package check

import (
	"fmt"
	"reflect"
	"testing"
)

// perturbLeaves calls visit once for every scalar leaf reachable from v
// (a settable value), after changing that leaf and before restoring it.
// path names the leaf. Structs, arrays and slices are walked element by
// element; any other composite kind fails the test, so a field of a new
// kind has to be taught here before the fingerprint test passes.
func perturbLeaves(t *testing.T, v reflect.Value, path string, visit func(path string)) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			perturbLeaves(t, v.Field(i), path+"."+v.Type().Field(i).Name, visit)
		}
		return
	case reflect.Array, reflect.Slice:
		if v.Len() == 0 {
			t.Fatalf("%s: empty %s; give the base report an element", path, v.Kind())
		}
		for i := 0; i < v.Len(); i++ {
			perturbLeaves(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), visit)
		}
		return
	}
	old := reflect.New(v.Type()).Elem()
	old.Set(v)
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 1)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Bool:
		v.SetBool(!v.Bool())
	default:
		t.Fatalf("%s: cannot perturb a %s leaf", path, v.Kind())
	}
	visit(path)
	v.Set(old)
}

// fingerprintBase is a two-scenario sweep whose results are all zero,
// so adding one to any numeric leaf changes its rendering.
func fingerprintBase() []Report {
	reports := make([]Report, 2)
	for i := range reports {
		sc := NewScenario(uint64(i + 1))
		reports[i] = Report{
			Scenario:   sc,
			Runs:       []PolicyRun{{Policy: "smart"}, {Policy: "cbr"}},
			Violations: []Violation{{Scenario: sc.Name}},
		}
	}
	return reports
}

// The sweep fingerprint covers every results leaf: a change to any field
// of any run (memctrl.Results with its module, policy and energy
// statistics, the dropped count, the retention verdict, the panic) or of
// any violation moves it. Reflection enumerates the leaves, so a field
// added later is covered without touching this test.
func TestFingerprintReportsCoversEveryResult(t *testing.T) {
	reports := fingerprintBase()
	base := FingerprintReports(reports)
	leaves := 0
	for i := range reports {
		v := reflect.ValueOf(&reports[i]).Elem()
		for _, field := range []string{"Runs", "Violations"} {
			perturbLeaves(t, v.FieldByName(field), fmt.Sprintf("reports[%d].%s", i, field), func(path string) {
				leaves++
				if FingerprintReports(reports) == base {
					t.Errorf("changing %s leaves the fingerprint unchanged", path)
				}
			})
		}
	}
	if got := FingerprintReports(reports); got != base {
		t.Fatalf("fingerprint %s after restoring every leaf, want %s", got, base)
	}
	// Two reports of two runs each, every memctrl.Results leaf included.
	if want := 4 * reflect.TypeOf(PolicyRun{}.Res).NumField(); leaves < want {
		t.Errorf("visited %d result leaves, want at least %d", leaves, want)
	}
}

// The scenario enters the fingerprint only as its name and seed, which
// regenerate the rest of it: a change to its configuration's layout or
// values, its workload, its duration or its power options alone leaves
// the fingerprint alone, while a change to the name or seed moves it.
func TestFingerprintReportsIgnoresScenarioBody(t *testing.T) {
	reports := fingerprintBase()
	base := FingerprintReports(reports)
	sc := reflect.ValueOf(&reports[0].Scenario).Elem()
	for i := 0; i < sc.NumField(); i++ {
		name := sc.Type().Field(i).Name
		hashed := name == "Name" || name == "Seed"
		perturbLeaves(t, sc.Field(i), "Scenario."+name, func(path string) {
			if moved := FingerprintReports(reports) != base; moved != hashed {
				t.Errorf("changing %s: fingerprint moved = %v, want %v", path, moved, hashed)
			}
		})
	}
}
