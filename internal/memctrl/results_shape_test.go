package memctrl

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// jsonKeys appends the dotted path of every object key in v, descending
// into nested objects, so a renamed or dropped field anywhere in the
// tree changes the set.
func jsonKeys(prefix string, v any, out []string) []string {
	obj, ok := v.(map[string]any)
	if !ok {
		return out
	}
	for k, child := range obj {
		path := prefix + k
		out = append(out, path)
		out = jsonKeys(path+".", child, out)
	}
	return out
}

// TestResultsJSONShape pins the key set of Results as JSON, nested
// module, policy and energy fields included. Results are fingerprinted
// as JSON (check.Fingerprint, perfbench's expect.json), so a field that
// is renamed or dropped changes every fingerprint; this test names the
// field instead. Update testdata/results_keys.txt only together with
// the fingerprints that move with it.
func TestResultsJSONShape(t *testing.T) {
	data, err := json.Marshal(Results{})
	if err != nil {
		t.Fatal(err)
	}
	var tree any
	if err := json.Unmarshal(data, &tree); err != nil {
		t.Fatal(err)
	}
	got := jsonKeys("", tree, nil)
	raw, err := os.ReadFile("testdata/results_keys.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Fields(string(raw))
	have := make(map[string]bool, len(got))
	for _, k := range got {
		have[k] = true
	}
	pinned := make(map[string]bool, len(want))
	for _, k := range want {
		pinned[k] = true
		if !have[k] {
			t.Errorf("Results JSON lost key %s", k)
		}
	}
	for _, k := range got {
		if !pinned[k] {
			t.Errorf("Results JSON gained key %s", k)
		}
	}
}
