package telemetry

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"smartrefresh/internal/stats"
)

// Hundreds of vault controllers registering concurrently, each under its
// own names: every registration must succeed and survive, and the run
// must be -race clean.
func TestRegistryConcurrentRegistration(t *testing.T) {
	const vaults = 256
	root := NewRegistry()
	counters := make([]stats.Counter, vaults)
	errs := make([]error, vaults)
	var wg sync.WaitGroup
	wg.Add(vaults)
	for v := 0; v < vaults; v++ {
		go func(v int) {
			defer wg.Done()
			counters[v].Add(uint64(v))
			prefix := fmt.Sprintf("vault%03d", v)
			errs[v] = root.RegisterCounter(prefix+"/refresh_ops", &counters[v])
			if errs[v] == nil {
				errs[v] = root.RegisterGauge(prefix+"/queue_depth", func() float64 { return float64(v) })
			}
		}(v)
	}
	wg.Wait()

	for v, err := range errs {
		if err != nil {
			t.Fatalf("vault %d: %v", v, err)
		}
	}
	snap := root.Snapshot()
	if len(snap) != 2*vaults {
		t.Fatalf("snapshot has %d rows, want %d", len(snap), 2*vaults)
	}
	seen := map[string]float64{}
	for _, m := range snap {
		seen[m.Name] = m.Value
	}
	for v := 0; v < vaults; v++ {
		name := fmt.Sprintf("vault%03d/refresh_ops", v)
		if got, ok := seen[name]; !ok || got != float64(v) {
			t.Fatalf("%s = %v (present=%v), want %d", name, got, ok, v)
		}
	}
}

func TestRegistryDisabled(t *testing.T) {
	var r *Registry
	if err := r.RegisterGauge("g", func() float64 { return 1 }); err != nil {
		t.Fatalf("nil registry refused a registration: %v", err)
	}
	r.Unregister("g") // must not panic
	if r.Snapshot() != nil {
		t.Fatal("disabled registry returned data")
	}
}

// A name belongs to its first registrant: a second registration is an
// error naming the name, and the first source stays.
func TestRegistryRejectsDuplicate(t *testing.T) {
	r := NewRegistry()
	var first, second stats.Counter
	first.Add(1)
	second.Add(2)
	if err := r.RegisterCounter("job/requests", &first); err != nil {
		t.Fatal(err)
	}
	for _, err := range []error{
		r.RegisterCounter("job/requests", &second),
		r.RegisterGauge("job/requests", func() float64 { return 3 }),
		r.RegisterHistogram("job/requests", stats.NewHistogram(4, 1)),
	} {
		if err == nil || !strings.Contains(err.Error(), "job/requests") {
			t.Errorf("duplicate registration: error %v, want one naming job/requests", err)
		}
	}
	if snap := r.Snapshot(); len(snap) != 1 || snap[0].Value != 1 {
		t.Fatalf("snapshot = %+v, want the first registrant's row only", snap)
	}
}

// Unregister frees a run's names — the prefix and everything under
// prefix + "/" — and nothing else, so the run can register again.
func TestRegistryUnregister(t *testing.T) {
	r := NewRegistry()
	var c stats.Counter
	for _, name := range []string{"job", "job/requests", "job/vault00/requests", "job@sr1us/requests", "jobs/requests"} {
		if err := r.RegisterCounter(name, &c); err != nil {
			t.Fatal(err)
		}
	}
	r.Unregister("job")
	var left []string
	for _, m := range r.Snapshot() {
		left = append(left, m.Name)
	}
	if got := strings.Join(left, " "); got != "job@sr1us/requests jobs/requests" {
		t.Fatalf("after Unregister: %s", got)
	}
	if err := r.RegisterCounter("job/requests", &c); err != nil {
		t.Fatalf("re-registration after Unregister: %v", err)
	}
}
