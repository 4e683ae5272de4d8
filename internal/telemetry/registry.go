package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"smartrefresh/internal/stats"
)

// Registry is a name-keyed collection of metric sources that components
// register into and that report dumps read at end of run. It reuses the
// internal/stats primitives: the registry stores pointers (counters,
// histograms) or closures (gauges) and snapshots them lazily, so
// registration costs one map insert and the simulation's hot paths touch
// only their own stats objects.
//
// A name belongs to one source: registering a name the registry already
// holds is an error naming it, and the earlier source stays. Two
// registrants that would share a name — two runs under one job
// identity, two vault controllers under one prefix — therefore fail
// instead of silently dropping one's samples.
//
// A nil *Registry is the disabled registry: registration and snapshots
// no-op. Registration is safe from concurrent engine workers; the
// metrics themselves are owned by one simulation each, so a snapshot is
// only meaningful after the runs writing them have finished.
type Registry struct {
	mu      sync.Mutex
	sources map[string]func() Metric
}

// Metric is one snapshot row.
type Metric struct {
	Name  string  `json:"name"`
	Kind  string  `json:"kind"`
	Value float64 `json:"value"`
	// Histogram-only detail (zero otherwise).
	Count     uint64  `json:"count,omitempty"`
	P50       float64 `json:"p50,omitempty"`
	P99       float64 `json:"p99,omitempty"`
	Max       float64 `json:"max,omitempty"`
	Underflow uint64  `json:"underflow,omitempty"`
	Overflow  uint64  `json:"overflow,omitempty"`
}

// NewRegistry returns an enabled registry.
func NewRegistry() *Registry {
	return &Registry{sources: map[string]func() Metric{}}
}

func (r *Registry) register(name string, fn func() Metric) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, taken := r.sources[name]; taken {
		return fmt.Errorf("telemetry: metric %s is already registered", name)
	}
	r.sources[name] = fn
	return nil
}

// Unregister removes the metric named prefix and every metric under
// prefix + "/": the rows of a run that was abandoned, so that running it
// again can register them afresh.
func (r *Registry) Unregister(prefix string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name := range r.sources {
		if name == prefix || strings.HasPrefix(name, prefix) && name[len(prefix)] == '/' {
			delete(r.sources, name)
		}
	}
}

// RegisterCounter publishes a counter under name.
func (r *Registry) RegisterCounter(name string, c *stats.Counter) error {
	if r == nil {
		return nil
	}
	return r.register(name, func() Metric {
		return Metric{Name: name, Kind: "counter", Value: float64(c.Value())}
	})
}

// RegisterGauge publishes a value read through fn at snapshot time.
func (r *Registry) RegisterGauge(name string, fn func() float64) error {
	if r == nil {
		return nil
	}
	return r.register(name, func() Metric {
		return Metric{Name: name, Kind: "gauge", Value: fn()}
	})
}

// RegisterHistogram publishes a histogram; its snapshot row carries the
// count, mean bucket value (Value is the p50), tail quantile and the
// out-of-range counts.
func (r *Registry) RegisterHistogram(name string, h *stats.Histogram) error {
	if r == nil {
		return nil
	}
	return r.register(name, func() Metric {
		return Metric{
			Name: name, Kind: "histogram",
			Value: h.Quantile(0.5), Count: h.Total(),
			P50: h.Quantile(0.5), P99: h.Quantile(0.99), Max: h.Max(),
			Underflow: h.Underflow(), Overflow: h.Overflow(),
		}
	})
}

// Snapshot reads every source, ordered by name (stable across
// concurrent registration orders, e.g. parallel engine sweeps).
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Metric, 0, len(r.sources))
	for _, fn := range r.sources {
		out = append(out, fn())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WriteJSON dumps a snapshot as one JSON array.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	snap := r.Snapshot()
	if snap == nil {
		snap = []Metric{}
	}
	return enc.Encode(snap)
}

// WriteCSV dumps a snapshot as CSV.
func (r *Registry) WriteCSV(w io.Writer) error {
	// bw keeps its first error; Flush reports it.
	bw := bufio.NewWriter(w)
	bw.WriteString("name,kind,value,count,p50,p99,max,underflow,overflow\n")
	for _, m := range r.Snapshot() {
		fmt.Fprintf(bw, "%s,%s,%g,%d,%g,%g,%g,%d,%d\n",
			csvEscape(m.Name), m.Kind, m.Value, m.Count, m.P50, m.P99, m.Max, m.Underflow, m.Overflow)
	}
	return bw.Flush()
}

// csvEscape quotes a field containing separators or quotes.
func csvEscape(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}
