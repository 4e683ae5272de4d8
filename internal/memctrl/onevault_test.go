package memctrl_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"smartrefresh/internal/config"
	"smartrefresh/internal/core"
	"smartrefresh/internal/dram"
	"smartrefresh/internal/experiment"
	"smartrefresh/internal/memctrl"
	"smartrefresh/internal/sim"
	"smartrefresh/internal/telemetry"
)

// oneVaultConfigs are two small monolithic modules with a 1 ms refresh
// interval: a flat one, and a stacked one whose Layers a per-vault
// geometry would clear.
func oneVaultConfigs() []config.DRAM {
	flat := config.EDRAM(sim.Millisecond)
	flat.Geometry.Rows = 512
	flat.Power.Geometry = flat.Geometry
	stacked := config.HMC8Vault()
	stacked.Name = "hmc-stack"
	stacked.Geometry.Vaults = 0
	stacked.Geometry.Channels, stacked.Geometry.Rows = 1, 256
	stacked.Timing = dram.DDR2_667(sim.Millisecond)
	stacked.Power.Geometry, stacked.Power.Timing = stacked.Geometry, stacked.Timing
	return []config.DRAM{flat, stacked}
}

// oneVaultStream is a seeded demand stream over [0, end): dense bursts
// with idle gaps long enough to walk a ladder-armed rank into
// self-refresh.
func oneVaultStream(cfg config.DRAM, end sim.Time) []memctrl.Request {
	rng := sim.NewRNG(21)
	capacity := uint64(cfg.Geometry.CapacityBytes())
	var out []memctrl.Request
	for now := sim.Time(0); ; {
		switch r := rng.Float64(); {
		case r < 0.9:
			now += sim.Time(rng.Int63n(int64(2 * sim.Microsecond)))
		case r < 0.99:
			now += sim.Time(rng.Int63n(int64(30 * sim.Microsecond)))
		default:
			now += sim.Time(rng.Int63n(int64(600 * sim.Microsecond)))
		}
		if now >= end {
			return out
		}
		out = append(out, memctrl.Request{Time: now, Addr: rng.Uint64n(capacity) &^ 63, Write: rng.Bool(0.3)})
	}
}

// A monolithic module is the one-vault array: under random FlushTo
// epochs it gives the results, metrics and trace of a bare Controller fed
// the same stream, for every registered policy that needs no retention
// map, plain and ladder-armed. Its controller runs on the module's
// configuration and keeps its name: no "/vault00" in a metric or trace
// scope.
func TestVaultArrayOneVaultEqualsController(t *testing.T) {
	ladder := experiment.PowerStatePolicies()
	full := ladder[len(ladder)-1]
	for _, cfg := range oneVaultConfigs() {
		end := 3 * sim.Time(cfg.RefreshInterval())
		stream := oneVaultStream(cfg, end)
		for _, e := range experiment.Policies() {
			if e.RetentionMap {
				continue
			}
			for _, armed := range []bool{false, true} {
				name := cfg.Name + "/" + e.Name
				opts := memctrl.Options{CheckRetention: true, RetentionSlack: e.Slack(cfg, armed)}
				if armed {
					name += "/ladder"
					opts.SelfRefreshAfter, opts.PowerStates = full.SelfRefreshAfter, full.Cfg
				}
				// run drives a fresh tracer and registry through drive,
				// which returns the results and retention verdict.
				type outcome struct {
					res       memctrl.Results
					retention error
					metrics   []telemetry.Metric
					trace     []byte
				}
				run := func(drive func(opts memctrl.Options) (memctrl.Results, error)) outcome {
					opts := opts
					opts.Trace, opts.Metrics = telemetry.NewTracer(), telemetry.NewRegistry()
					opts.Trace.SetEventLimit(0)
					var o outcome
					o.res, o.retention = drive(opts)
					var trace bytes.Buffer
					if err := opts.Trace.Write(&trace); err != nil {
						t.Fatal(err)
					}
					o.metrics, o.trace = opts.Metrics.Snapshot(), trace.Bytes()
					return o
				}
				want := run(func(opts memctrl.Options) (memctrl.Results, error) {
					c := memctrl.MustNew(cfg, e.New(cfg, nil), opts)
					for _, r := range stream {
						c.Submit(r)
					}
					c.Finish(end)
					return c.Results(end), c.RetentionErr()
				})
				got := run(func(opts memctrl.Options) (memctrl.Results, error) {
					factory := func(int, config.DRAM) (core.Policy, error) { return e.New(cfg, nil), nil }
					va := memctrl.MustNewVaultArray(cfg, factory, memctrl.VaultOptions{Options: opts, Workers: 2})
					if va.Vaults() != 1 || va.Vault(0).Module().Geometry() != cfg.Geometry {
						t.Fatalf("%s: %d vaults on geometry %+v, want one on %+v", name, va.Vaults(), va.Vault(0).Module().Geometry(), cfg.Geometry)
					}
					rng := sim.NewRNG(5)
					var prev sim.Time
					for _, r := range stream {
						if r.Time > prev && rng.Bool(0.3) {
							va.FlushTo(prev + sim.Time(rng.Int63n(int64(r.Time-prev))))
						}
						va.Enqueue(r)
						prev = r.Time
					}
					va.Finish(end)
					whole, per := va.ResultsSince(end, []memctrl.Snapshot{{}}, end)
					if per != nil || !reflect.DeepEqual(whole, va.Results(end)) {
						t.Errorf("%s: window from zero %+v with per-vault %d entries, want the whole run and none", name, whole, len(per))
					}
					return va.Results(end), va.RetentionErr()
				})
				if !reflect.DeepEqual(got.res, want.res) {
					t.Errorf("%s: results\n got %+v\nwant %+v", name, got.res, want.res)
				}
				if !reflect.DeepEqual(got.retention, want.retention) {
					t.Errorf("%s: retention %v, want %v", name, got.retention, want.retention)
				}
				if !reflect.DeepEqual(got.metrics, want.metrics) {
					t.Errorf("%s: metrics differ from the controller's", name)
				}
				if !bytes.Equal(got.trace, want.trace) {
					t.Errorf("%s: trace differs from the controller's", name)
				}
				prefix := cfg.Name + "/" + e.Name + "/"
				for _, m := range got.metrics {
					if !strings.HasPrefix(m.Name, prefix) || strings.Contains(m.Name, "vault") {
						t.Fatalf("%s: metric %q, want it under %q", name, m.Name, prefix)
					}
				}
				if scope := `"args":{"name":"` + cfg.Name + "/" + e.Name + `"}`; !bytes.Contains(got.trace, []byte(scope)) || bytes.Contains(got.trace, []byte("vault")) {
					t.Errorf("%s: trace scope is not named %s/%s", name, cfg.Name, e.Name)
				}
			}
		}
	}
}
