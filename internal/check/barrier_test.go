package check

import (
	"testing"

	"smartrefresh/internal/config"
	"smartrefresh/internal/experiment"
	"smartrefresh/internal/memctrl"
	"smartrefresh/internal/sim"
)

// barrierStream is a seeded demand stream over [0, end): mostly
// sub-slot gaps, some of tens of microseconds (quiet slots for DARP to
// pull into) and a few of hundreds, which walk an armed rank down the
// power-state ladder into self-refresh.
func barrierStream(cfg config.DRAM, seed uint64, end sim.Time) []memctrl.Request {
	rng := sim.NewRNG(seed)
	capacity := uint64(cfg.Geometry.CapacityBytes())
	var out []memctrl.Request
	for now := sim.Time(0); ; {
		switch r := rng.Float64(); {
		case r < 0.85:
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

// barrierRun drives a retention-checked controller of policy e, armed
// as ps, through stream and closes it at end. A non-nil rng calls
// AdvanceTo at random instants between the requests: before about half
// of them, at a time in [previous request, this request). It returns
// the fingerprint of the results and the retention verdict.
func barrierRun(t *testing.T, cfg config.DRAM, e experiment.PolicyEntry, ps experiment.PowerStatePolicy,
	stream []memctrl.Request, end sim.Time, rng *sim.RNG) string {
	t.Helper()
	opts := memctrl.Options{
		CheckRetention:   true,
		RetentionSlack:   e.Slack(cfg, ps.SelfRefreshAfter > 0),
		SelfRefreshAfter: ps.SelfRefreshAfter,
		PowerStates:      ps.Cfg,
	}
	if e.RetentionMap {
		opts.RetentionMap = experiment.DefaultRetentionMap(cfg.Geometry, 1)
	}
	c, err := memctrl.New(cfg, e.New(cfg, opts.RetentionMap), opts)
	if err != nil {
		t.Fatal(err)
	}
	var prev sim.Time
	advance := func(next sim.Time) {
		if rng != nil && next > prev && rng.Bool(0.5) {
			c.AdvanceTo(prev + sim.Time(rng.Int63n(int64(next-prev))))
		}
	}
	for _, r := range stream {
		advance(r.Time)
		c.Submit(r)
		prev = r.Time
	}
	advance(end)
	c.Finish(end)
	verdict := ""
	if err := c.RetentionErr(); err != nil {
		verdict = err.Error()
	}
	return Fingerprint(struct {
		Results   memctrl.Results
		Retention string
	}{c.Results(end), verdict})
}

// requireBarrierInsensitive fails t unless policy e under ps gives the
// same results with and without random AdvanceTo calls between the
// requests of the stream seeded by seed.
func requireBarrierInsensitive(t *testing.T, cfg config.DRAM, e experiment.PolicyEntry, ps experiment.PowerStatePolicy, seed uint64) {
	t.Helper()
	end := 3 * sim.Time(cfg.RefreshInterval())
	stream := barrierStream(cfg, seed, end)
	want := barrierRun(t, cfg, e, ps, stream, end, nil)
	if got := barrierRun(t, cfg, e, ps, stream, end, sim.NewRNG(seed^0x5eed)); got != want {
		t.Errorf("%s/%s, seed %d: AdvanceTo calls between requests moved the results: %.16s, without %.16s",
			e.Name, ps.Name, seed, got, want)
	}
}

// Results are a function of the request stream alone: for every
// registered policy on every power-state rung, AdvanceTo calls between
// requests (the vault array's epoch barriers, a warmup snapshot) leave
// them byte-equal.
func TestBarrierInsensitive(t *testing.T) {
	for _, g := range []struct {
		rowsExp, banksExp uint8
		seed              uint64
	}{{0, 0, 1}, {2, 2, 2}} {
		cfg := fuzzCfg(g.rowsExp, g.banksExp)
		for _, e := range experiment.Policies() {
			for _, ps := range experiment.PowerStatePolicies() {
				requireBarrierInsensitive(t, cfg, e, ps, g.seed)
			}
		}
	}
}

// FuzzBarrierInsensitive is TestBarrierInsensitive over fuzzed
// geometries, streams, policies and power-state rungs.
func FuzzBarrierInsensitive(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint64(1), uint8(6), uint8(0))
	f.Add(uint8(1), uint8(2), uint64(7), uint8(6), uint8(7))
	f.Add(uint8(2), uint8(1), uint64(3), uint8(2), uint8(5))
	f.Fuzz(func(t *testing.T, rowsExp, banksExp uint8, seed uint64, policy, rung uint8) {
		pols := experiment.Policies()
		rungs := experiment.PowerStatePolicies()
		requireBarrierInsensitive(t, fuzzCfg(rowsExp, banksExp),
			pols[int(policy)%len(pols)], rungs[int(rung)%len(rungs)], seed)
	})
}
