package experiment

import (
	"fmt"
	"slices"
	"strings"

	"smartrefresh/internal/config"
	"smartrefresh/internal/core"
	"smartrefresh/internal/dram"
	"smartrefresh/internal/sim"
)

// PolicyKind selects the refresh policy for a run. The integer values
// are part of the checkpoint format, so new kinds are only ever
// appended.
type PolicyKind int

// Available policies.
const (
	PolicyCBR PolicyKind = iota
	PolicySmart
	PolicyBurst
	PolicyNone
	PolicyOracle
	PolicyDARP
	PolicySARP
	PolicySmartRetention
	PolicyRAIDR
)

// PolicyEntry registers one refresh policy: its name, constructor and
// the retention-checker parameters its documented deferral behaviour
// earns. Every entry point — the experiment engine, the CLIs and the
// internal/check differential set — names, builds and checks policies
// through the registry (Policies), so a policy is added in one place.
type PolicyEntry struct {
	Kind PolicyKind
	Name string
	// New builds the policy for cfg. rmap is the per-row retention map
	// of a RetentionMap entry and nil for every other entry.
	New func(cfg config.DRAM, rmap *core.RetentionMap) core.Policy
	// RetentionMap marks policies built around a per-row retention map;
	// a run derives it from the workload seed (DefaultRetentionMap) and
	// the retention checker holds every row to its multirate deadline.
	RetentionMap bool
	// Refreshes marks policies that must keep every row alive.
	Refreshes bool
	// PerBank is the deferral window of the refresh-access-parallelism
	// pair (darp, sarp); nil for row-granular policies.
	PerBank *core.PerBankConfig
	// deferral is how far the policy's documented scheduling may push a
	// refresh past its deadline, on top of Slack's shared terms.
	deferral func(cfg config.DRAM) sim.Duration
}

// baseSlack absorbs command queueing behind demand traffic beyond the
// controller's own RetentionGrace allowance.
const baseSlack = 4 * sim.Microsecond

// Slack is the deadline widening the retention checker grants the
// policy: baseSlack, the policy's own deferral, and — for refreshing
// policies with self-refresh armed — two intervals, because entry and
// exit hide the module walker's phase exactly as the section 4.6
// disable transitions do. Beyond this a late refresh is a real bug, not
// scheduling slack.
func (e PolicyEntry) Slack(cfg config.DRAM, selfRefresh bool) sim.Duration {
	slack := baseSlack
	if selfRefresh && e.Refreshes {
		slack += 2 * cfg.RefreshInterval()
	}
	if e.deferral != nil {
		slack += e.deferral(cfg)
	}
	return slack
}

// serialRefresh is one bank's worth of chained refreshes: consecutive
// ticks can index consecutive rows of one bank, so due refreshes queue
// behind each other at TRefreshRow apiece.
func serialRefresh(cfg config.DRAM) sim.Duration {
	return sim.Duration(cfg.Geometry.Rows) * cfg.Timing.TRefreshRow
}

var defaultPerBank = core.DefaultPerBankConfig()

// perBankDeferral is the per-bank pair's widening: slots walk Rows per
// interval, and a slot may run the given number of slot periods late.
func perBankDeferral(slots int) func(config.DRAM) sim.Duration {
	return func(cfg config.DRAM) sim.Duration {
		return sim.Duration(slots) * (cfg.RefreshInterval() / sim.Duration(cfg.Geometry.Rows))
	}
}

// policies is the registry, in the differential set's run order (which
// internal/check's report fingerprints depend on).
var policies = []PolicyEntry{
	{Kind: PolicySmart, Name: "smart", Refreshes: true,
		New: func(cfg config.DRAM, _ *core.RetentionMap) core.Policy {
			return core.NewSmart(cfg.Geometry, cfg.RefreshInterval(), cfg.Smart)
		},
		// Chained refreshes doubled, because adjacent passes can slip in
		// opposite directions; the section 4.6 disable/re-enable
		// transitions hide the counters' phase for up to two intervals.
		deferral: func(cfg config.DRAM) sim.Duration {
			d := 2 * serialRefresh(cfg)
			if cfg.Smart.SelfDisable {
				d += 2 * cfg.RefreshInterval()
			}
			return d
		}},
	{Kind: PolicyCBR, Name: "cbr", Refreshes: true,
		New: func(cfg config.DRAM, _ *core.RetentionMap) core.Policy {
			return core.NewCBR(cfg.Geometry, cfg.RefreshInterval())
		}},
	// Burst dispatches a whole interval's refreshes at one tick; they
	// serialise per bank.
	{Kind: PolicyBurst, Name: "burst", Refreshes: true, deferral: serialRefresh,
		New: func(cfg config.DRAM, _ *core.RetentionMap) core.Policy {
			return core.NewBurst(cfg.Geometry, cfg.RefreshInterval())
		}},
	{Kind: PolicyOracle, Name: "oracle", Refreshes: true,
		New: func(cfg config.DRAM, _ *core.RetentionMap) core.Policy {
			return core.NewOracle(cfg.Geometry, cfg.RefreshInterval(), cfg.Timing.TRefreshRow*16)
		}},
	{Kind: PolicyNone, Name: "none",
		New: func(config.DRAM, *core.RetentionMap) core.Policy { return core.NoRefresh{} }},
	// The retention-aware extension chains like Smart Refresh but never
	// self-disables (the constructor forces SelfDisable off).
	{Kind: PolicySmartRetention, Name: "smart-retention", Refreshes: true, RetentionMap: true,
		New: func(cfg config.DRAM, rmap *core.RetentionMap) core.Policy {
			return core.NewRetentionAwareSmart(cfg.Geometry, cfg.RefreshInterval(), cfg.Smart, rmap)
		},
		deferral: func(cfg config.DRAM) sim.Duration { return 2 * serialRefresh(cfg) }},
	// DARP may run a slot MaxPostpone slot periods late, and a pulled-in
	// pass shifts the walk the other way, so the worst row-to-row gap
	// stretches by the whole deferral window.
	{Kind: PolicyDARP, Name: "darp", Refreshes: true, PerBank: &defaultPerBank,
		deferral: perBankDeferral(defaultPerBank.MaxPostpone + defaultPerBank.MaxPullIn + 4),
		New: func(cfg config.DRAM, _ *core.RetentionMap) core.Policy {
			return core.NewDARP(cfg.Geometry, cfg.RefreshInterval(), defaultPerBank)
		}},
	// SARP keeps the fixed cadence and only pays stagger and
	// quantization.
	{Kind: PolicySARP, Name: "sarp", Refreshes: true, PerBank: &defaultPerBank, deferral: perBankDeferral(4),
		New: func(cfg config.DRAM, _ *core.RetentionMap) core.Policy {
			return core.NewSARP(cfg.Geometry, cfg.RefreshInterval(), defaultPerBank)
		}},
	// The multirate wheel keeps CBR's drift-free cadence, so it shares
	// CBR's slack; its filters are programmed from the retention map.
	{Kind: PolicyRAIDR, Name: "raidr", Refreshes: true, RetentionMap: true,
		New: func(cfg config.DRAM, rmap *core.RetentionMap) core.Policy {
			return newRAIDR(cfg, core.DefaultRAIDRConfig(), rmap)
		}},
}

// newRAIDR builds the multirate wheel with an explicit bin/filter
// configuration; the registry entry uses the defaults, RAIDRStudy sweeps
// custom bins.
func newRAIDR(cfg config.DRAM, rcfg core.RAIDRConfig, rmap *core.RetentionMap) *core.RAIDR {
	return core.NewRAIDR(cfg.Geometry, cfg.RefreshInterval(), rcfg, rmap)
}

// Policies returns the registry in run order.
func Policies() []PolicyEntry { return slices.Clone(policies) }

// PolicyNames lists the registered policy names in run order.
func PolicyNames() []string {
	names := make([]string, len(policies))
	for i, e := range policies {
		names[i] = e.Name
	}
	return names
}

// ParsePolicy looks a policy up by name.
func ParsePolicy(name string) (PolicyEntry, error) {
	if i := slices.IndexFunc(policies, func(e PolicyEntry) bool { return e.Name == name }); i >= 0 {
		return policies[i], nil
	}
	return PolicyEntry{}, fmt.Errorf("unknown policy %q (want one of %s)", name, strings.Join(PolicyNames(), ", "))
}

// lookup returns k's registry entry.
func (k PolicyKind) lookup() (PolicyEntry, bool) {
	i := slices.IndexFunc(policies, func(e PolicyEntry) bool { return e.Kind == k })
	if i < 0 {
		return PolicyEntry{}, false
	}
	return policies[i], true
}

// Entry returns k's registry entry; it panics on an unregistered kind.
func (k PolicyKind) Entry() PolicyEntry {
	e, ok := k.lookup()
	if !ok {
		panic(fmt.Sprintf("experiment: unknown policy kind %d", int(k)))
	}
	return e
}

// String names the policy kind.
func (k PolicyKind) String() string {
	if e, ok := k.lookup(); ok {
		return e.Name
	}
	return fmt.Sprintf("PolicyKind(%d)", int(k))
}

// NewPolicy instantiates a policy for the configuration. Retention-map
// policies need their map: build them through Entry().New, or run them
// as a Job, which derives the map from the workload seed.
func NewPolicy(cfg config.DRAM, kind PolicyKind) core.Policy {
	e := kind.Entry()
	if e.RetentionMap {
		panic(fmt.Sprintf("experiment: policy %s needs a per-row retention map", e.Name))
	}
	return e.New(cfg, nil)
}

// DefaultRetentionMap assigns g's rows to the default retention classes
// from a workload seed — the map a RetentionMap policy runs with.
func DefaultRetentionMap(g dram.Geometry, seed uint64) *core.RetentionMap {
	return core.NewRetentionMap(g, core.DefaultRetentionClasses(), seed)
}
