package experiment

import (
	"testing"

	"smartrefresh/internal/config"
	"smartrefresh/internal/sim"
)

func TestPolicyRegistryNames(t *testing.T) {
	seen := map[string]bool{}
	kinds := map[PolicyKind]bool{}
	for _, e := range Policies() {
		if seen[e.Name] || kinds[e.Kind] {
			t.Errorf("duplicate registration %q / %d", e.Name, int(e.Kind))
		}
		seen[e.Name], kinds[e.Kind] = true, true
		if got := e.Kind.String(); got != e.Name {
			t.Errorf("%d.String() = %q, registered as %q", int(e.Kind), got, e.Name)
		}
		back, err := ParsePolicy(e.Name)
		if err != nil || back.Kind != e.Kind {
			t.Errorf("ParsePolicy(%q) = %v, %v", e.Name, back.Kind, err)
		}
		if e.RetentionMap != (e.Kind == PolicySmartRetention || e.Kind == PolicyRAIDR) {
			t.Errorf("%s: RetentionMap = %v", e.Name, e.RetentionMap)
		}
	}
	// The integer values are part of the checkpoint format and RunSpec
	// keys: new kinds only ever append.
	for k, want := range map[PolicyKind]int{PolicyCBR: 0, PolicySmart: 1, PolicySARP: 6, PolicySmartRetention: 7, PolicyRAIDR: 8} {
		if int(k) != want {
			t.Errorf("%s = %d, want %d", k, int(k), want)
		}
	}
	if len(seen) != int(PolicyRAIDR)+1 {
		t.Errorf("%d policies registered, want every kind through PolicyRAIDR", len(seen))
	}
	if _, err := ParsePolicy("nope"); err == nil {
		t.Error("unknown policy name accepted")
	}
	if got := PolicyKind(99).String(); got != "PolicyKind(99)" {
		t.Errorf("unregistered kind renders as %q", got)
	}
}

// The slack each policy earns, pinned in picoseconds. These values reach
// the retention checker of every -check run and the simcheck
// fingerprints; none gets no self-refresh transition, because its
// checker-sanity case in internal/check relies on an unwidened deadline.
func TestPolicyRegistrySlack(t *testing.T) {
	hmc := config.HMC8Vault()
	hmc.Geometry = hmc.Geometry.PerVault()
	hmc.Power.Geometry = hmc.Geometry
	want := map[string]map[string][2]int64{ // config -> policy -> {SR off, SR on} in ps
		"table1-2gb": {
			"smart":           {130297760000, 258297760000},
			"cbr":             {4000000, 128004000000},
			"burst":           {1150880000, 129150880000},
			"oracle":          {4000000, 128004000000},
			"none":            {4000000, 4000000},
			"smart-retention": {2297760000, 130297760000},
			"darp":            {82125000, 128082125000},
			"sarp":            {19625000, 128019625000},
			"raidr":           {4000000, 128004000000},
		},
		"hmc-8vault": {
			"smart":           {64577440000, 128577440000},
			"cbr":             {4000000, 64004000000},
			"burst":           {290720000, 64290720000},
			"oracle":          {4000000, 64004000000},
			"none":            {4000000, 4000000},
			"smart-retention": {577440000, 64577440000},
			"darp":            {160250000, 64160250000},
			"sarp":            {35250000, 64035250000},
			"raidr":           {4000000, 64004000000},
		},
	}
	for _, cfg := range []config.DRAM{config.Table1_2GB(), hmc} {
		for _, e := range Policies() {
			for i, sr := range []bool{false, true} {
				if got, w := e.Slack(cfg, sr), sim.Duration(want[cfg.Name][e.Name][i]); got != w {
					t.Errorf("%s/%s selfRefresh=%v: slack %d, want %d", cfg.Name, e.Name, sr, int64(got), int64(w))
				}
			}
		}
	}
}
