package experiment

import (
	"context"
	"strings"
	"testing"

	"smartrefresh/internal/sim"
	"smartrefresh/internal/workload"
)

func powerStateTestOpts() RunOptions {
	return RunOptions{Warmup: 1 * sim.Millisecond, Measure: 4 * sim.Millisecond}
}

func TestPowerStateSweep(t *testing.T) {
	opts := powerStateTestOpts()
	sweep := RunPowerStateSweep(nil, nil, opts)
	policies := PowerStatePolicies()
	if want := 2 * len(policies); len(sweep.Points) != want {
		t.Fatalf("points = %d, want %d (2 workloads x %d policies)", len(sweep.Points), want, len(policies))
	}
	byKey := map[string]PowerStatePoint{}
	for _, pt := range sweep.Points {
		if pt.Err != nil {
			t.Fatalf("%s/%s: %v", pt.Benchmark, pt.Policy, pt.Err)
		}
		if pt.Fingerprint == "" {
			t.Errorf("%s/%s: empty fingerprint", pt.Benchmark, pt.Policy)
		}
		byKey[pt.Benchmark+"/"+pt.Policy] = pt
	}

	idleName := workload.Idle().Name
	base := byKey[idleName+"/never-sleep"]
	fast := byKey[idleName+"/pre-fast-5us"]
	// The acceptance criterion: on an idle-heavy workload a PRE-PDN
	// policy must beat never-sleep on energy (a non-degenerate frontier
	// point that is neither always-SR nor never-sleep).
	if fast.TotalEnergyMJ >= base.TotalEnergyMJ {
		t.Errorf("pre-fast-5us %.3f mJ not below never-sleep %.3f mJ on idle",
			fast.TotalEnergyMJ, base.TotalEnergyMJ)
	}
	if !fast.Pareto {
		t.Error("pre-fast-5us not on the idle Pareto frontier")
	}
	if fast.PrePdnPct <= 50 {
		t.Errorf("pre-fast-5us PRE-PDN residency %.1f%% implausibly low on idle", fast.PrePdnPct)
	}
	// The sleep policies pay wake latency: added latency is never
	// negative, and never-sleep pays none.
	if base.AddedLatencyNS != 0 {
		t.Errorf("never-sleep baseline has added latency %.1f ns", base.AddedLatencyNS)
	}
	if fast.AddedLatencyNS < 0 {
		t.Errorf("pre-fast-5us added latency %.1f ns negative", fast.AddedLatencyNS)
	}
	// Each workload group keeps at least one frontier point.
	if !base.Pareto {
		t.Error("never-sleep (lowest latency) must be on the frontier")
	}

	// Same grid, same engine: fingerprints are deterministic.
	again := RunPowerStateSweep(nil, nil, opts)
	for i := range sweep.Points {
		if sweep.Points[i].Fingerprint != again.Points[i].Fingerprint {
			t.Errorf("%s/%s fingerprint differs across runs",
				sweep.Points[i].Benchmark, sweep.Points[i].Policy)
		}
	}

	var tbl, fps strings.Builder
	sweep.Render(&tbl)
	if !strings.Contains(tbl.String(), "Pareto frontier") || !strings.Contains(tbl.String(), "pre-fast-5us") {
		t.Errorf("render missing expected content:\n%s", tbl.String())
	}
	sweep.RenderFingerprints(&fps)
	if got := strings.Count(fps.String(), "\n"); got != len(sweep.Points) {
		t.Errorf("fingerprint render has %d lines, want %d", got, len(sweep.Points))
	}
}

// The power-state ladder's per-vault state machines must compose with the
// vault epoch barriers without breaking the sharding determinism contract.
func TestPowerStateVaultCheckDeterministic(t *testing.T) {
	prof, _ := workload.ByName("gcc")
	policies := PowerStatePolicies()
	ladder := policies[len(policies)-1] // ladder-full
	opts := powerStateTestOpts()
	opts.SelfRefreshAfter = ladder.SelfRefreshAfter
	opts.PowerStates = ladder.Cfg
	study, err := RunVaultScaling(context.Background(), HMC8V.DRAM(), prof, PolicySmart, opts, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(study.Points) != 2 || study.Points[0].Shards != 1 || study.Points[1].Shards != 4 {
		t.Fatalf("points = %+v", study.Points)
	}
	if !study.Deterministic {
		t.Errorf("vaulted power-state run differs across shard counts: %+v", study.Points)
	}
}
