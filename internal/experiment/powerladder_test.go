package experiment

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sort"
	"testing"

	"smartrefresh/internal/config"
	"smartrefresh/internal/memctrl"
	"smartrefresh/internal/sim"
	"smartrefresh/internal/telemetry"
)

// powerLadderDigests pins every point of the power-state grid under CBR,
// Smart and DARP on the Table 1 2 GB module and on one vault of the
// HMC-8V stack, as "<power-down spans> <digest>". The digest covers the
// run's ModuleStats, its PolicyStats and each rank's power-down trace
// spans in the order the rank emitted them, so any change to when a
// rank enters, leaves or deepens a rung, or to what it is charged for
// it, changes the digest.
var powerLadderDigests = map[string]string{
	"table1-2gb/cbr/never-sleep":               "0 b4fb8d87c684b588",
	"table1-2gb/cbr/act-pdn-1us":               "223 aa15b9b4bc9b0a98",
	"table1-2gb/cbr/pre-fast-5us":              "7534 7c0aa963dd5a5c74",
	"table1-2gb/cbr/pre-fast-20us":             "6486 49e3b8e0c56103ab",
	"table1-2gb/cbr/pre-ladder-5-50us":         "12472 ea8fd4244563c712",
	"table1-2gb/cbr/sr-100us":                  "0 c7eb28e143a8a86d",
	"table1-2gb/cbr/pre-fast+sr-100us":         "4344 0a67347504cba81b",
	"table1-2gb/cbr/ladder-full":               "8127 731b9ceceafbb466",
	"table1-2gb/smart/never-sleep":             "0 9dadb6f622d67985",
	"table1-2gb/smart/act-pdn-1us":             "313 8e3d01166de44a2d",
	"table1-2gb/smart/pre-fast-5us":            "7548 1aec4fdc7cc7f251",
	"table1-2gb/smart/pre-fast-20us":           "6592 cd9822c60aa12be5",
	"table1-2gb/smart/pre-ladder-5-50us":       "12718 49e76a4b55793ffa",
	"table1-2gb/smart/sr-100us":                "0 1319e54ac49929f8",
	"table1-2gb/smart/pre-fast+sr-100us":       "4070 f4bbb13332b3ca1b",
	"table1-2gb/smart/ladder-full":             "8441 9e0a952fcd5938bc",
	"table1-2gb/darp/never-sleep":              "0 faf91ff691040e58",
	"table1-2gb/darp/act-pdn-1us":              "293 a112b6adce919592",
	"table1-2gb/darp/pre-fast-5us":             "7534 e159b04791ba9293",
	"table1-2gb/darp/pre-fast-20us":            "6486 15cca991c66b69b1",
	"table1-2gb/darp/pre-ladder-5-50us":        "12472 6fc1a10733a8c0ec",
	"table1-2gb/darp/sr-100us":                 "0 262d0dae64397bab",
	"table1-2gb/darp/pre-fast+sr-100us":        "4344 a0d06292eae1535b",
	"table1-2gb/darp/ladder-full":              "8194 a87e538a7bb4e781",
	"hmc-8vault/vault/cbr/never-sleep":         "0 8a1426f8271bec87",
	"hmc-8vault/vault/cbr/act-pdn-1us":         "197 5181ec8bd8d4ec7b",
	"hmc-8vault/vault/cbr/pre-fast-5us":        "3982 5b918805d839f11d",
	"hmc-8vault/vault/cbr/pre-fast-20us":       "3532 571bc571feca0775",
	"hmc-8vault/vault/cbr/pre-ladder-5-50us":   "6830 535a775dba841a36",
	"hmc-8vault/vault/cbr/sr-100us":            "0 fed5c59f5e88f792",
	"hmc-8vault/vault/cbr/pre-fast+sr-100us":   "2009 ef6484b6f2f1235f",
	"hmc-8vault/vault/cbr/ladder-full":         "4367 a51bfe7eda66ed6f",
	"hmc-8vault/vault/smart/never-sleep":       "0 c3a16fea02dd8a45",
	"hmc-8vault/vault/smart/act-pdn-1us":       "209 4b14b485af93bfec",
	"hmc-8vault/vault/smart/pre-fast-5us":      "4024 84c78f927ff0a6c0",
	"hmc-8vault/vault/smart/pre-fast-20us":     "3573 502b8ed7820379d8",
	"hmc-8vault/vault/smart/pre-ladder-5-50us": "6943 b6e110405752cc20",
	"hmc-8vault/vault/smart/sr-100us":          "0 fb8ae606070614af",
	"hmc-8vault/vault/smart/pre-fast+sr-100us": "2004 98e53d7542cabee2",
	"hmc-8vault/vault/smart/ladder-full":       "4709 0577de32c72d72da",
	"hmc-8vault/vault/darp/never-sleep":        "0 7fe0538766951d83",
	"hmc-8vault/vault/darp/act-pdn-1us":        "221 c372543d72460b3d",
	"hmc-8vault/vault/darp/pre-fast-5us":       "3982 433159f53301bc6d",
	"hmc-8vault/vault/darp/pre-fast-20us":      "3532 16648dc38ea14c2f",
	"hmc-8vault/vault/darp/pre-ladder-5-50us":  "6830 d21a8f7486eea7be",
	"hmc-8vault/vault/darp/sr-100us":           "0 fbfd011b96e23948",
	"hmc-8vault/vault/darp/pre-fast+sr-100us":  "2009 79e2bab1a2fca4c9",
	"hmc-8vault/vault/darp/ladder-full":        "4391 ec808aae310efaa5",
}

// Each power-state policy, driven by the same seeded sparse demand
// stream, must sleep and wake exactly as pinned: the ladder's event
// order is an implementation detail, its outcome is not.
func TestPowerLadderPinned(t *testing.T) {
	vault := config.HMC8Vault()
	vault.Name = "hmc-8vault/vault"
	vault.Geometry = vault.Geometry.PerVault()
	vault.Power.Geometry = vault.Geometry
	for _, cfg := range []config.DRAM{config.Table1_2GB(), vault} {
		for _, pol := range []string{"cbr", "smart", "darp"} {
			e, err := ParsePolicy(pol)
			if err != nil {
				t.Fatal(err)
			}
			for _, ps := range PowerStatePolicies() {
				name := cfg.Name + "/" + pol + "/" + ps.Name
				got := powerLadderDigest(t, cfg, e, ps)
				if want, ok := powerLadderDigests[name]; !ok || got != want {
					t.Errorf("%q: %q, pinned %q", name, got, want)
				}
			}
		}
	}
}

// powerLadderDigest runs policy e under power-state point ps on cfg for
// 4 ms of a seeded demand stream whose gaps are mostly short, sometimes
// tens of microseconds and rarely milliseconds, so every armed rung is
// entered, and refresh ticks and idle-closes wake sleeping ranks.
func powerLadderDigest(t *testing.T, cfg config.DRAM, e PolicyEntry, ps PowerStatePolicy) string {
	t.Helper()
	tr := telemetry.NewTracer()
	tr.SetEventLimit(0)
	c, err := memctrl.New(cfg, e.New(cfg, nil), memctrl.Options{
		SelfRefreshAfter: ps.SelfRefreshAfter,
		PowerStates:      ps.Cfg,
		Trace:            tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(7)
	capacity := uint64(cfg.Geometry.CapacityBytes())
	const end = 4 * sim.Millisecond
	for now := sim.Time(0); ; {
		switch r := rng.Float64(); {
		case r < 0.80:
			now += sim.Time(rng.Int63n(int64(3 * sim.Microsecond)))
		case r < 0.98:
			now += sim.Time(rng.Int63n(int64(120 * sim.Microsecond)))
		default:
			now += sim.Time(rng.Int63n(int64(1500 * sim.Microsecond)))
		}
		if now >= end {
			break
		}
		c.Submit(memctrl.Request{Time: now, Addr: rng.Uint64n(capacity) &^ 63, Write: rng.Bool(0.3)})
	}
	c.Finish(end)

	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	// Decode only the power-down spans: the rest of the trace is every
	// DRAM command of the run.
	marker := []byte(`{"name":"` + telemetry.CmdPowerDown.String() + `"`)
	spans := map[int][]string{}
	n := 0
	for rest := buf.Bytes(); ; n++ {
		i := bytes.Index(rest, marker)
		if i < 0 {
			break
		}
		var ev struct {
			Tid  int     `json:"tid"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Args struct {
				Row int `json:"row"`
			} `json:"args"`
		}
		dec := json.NewDecoder(bytes.NewReader(rest[i:]))
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		spans[ev.Tid] = append(spans[ev.Tid], fmt.Sprintf("%v+%v@%d", ev.Ts, ev.Dur, ev.Args.Row))
		rest = rest[i+int(dec.InputOffset()):]
	}
	tids := make([]int, 0, len(spans))
	for tid := range spans {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	h := sha256.New()
	fmt.Fprintf(h, "%+v\n%+v\n", c.Module().Stats(), c.Policy().Stats())
	for _, tid := range tids {
		fmt.Fprintf(h, "%d %v\n", tid, spans[tid])
	}
	return fmt.Sprintf("%d %x", n, h.Sum(nil)[:8])
}
