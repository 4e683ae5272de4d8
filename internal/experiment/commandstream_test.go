package experiment

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"smartrefresh/internal/config"
	"smartrefresh/internal/core"
	"smartrefresh/internal/dram"
	"smartrefresh/internal/sim"
)

// commandStreamDigests pins every registered policy's leading command
// stream on the Table 1 2 GB module and on one vault of the HMC-8V
// stack, as "<commands> <digest>". A stream is cut at the geometry's row
// count, so every policy that refreshes each row reaches every bank. The
// streams were recorded while core.Command still named its bank by a
// BankID; each command is digested decoded to its (channel, rank, bank)
// coordinates, so a policy that emits the wrong flat bank index changes
// its digest.
var commandStreamDigests = map[string]string{
	"table1-2gb/smart":                 "131072 12aba4b60fdc6558",
	"table1-2gb/cbr":                   "131072 d175dcccd2f9527a",
	"table1-2gb/burst":                 "131072 aeca0ce7618dd36c",
	"table1-2gb/oracle":                "131072 6275e7d0ddee34b0",
	"table1-2gb/none":                  "0 e3b0c44298fc1c14",
	"table1-2gb/smart-retention":       "131072 5d6d4e001ae7320c",
	"table1-2gb/darp":                  "131072 6cd4a2921b7a9063",
	"table1-2gb/sarp":                  "131072 67bb869a1c9ab5bd",
	"table1-2gb/raidr":                 "131072 2e43f66d84231ae0",
	"hmc-8vault/vault/smart":           "32768 57e91adda07100a4",
	"hmc-8vault/vault/cbr":             "32768 a7ce5479f47604f5",
	"hmc-8vault/vault/burst":           "32768 6ed052c386949f8a",
	"hmc-8vault/vault/oracle":          "32768 a96476d4680cbdbc",
	"hmc-8vault/vault/none":            "0 e3b0c44298fc1c14",
	"hmc-8vault/vault/smart-retention": "27484 6e88d553fe6c929f",
	"hmc-8vault/vault/darp":            "32768 71a4b3c08076171d",
	"hmc-8vault/vault/sarp":            "32768 c520d8480776657c",
	"hmc-8vault/vault/raidr":           "32768 027fc6c14df2e269",
}

// Every registered policy, driven by the same seeded restore and demand
// stream, must emit the pinned leading command stream: the same banks,
// rows, kinds and overlap flags in the same order.
func TestPolicyCommandStreamsPinned(t *testing.T) {
	vault := config.HMC8Vault()
	vault.Name = "hmc-8vault/vault"
	vault.Geometry = vault.Geometry.PerVault()
	vault.Power.Geometry = vault.Geometry
	for _, cfg := range []config.DRAM{config.Table1_2GB(), vault} {
		for _, e := range Policies() {
			name := cfg.Name + "/" + e.Name
			want, ok := commandStreamDigests[name]
			if !ok {
				t.Errorf("%s: no pinned command stream", name)
				continue
			}
			if got := commandStreamDigest(cfg, e); got != want {
				t.Errorf("%s: command stream %s, pinned %s", name, got, want)
			}
		}
	}
}

// commandStreamDigest drives policy e on cfg for up to two refresh
// intervals in steps of 1/4096 interval. Each step first restores four
// seeded random rows (and, for a bank-aware policy, reports a demand to
// each row's bank), then drains the policy up to the step. It returns
// the number of commands digested and a digest of the first
// TotalRows, each decoded through dram.BankFromFlat.
func commandStreamDigest(cfg config.DRAM, e PolicyEntry) string {
	g := cfg.Geometry
	var rmap *core.RetentionMap
	if e.RetentionMap {
		rmap = DefaultRetentionMap(g, 1)
	}
	p := e.New(cfg, rmap)
	p.Reset(0)
	ba, _ := p.(core.BankAware)
	rng := sim.NewRNG(1)
	h := sha256.New()
	n, limit := 0, g.TotalRows()
	var cmds []core.Command
	interval := cfg.RefreshInterval()
	for now := sim.Time(0); n < limit && now < 2*interval; now += interval / 4096 {
		for k := 0; k < 4; k++ {
			row := dram.RowFromFlat(&g, rng.Intn(g.TotalRows()))
			p.OnRowRestore(now, row)
			if ba != nil {
				ba.OnDemandObserved(now, row.BankOf().Flat(&g), k%2 == 0)
			}
		}
		for {
			next, ok := p.NextTick()
			if !ok || next > now {
				break
			}
			cmds = p.Advance(now, cmds[:0])
			for _, c := range cmds {
				if n == limit {
					break
				}
				b := dram.BankFromFlat(&g, c.Bank)
				fmt.Fprintf(h, "%d/%d/%d %d %v %v\n", b.Channel, b.Rank, b.Bank, c.Row, c.Kind, c.Overlap)
				n++
			}
		}
	}
	return fmt.Sprintf("%d %x", n, h.Sum(nil)[:8])
}
