package memctrl

import (
	"testing"

	"smartrefresh/internal/config"
	"smartrefresh/internal/core"
	"smartrefresh/internal/dram"
	"smartrefresh/internal/sim"
)

// dualChannelConfig doubles the tiny config across two channels.
func dualChannelConfig() config.DRAM {
	c := tinyConfig(64 * sim.Millisecond)
	c.Name = "tiny-2ch"
	c.Geometry.Channels = 2
	c.Power.Geometry = c.Geometry
	return c
}

func TestDualChannelConfigValid(t *testing.T) {
	c := dualChannelConfig()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	single := tinyConfig(64 * sim.Millisecond)
	if c.Geometry.TotalRows() != 2*single.Geometry.TotalRows() {
		t.Error("second channel did not double the rows")
	}
	if c.BaselineRefreshesPerSecond() != 2*single.BaselineRefreshesPerSecond() {
		t.Error("baseline refresh rate did not double")
	}
}

func TestDualChannelMapperCoversBothChannels(t *testing.T) {
	c := dualChannelConfig()
	m := NewMapper(c.Geometry)
	seen := map[int]bool{}
	for phys := uint64(0); phys < uint64(m.Capacity()); phys += uint64(m.BurstBytes()) {
		bank, _ := m.Map(phys)
		seen[dram.RowInBank(&c.Geometry, bank, 0).Channel] = true
	}
	if !seen[0] || !seen[1] {
		t.Errorf("channels covered: %v", seen)
	}
}

func TestDualChannelBusesIndependent(t *testing.T) {
	c := dualChannelConfig()
	ctl := MustNew(c, core.NewCBR(c.Geometry, c.RefreshInterval()), Options{})
	m := ctl.Mapper()
	// Find two addresses on different channels.
	var a0, a1 uint64
	found0, found1 := false, false
	for phys := uint64(0); phys < uint64(m.Capacity()); phys += 64 {
		bank, _ := m.Map(phys)
		switch dram.RowInBank(&c.Geometry, bank, 0).Channel {
		case 0:
			if !found0 {
				a0, found0 = phys, true
			}
		case 1:
			if !found1 {
				a1, found1 = phys, true
			}
		}
		if found0 && found1 {
			break
		}
	}
	if !found0 || !found1 {
		t.Fatal("could not find both channels")
	}
	// Back-to-back accesses on different channels overlap on the data
	// buses: the second must not wait for the first's data.
	r0 := ctl.Submit(Request{Time: 0, Addr: a0})
	r1 := ctl.Submit(Request{Time: 0, Addr: a1})
	if r1.DataStart >= r0.Done {
		t.Errorf("channel 1 data at %v serialised behind channel 0 done %v", r1.DataStart, r0.Done)
	}
}

func TestDualChannelRefreshCoversAllRows(t *testing.T) {
	c := dualChannelConfig()
	p := core.NewSmart(c.Geometry, c.RefreshInterval(), func() core.SmartConfig {
		sc := c.Smart
		sc.SelfDisable = false
		return sc
	}())
	ctl := MustNew(c, p, Options{CheckRetention: true})
	end := sim.Time(2 * c.RefreshInterval())
	ctl.Finish(end)
	if err := ctl.RetentionErr(); err != nil {
		t.Fatalf("dual-channel retention violated: %v", err)
	}
	res := ctl.Results(end)
	// Steady state: every row of both channels refreshed per interval.
	if res.RefreshOps < uint64(c.Geometry.TotalRows()) {
		t.Errorf("refresh ops = %d, want >= %d", res.RefreshOps, c.Geometry.TotalRows())
	}
}
