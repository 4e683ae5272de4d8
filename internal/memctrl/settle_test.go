package memctrl

import (
	"testing"

	"smartrefresh/internal/core"
	"smartrefresh/internal/dram"
	"smartrefresh/internal/sim"
)

// scriptedPolicy issues a fixed list of refresh ticks, one per Advance
// call, so two ticks at the same instant stay two ticks.
type scriptedPolicy struct {
	ticks []scriptedTick
	stats core.PolicyStats
}

type scriptedTick struct {
	at   sim.Time
	cmds []core.Command
}

func (p *scriptedPolicy) Name() string                      { return "scripted" }
func (p *scriptedPolicy) Reset(sim.Time)                    {}
func (p *scriptedPolicy) OnRowRestore(sim.Time, dram.RowID) {}
func (p *scriptedPolicy) Stats() core.PolicyStats           { return p.stats }

func (p *scriptedPolicy) NextTick() (sim.Time, bool) {
	if len(p.ticks) == 0 {
		return 0, false
	}
	return p.ticks[0].at, true
}

func (p *scriptedPolicy) Advance(t sim.Time, dst []core.Command) []core.Command {
	if len(p.ticks) == 0 || p.ticks[0].at > t {
		return dst
	}
	dst = append(dst, p.ticks[0].cmds...)
	p.stats.RefreshesRequested += uint64(len(p.ticks[0].cmds))
	p.ticks = p.ticks[1:]
	return dst
}

// openRank0 builds a controller over policy p with only ACT-PDN armed and
// opens a page in flat bank 0 of rank 0; it returns the access's end,
// from which the rank's idle clock runs.
func openRank0(t *testing.T, p core.Policy) (*Controller, sim.Time) {
	t.Helper()
	ctl := MustNew(tinyConfig(64*sim.Millisecond), p,
		Options{PowerStates: PowerStateConfig{ActPdnAfter: 1 * sim.Microsecond}})
	done := ctl.Submit(Request{Time: 0, Addr: 0}).Done
	ctl.AdvanceTo(done + 1500*sim.Nanosecond)
	if got := ctl.PowerStateOf(0, 0); got != PSActPdn {
		t.Fatalf("setup: rank 0 is %v, want %v", got, PSActPdn)
	}
	return ctl, done
}

// A rank woken by the first of two policy ticks at one instant must stay
// awake for the second: the walk back down runs after every same-instant
// tick, exactly as when both refreshes come from one tick. Settling
// after the first tick would re-enter ACT-PDN between the two and pay a
// second wake.
func TestSettleWaitsForSameInstantTick(t *testing.T) {
	ras := func(bank, row int) core.Command {
		return core.Command{Bank: bank, Row: row, Kind: dram.RefreshRASOnly}
	}
	run := func(split bool) dram.ModuleStats {
		p := &scriptedPolicy{}
		ctl, done := openRank0(t, p)
		at := done + 1800*sim.Nanosecond
		if split {
			p.ticks = []scriptedTick{{at, []core.Command{ras(1, 5)}}, {at, []core.Command{ras(2, 7)}}}
		} else {
			p.ticks = []scriptedTick{{at, []core.Command{ras(1, 5), ras(2, 7)}}}
		}
		ctl.AdvanceTo(at)
		if got := ctl.PowerStateOf(0, 0); got != PSActPdn {
			t.Errorf("split=%v: rank 0 is %v after the ticks, want %v (page still open)", split, got, PSActPdn)
		}
		ctl.Finish(20 * sim.Microsecond)
		return ctl.Module().Stats()
	}
	one, two := run(false), run(true)
	if two != one {
		t.Errorf("two same-instant ticks:\n%+v\none tick with both commands:\n%+v", two, one)
	}
	// The descent, the re-entry after the refreshes; the idle-close then
	// wakes the rank, and with no page left open it stays awake.
	if one.PowerDownEntries != 2 {
		t.Errorf("PowerDownEntries = %d, want 2", one.PowerDownEntries)
	}
}

// A refresh that wakes a rank at the instant one of its open pages is
// due to close must leave the close to the drain before the walk: the
// precharge finds the rank awake, the walk then finds no page to hold
// open, and the rank stays awake without re-entering ACT-PDN.
func TestSettleWaitsForSameInstantIdleClose(t *testing.T) {
	p := &scriptedPolicy{}
	ctl, done := openRank0(t, p)
	at := done + DefaultIdleClose // the open page's close deadline
	p.ticks = []scriptedTick{{at, []core.Command{{Bank: 1, Row: 3, Kind: dram.RefreshRASOnly}}}}
	ctl.AdvanceTo(at)
	if got := ctl.PowerStateOf(0, 0); got != PSAwake {
		t.Errorf("rank 0 is %v after the refresh and the close, want %v", got, PSAwake)
	}
	if open := ctl.Module().OpenRow(0); open != -1 {
		t.Errorf("bank 0 still has row %d open", open)
	}
	if n := ctl.Module().Stats().PowerDownEntries; n != 1 {
		t.Errorf("PowerDownEntries = %d, want 1 (the descent only)", n)
	}
}
