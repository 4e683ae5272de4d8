package memctrl

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"smartrefresh/internal/config"
	"smartrefresh/internal/core"
	"smartrefresh/internal/sim"
	"smartrefresh/internal/telemetry"
)

// TestSection5QueueDrainArithmetic reproduces the section 5 argument with
// the paper's own numbers: "if the refresh interval is 32ms and there are
// 8192 rows in the device, the counters are accessed every 4us... since
// refreshing a row takes 70ns and the counters are accessed every 4us...
// the number of rows that may be refreshed between successive counter
// accesses will be 57. Nevertheless, in the worst case, we only need to
// refresh 8 rows in that deadline. Thus a queue of length 8 is sufficient
// and it will never overflow."
func TestSection5QueueDrainArithmetic(t *testing.T) {
	// A device with 8192 rows total across its banks, 32 ms interval.
	cfg := config.Table1_2GB()
	cfg.Name = "section5"
	cfg.Geometry.Rows = 1024 // 1024 rows x 4 banks x 2 ranks = 8192
	cfg.Timing.RefreshInterval = 32 * sim.Millisecond
	cfg.Power.Geometry = cfg.Geometry
	cfg.Power.Timing = cfg.Timing
	cfg.Smart.SelfDisable = false
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}

	p := core.NewSmart(cfg.Geometry, cfg.RefreshInterval(), cfg.Smart)
	// Counter access period = 32ms/8 = 4ms; rows per segment = 1024;
	// tick spacing = 4ms/1024 ~ 3.9us — the paper's "every 4us".
	tick := p.TickPeriod()
	if tick < 3900*sim.Nanosecond || tick > 4000*sim.Nanosecond {
		t.Fatalf("tick period = %v, want ~3.9us", tick)
	}
	// 70 ns per refresh: 57 refreshes fit between ticks (the paper's
	// number includes a burst-of-eight convention; the bound that matters
	// is 8 x 70ns << 3.9us).
	fits := int(tick / cfg.Timing.TRefreshRow)
	if fits < 55 {
		t.Fatalf("only %d refreshes fit between ticks", fits)
	}

	// Drive the full controller with the worst traffic we can construct
	// and verify every tick's refreshes complete before the next tick.
	// The trace gives each refresh's completion, in dispatch order, and
	// duePolicy the tick each was due at.
	tr := telemetry.NewTracer()
	due := &duePolicy{Policy: p}
	ctl := MustNew(cfg, due, Options{Trace: tr})
	rng := sim.NewRNG(123)
	end := sim.Time(2 * cfg.RefreshInterval())
	for now := sim.Time(0); now < end; now += sim.Time(rng.Intn(int(80 * sim.Microsecond))) {
		// Random demand traffic to misalign counters.
		ctl.Submit(Request{
			Time: now,
			Addr: rng.Uint64() % uint64(ctl.Mapper().Capacity()),
		})
	}
	ctl.Finish(end)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name    string
			Ts, Dur float64 // microseconds
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatal(err)
	}
	var done []sim.Time
	for _, e := range trace.TraceEvents {
		if e.Name == telemetry.CmdRefreshRASOnly.String() {
			done = append(done, sim.Time(math.Round((e.Ts+e.Dur)*1e6)))
		}
	}
	if len(done) != len(due.at) || len(done) == 0 {
		t.Fatalf("%d refreshes traced, %d due", len(done), len(due.at))
	}
	// No refresh ever completes more than one tick period after it was
	// due: the pending refresh work always drains before the next
	// counter access.
	worstLag := sim.Duration(0)
	for i, at := range due.at {
		worstLag = max(worstLag, done[i]-at)
	}
	if worstLag > tick {
		t.Errorf("worst refresh lag %v exceeds tick period %v: queue would back up", worstLag, tick)
	}
	// And the policy never generated more than the queue width per tick.
	if got := p.Stats().MaxPendingPerTick; got > cfg.Smart.QueueDepth {
		t.Errorf("max pending per tick %d exceeds queue depth %d", got, cfg.Smart.QueueDepth)
	}
}

// duePolicy records the tick each refresh command of its policy was due
// at, in issue order.
type duePolicy struct {
	core.Policy
	at []sim.Time
}

func (p *duePolicy) Advance(t sim.Time, dst []core.Command) []core.Command {
	out := p.Policy.Advance(t, dst)
	for range out[len(dst):] {
		p.at = append(p.at, t)
	}
	return out
}
