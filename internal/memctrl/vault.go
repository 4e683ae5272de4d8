package memctrl

import (
	"fmt"
	"math/bits"
	"runtime"
	"time"

	"smartrefresh/internal/config"
	"smartrefresh/internal/core"
	"smartrefresh/internal/sim"
	"smartrefresh/internal/stats"
)

// VaultPageBytes is the vault-interleave granularity: consecutive 4 KB
// pages round-robin across vaults, the layout the sniper stacked-DRAM
// controller uses (vault index from the address bits just above the page
// offset). Within a vault the per-vault Mapper applies the usual
// row/rank/bank/column slicing to the compacted local address.
const VaultPageBytes = 4096

const vaultPageShift = 12 // log2(VaultPageBytes)

// PolicyFactory builds the refresh policy for one vault. Each vault owns
// an independent policy instance constructed against the per-vault
// geometry; sharing one policy across vaults would serialize them and
// corrupt per-row state.
type PolicyFactory func(vault int, cfg config.DRAM) (core.Policy, error)

// VaultOptions tune vault-array construction.
type VaultOptions struct {
	// Options is applied to every vault controller. With more than one
	// vault, MetricsPrefix (or its "<config>/<policy>" default) is
	// extended with "/vaultNN" per vault, so the vaults' metric names
	// never collide; a one-vault array's controller keeps it as is. A
	// non-nil Trace forces serial advancement (Workers=1): the tracer's
	// scopes are not safe for concurrent writers.
	Options

	// Workers bounds the goroutines advancing vaults in parallel. Zero
	// means GOMAXPROCS, one means serial — the reference schedule the
	// determinism tests compare all other worker counts against.
	Workers int
}

// VaultArray is N independent vault controllers behind a single
// controller-like interface: demand requests route by address to one
// vault, refresh state and statistics stay vault-private, and the vaults
// advance in parallel between epoch barriers.
//
// A conventional (monolithic) module is the one-vault case: its router
// is the identity, Enqueue submits inline with no pending queue, and its
// one controller runs on the module's configuration, under its name and
// metrics prefix, and reports its own results.
//
// Determinism: routing is a pure function of the address, each vault
// consumes its own requests in arrival order, and the vaults share no
// mutable state, so results are bit-identical at any Workers count. The
// aggregation in Results folds vaults in index order.
//
// Dispatch: at each barrier the vaults are handed to the workers largest
// pending queue first, ties to the lower index (the LPT schedule), so a
// heavy vault never starts last and runs alone at the end of the epoch.
// A serial array keeps index order. Either way the order is invisible in
// the results, since the vaults share no state.
type VaultArray struct {
	cfg    config.DRAM
	vaults []*Controller
	runner sim.ShardRunner
	// vaultShift is log2 of the vault count: Route's page-to-local
	// division (Geometry.Validate requires a power-of-two count).
	vaultShift uint

	// lanes holds, per vault, what a barrier's worker writes besides
	// the controller: the request queue and the busy time.
	lanes []*lane
	// order is the current barrier's dispatch order over vault indices.
	order []int

	now sim.Time
	// finishing makes the barrier close each vault (Controller.Finish at
	// end) instead of advancing it to now.
	finishing bool
	end       sim.Time

	// dispatch runs the i-th vault of order; bound once at construction,
	// so a barrier hands the runner a function value without allocating.
	dispatch func(i int)

	// Host-side barrier timing, outside every result and fingerprint
	// (each vault's busy time is in its lane).
	wait     time.Duration // summed barrier time beyond an even split
	barriers int
	// parallel is the parallelism a barrier can use: the worker count
	// capped at GOMAXPROCS.
	parallel int

	// hist is fold's merged latency histogram, reused across calls and
	// empty between them, so Reset need not touch it.
	hist *stats.Histogram
}

// lane is one vault's request queue and busy time. A barrier's workers
// write their vaults' lanes concurrently, so each lane owns its cache
// lines (sim.OwnLine), as the vault controllers do.
type lane struct {
	// pending holds the requests enqueued since the last flush, in
	// arrival order; Reset empties it and keeps its capacity.
	pending []Request
	// busy is the vault's flush time, summed over barriers.
	busy time.Duration
}

// NewVaultArray builds one controller per vault of cfg's geometry: one
// for a conventional module.
func NewVaultArray(cfg config.DRAM, factory PolicyFactory, opts VaultOptions) (*VaultArray, error) {
	// Validate before the factory builds any policy: a vault controller
	// validates only its share, and a policy constructor may panic on a
	// configuration Validate rejects.
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Geometry.VaultCount()
	va := &VaultArray{
		cfg:        cfg,
		vaults:     make([]*Controller, n),
		vaultShift: uint(bits.TrailingZeros(uint(n))),
		lanes:      make([]*lane, n),
		order:      make([]int, n),
		hist:       stats.NewHistogram(latencyHistBuckets, latencyHistWidth),
	}
	for v := range va.lanes {
		va.lanes[v] = sim.OwnLine[lane]()
	}
	va.dispatch = func(i int) { va.flushVault(va.order[i]) }
	if err := va.Reset(factory, opts); err != nil {
		return nil, err
	}
	return va, nil
}

// Reset readies the array for a new run of its configuration with one
// policy per vault from factory and with opts: the array
// NewVaultArray(cfg, factory, opts) returns, built on this one's vault
// controllers, request queues and tables. On an error the array must not
// be used again.
func (va *VaultArray) Reset(factory PolicyFactory, opts VaultOptions) error {
	if factory == nil {
		return fmt.Errorf("memctrl: nil policy factory")
	}
	n := len(va.vaults)
	workers := opts.Workers
	if opts.Trace != nil {
		workers = 1
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	va.runner = sim.ShardRunner{Workers: workers}
	va.parallel = min(workers, runtime.GOMAXPROCS(0))
	for v, l := range va.lanes {
		l.pending, l.busy = l.pending[:0], 0
		va.order[v] = v
	}
	va.now, va.finishing, va.end = 0, false, 0
	va.wait, va.barriers = 0, 0

	for v, ctl := range va.vaults {
		var vcfg config.DRAM
		if ctl != nil {
			vcfg = ctl.cfg
		} else {
			vcfg = VaultConfig(va.cfg, v)
		}
		policy, err := factory(v, vcfg)
		if err != nil {
			return fmt.Errorf("memctrl: vault %d policy: %w", v, err)
		}
		vopts := opts.Options
		if n > 1 && (vopts.Trace != nil || vopts.Metrics != nil) {
			// The prefix names only the vault's trace scope and metrics.
			vopts.MetricsPrefix = fmt.Sprintf("%s/vault%02d", opts.prefix(va.cfg, policy), v)
		}
		if ctl == nil {
			ctl, err = New(vcfg, policy, vopts)
			va.vaults[v] = ctl
		} else {
			err = ctl.Reset(policy, vopts)
		}
		if err != nil {
			return va.vaultErr(v, err)
		}
	}
	return nil
}

// vaultErr names vault v in err, unless the array is a single module.
func (va *VaultArray) vaultErr(v int, err error) error {
	if len(va.vaults) == 1 {
		return err
	}
	return fmt.Errorf("memctrl: vault %d: %w", v, err)
}

// VaultConfig is vault v's configuration in a stack of cfg: the
// per-vault geometry, with the power model's per-op energies keyed off
// that share (per-rank background times sum across vaults exactly as they
// do across ranks). A one-vault array's controller runs on the module's
// configuration.
func VaultConfig(cfg config.DRAM, v int) config.DRAM {
	if !cfg.Geometry.Vaulted() {
		return cfg
	}
	vcfg := cfg
	vcfg.Name = fmt.Sprintf("%s/vault%02d", cfg.Name, v)
	vcfg.Geometry = cfg.Geometry.PerVault()
	vcfg.Power.Geometry = vcfg.Geometry
	return vcfg
}

// MustNewVaultArray is NewVaultArray for vetted presets.
func MustNewVaultArray(cfg config.DRAM, factory PolicyFactory, opts VaultOptions) *VaultArray {
	va, err := NewVaultArray(cfg, factory, opts)
	if err != nil {
		panic(err)
	}
	return va
}

// Config returns the stack-level configuration the array was built from.
func (va *VaultArray) Config() config.DRAM { return va.cfg }

// Vaults returns the number of vaults.
func (va *VaultArray) Vaults() int { return len(va.vaults) }

// Vault exposes one vault's controller (tests and invariant checks).
func (va *VaultArray) Vault(v int) *Controller { return va.vaults[v] }

// Route returns the vault servicing addr and the compacted vault-local
// address (the vault-index bits removed, page offset kept).
func (va *VaultArray) Route(addr uint64) (vault int, local uint64) {
	page := addr >> vaultPageShift
	vault = int(page & (uint64(len(va.vaults)) - 1))
	local = page>>va.vaultShift<<vaultPageShift | addr&(VaultPageBytes-1)
	return vault, local
}

// Enqueue buffers one demand request for its vault. Requests must arrive
// in nondecreasing time order (the same contract as Controller.Submit);
// they are consumed at the next FlushTo. A one-vault array submits the
// request at once.
func (va *VaultArray) Enqueue(req Request) {
	if req.Time < va.now {
		panic(fmt.Sprintf("memctrl: request at %v before vault-array time %v", req.Time, va.now))
	}
	if len(va.vaults) == 1 {
		va.vaults[0].Submit(req)
		return
	}
	v, local := va.Route(req.Addr)
	req.Addr = local
	l := va.lanes[v]
	l.pending = append(l.pending, req)
}

// FlushTo advances every vault to time t in parallel: each vault submits
// its buffered requests in order, then drains refresh/idle events up to
// t. FlushTo is an epoch barrier — it returns only when every vault has
// reached t. Epochs bound the buffering (callers flush at least once per
// refresh interval) and are the only synchronization vaults ever need,
// since no state crosses vault boundaries.
func (va *VaultArray) FlushTo(t sim.Time) {
	if t < va.now {
		panic(fmt.Sprintf("memctrl: FlushTo(%v) before vault-array time %v", t, va.now))
	}
	va.now = t
	va.barrier()
}

// Finish closes the simulation at end on every vault (parallel, with the
// usual barrier), submitting any requests still buffered first.
func (va *VaultArray) Finish(end sim.Time) {
	if end > va.now {
		va.now = end
	}
	va.finishing, va.end = true, end
	va.barrier()
	va.finishing = false
}

// barrier runs every vault's flush, largest pending queue first, and
// returns when all have finished. It also charges the barrier's wait:
// its wall time beyond an even split of the vaults' busy time over the
// usable parallelism (imbalance plus dispatch overhead).
func (va *VaultArray) barrier() {
	busyBefore := va.totalBusy()
	start := time.Now()
	va.sortOrder()
	va.runner.Run(len(va.vaults), va.dispatch)
	wall := time.Since(start)
	even := (va.totalBusy() - busyBefore) / time.Duration(va.parallel)
	va.wait += max(wall-even, 0)
	va.barriers++
}

// sortOrder arranges order largest pending queue first, ties to the lower
// vault index: an insertion sort from the previous barrier's order, which
// allocates nothing. A serial array keeps index order, so its traces are
// those of a plain vault loop.
func (va *VaultArray) sortOrder() {
	if va.runner.Workers == 1 {
		return
	}
	o := va.order
	for i := 1; i < len(o); i++ {
		v, n := o[i], len(va.lanes[o[i]].pending)
		j := i
		for ; j > 0; j-- {
			u, m := o[j-1], len(va.lanes[o[j-1]].pending)
			if m > n || m == n && u < v {
				break
			}
			o[j] = u
		}
		o[j] = v
	}
}

// flushVault is one vault's share of a barrier: submit its buffered
// requests in order, then drain to the epoch time va.now (or close the
// vault at va.end when finishing).
func (va *VaultArray) flushVault(v int) {
	start := time.Now()
	ctl, l := va.vaults[v], va.lanes[v]
	for _, req := range l.pending {
		ctl.Submit(req)
	}
	l.pending = l.pending[:0]
	if va.finishing {
		ctl.Finish(va.end)
	} else {
		ctl.AdvanceTo(va.now)
	}
	l.busy += time.Since(start)
}

// totalBusy is the vaults' summed busy time so far.
func (va *VaultArray) totalBusy() time.Duration {
	var sum time.Duration
	for _, l := range va.lanes {
		sum += l.busy
	}
	return sum
}

// VaultTiming is the host-side timing of a vault array's barriers. It
// describes the schedule, not the simulation: it varies from run to run
// and is kept out of Results and every fingerprint.
type VaultTiming struct {
	// Barriers counts FlushTo and Finish calls.
	Barriers int
	// Wait is the summed time each barrier ran beyond an even split of
	// its vault work over its workers (capped at GOMAXPROCS): the cost
	// of imbalance (a heavy vault finishing alone) plus dispatch
	// overhead.
	Wait time.Duration
	// Busy is each vault's summed flush time, in vault order.
	Busy []time.Duration
}

// Timing returns the array's barrier timing so far.
func (va *VaultArray) Timing() VaultTiming {
	busy := make([]time.Duration, len(va.lanes))
	for v, l := range va.lanes {
		busy[v] = l.busy
	}
	return VaultTiming{Barriers: va.barriers, Wait: va.wait, Busy: busy}
}

// TotalBusy is the vaults' summed flush time: the work the barriers
// divided among their workers.
func (t VaultTiming) TotalBusy() time.Duration { return sumDurations(t.Busy) }

// WaitPerBarrier is the mean Wait per barrier.
func (t VaultTiming) WaitPerBarrier() time.Duration {
	if t.Barriers == 0 {
		return 0
	}
	return t.Wait / time.Duration(t.Barriers)
}

func sumDurations(ds []time.Duration) time.Duration {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum
}

// RetentionErr returns the first vault's retention violation, scanning in
// vault order (deterministic, not goroutine order).
func (va *VaultArray) RetentionErr() error {
	for v, ctl := range va.vaults {
		if err := ctl.RetentionErr(); err != nil {
			return va.vaultErr(v, err)
		}
	}
	return nil
}

// VaultResults returns each vault's individual summary, in vault order.
func (va *VaultArray) VaultResults(end sim.Time) []Results {
	out := make([]Results, len(va.vaults))
	for v, ctl := range va.vaults {
		out[v] = ctl.Results(end)
	}
	return out
}

// Results aggregates all vaults into one stack-level summary (see fold);
// a one-vault array's is its controller's own.
func (va *VaultArray) Results(end sim.Time) Results {
	if len(va.vaults) == 1 {
		return va.vaults[0].Results(end)
	}
	return va.fold(va.VaultResults(end), end, end)
}

// ResultsSince is Controller.ResultsSince per vault against that vault's
// snapshot, returned with its stack-level fold. A one-vault array
// returns its controller's own window and no per-vault breakdown.
func (va *VaultArray) ResultsSince(end sim.Time, s []Snapshot, window sim.Duration) (Results, []Results) {
	if len(va.vaults) == 1 {
		return va.vaults[0].ResultsSince(end, s[0], window), nil
	}
	per := make([]Results, len(va.vaults))
	for v, ctl := range va.vaults {
		per[v] = ctl.ResultsSince(end, s[v], window)
	}
	return va.fold(per, end, window), per
}

// fold sums per-vault summaries into the stack-level one: counters and
// energy add, the latency distribution is the merged per-vault
// histogram (quantiles over the whole stack, not averages of quantiles),
// and high-water marks take the maximum. Folding happens in vault index
// order so the result is bit-identical at any worker count.
func (va *VaultArray) fold(per []Results, end sim.Time, window sim.Duration) Results {
	r := Results{Span: end}
	var lat stats.Sample
	hist := va.hist
	for v, ctl := range va.vaults {
		p := &per[v]
		r.Requests += p.Requests
		r.RowHits += p.RowHits
		r.RefreshesDroppedSelfRefresh += p.RefreshesDroppedSelfRefresh
		r.Module = r.Module.Add(p.Module)
		r.Policy = r.Policy.Add(p.Policy)
		r.Energy = r.Energy.Add(p.Energy)

		lat.Merge(&ctl.latency)
		hist.Merge(ctl.latencyHist)
	}
	r.AvgLatencyNS = lat.Mean()
	r.P50LatencyNS = hist.Quantile(0.5)
	r.P99LatencyNS = hist.Quantile(0.99)
	hist.Reset()
	r.mirrorModule(window)
	return r
}
