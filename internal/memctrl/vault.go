package memctrl

import (
	"fmt"

	"smartrefresh/internal/config"
	"smartrefresh/internal/core"
	"smartrefresh/internal/dram"
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
	// Options is applied to every vault controller. MetricsPrefix (or
	// its "<config>/<policy>" default) is extended with "/vaultNN" per
	// vault so concurrent controllers never race on metric names. A
	// non-nil Trace forces serial advancement (Workers=1): the tracer's
	// scopes are not safe for concurrent writers.
	Options

	// Workers bounds the goroutines advancing vaults in parallel. Zero
	// means GOMAXPROCS, one means serial — the reference schedule the
	// determinism tests compare all other worker counts against.
	Workers int

	// Seed is the root of the per-vault RNG tree: vault v gets the v-th
	// fork of NewRNG(Seed), a fixed function of (Seed, v) regardless of
	// worker count.
	Seed uint64

	// Remap overrides the identity logical-to-physical vault mapping
	// (thermal/wear leveling). Nil means identity. Its length must equal
	// the vault count.
	Remap *dram.VaultRemap
}

// VaultArray is N independent vault controllers behind a single
// controller-like interface: demand requests route by address to one
// vault, refresh state and statistics stay vault-private, and the vaults
// advance in parallel between epoch barriers.
//
// Determinism: routing is a pure function of the address, each vault
// consumes its own requests in arrival order, and the vaults share no
// mutable state, so results are bit-identical at any Workers count. The
// aggregation in Results folds vaults in index order.
type VaultArray struct {
	cfg    config.DRAM
	vaults []*Controller
	rngs   []*sim.RNG
	remap  *dram.VaultRemap
	runner sim.ShardRunner

	// pending holds requests enqueued since the last flush, per physical
	// vault, in arrival order.
	pending [][]Request
	// seq counts per-vault enqueues, the Seq component of the
	// (Time, vault, seq) ordering key for anything a vault emits.
	seq []uint64

	now     sim.Time
	lastErr error

	// flush is flushVault bound once at construction, so an epoch hands
	// the runner a function value without allocating one.
	flush func(v int)
}

// NewVaultArray builds one controller per vault of cfg's geometry.
func NewVaultArray(cfg config.DRAM, factory PolicyFactory, opts VaultOptions) (*VaultArray, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := cfg.Geometry
	if !g.Vaulted() {
		return nil, fmt.Errorf("memctrl: geometry of %s has %d vaults; VaultArray needs at least 2", cfg.Name, g.Vaults)
	}
	if factory == nil {
		return nil, fmt.Errorf("memctrl: nil policy factory")
	}
	n := g.VaultCount()
	remap := opts.Remap
	if remap == nil {
		remap = dram.IdentityRemap(n)
	}
	if remap.Len() != n {
		return nil, fmt.Errorf("memctrl: remap over %d vaults for a %d-vault geometry", remap.Len(), n)
	}
	if err := remap.Check(); err != nil {
		return nil, err
	}

	workers := opts.Workers
	if opts.Trace != nil {
		workers = 1
	}

	va := &VaultArray{
		cfg:     cfg,
		vaults:  make([]*Controller, n),
		rngs:    make([]*sim.RNG, n),
		remap:   remap,
		runner:  sim.ShardRunner{Workers: workers},
		pending: make([][]Request, n),
		seq:     make([]uint64, n),
	}
	va.flush = va.flushVault

	root := sim.NewRNG(opts.Seed)
	perVault := cfg
	perVault.Geometry = g.PerVault()
	// The power model's per-op energies key off the geometry it carries;
	// each vault evaluates against its own share (per-rank background
	// times sum across vaults exactly as they do across ranks).
	perVault.Power.Geometry = perVault.Geometry
	for v := 0; v < n; v++ {
		// Fork in vault order so vault v's stream depends only on
		// (Seed, v), never on construction concurrency.
		va.rngs[v] = root.Fork()

		vcfg := perVault
		vcfg.Name = fmt.Sprintf("%s/vault%02d", cfg.Name, v)
		policy, err := factory(v, vcfg)
		if err != nil {
			return nil, fmt.Errorf("memctrl: vault %d policy: %w", v, err)
		}
		vopts := opts.Options
		base := vopts.MetricsPrefix
		if base == "" {
			base = cfg.Name + "/" + policy.Name()
		}
		vopts.MetricsPrefix = fmt.Sprintf("%s/vault%02d", base, v)
		ctl, err := New(vcfg, policy, vopts)
		if err != nil {
			return nil, fmt.Errorf("memctrl: vault %d: %w", v, err)
		}
		va.vaults[v] = ctl
	}
	return va, nil
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

// RNG returns vault v's private random stream, a fixed fork of the
// array's seed independent of worker count.
func (va *VaultArray) RNG(v int) *sim.RNG { return va.rngs[v] }

// Route returns the physical vault servicing addr and the compacted
// vault-local address (the vault-index bits removed, page offset kept).
func (va *VaultArray) Route(addr uint64) (vault int, local uint64) {
	n := uint64(len(va.vaults))
	logical := int((addr >> vaultPageShift) & (n - 1))
	vault = va.remap.Physical(logical)
	page := (addr >> vaultPageShift) / n
	local = page<<vaultPageShift | addr&(VaultPageBytes-1)
	return vault, local
}

// Enqueue buffers one demand request for its vault. Requests must arrive
// in nondecreasing time order (the same contract as Controller.Submit);
// they are consumed at the next FlushTo.
func (va *VaultArray) Enqueue(req Request) {
	if req.Time < va.now {
		panic(fmt.Sprintf("memctrl: request at %v before vault-array time %v", req.Time, va.now))
	}
	v, local := va.Route(req.Addr)
	req.Addr = local
	va.pending[v] = append(va.pending[v], req)
	va.seq[v]++
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
	va.runner.Run(len(va.vaults), va.flush)
}

// flushVault is one vault's share of FlushTo: submit its buffered
// requests in order, then drain to the epoch time va.now.
func (va *VaultArray) flushVault(v int) {
	ctl := va.vaults[v]
	for _, req := range va.pending[v] {
		ctl.Submit(req)
	}
	va.pending[v] = va.pending[v][:0]
	ctl.AdvanceTo(va.now)
}

// Finish closes the simulation at end on every vault (parallel, with the
// usual barrier).
func (va *VaultArray) Finish(end sim.Time) {
	if end > va.now {
		va.now = end
	}
	va.runner.Run(len(va.vaults), func(v int) {
		for _, req := range va.pending[v] {
			va.vaults[v].Submit(req)
		}
		va.pending[v] = va.pending[v][:0]
		va.vaults[v].Finish(end)
	})
}

// RetentionErr returns the first vault's retention violation, scanning in
// vault order (deterministic, not goroutine order).
func (va *VaultArray) RetentionErr() error {
	for v, ctl := range va.vaults {
		if err := ctl.RetentionErr(); err != nil {
			return fmt.Errorf("vault %d: %w", v, err)
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

// Results aggregates all vaults into one stack-level summary: counters
// and energy sum, the latency distribution is the merged per-vault
// histogram (quantiles over the whole stack, not averages of quantiles),
// and high-water marks take the maximum. Folding happens in vault index
// order so the result is bit-identical at any worker count.
func (va *VaultArray) Results(end sim.Time) Results {
	var r Results
	r.Span = end

	var lat stats.Sample
	hist := stats.NewHistogram(latencyHistBuckets, latencyHistWidth)
	for _, ctl := range va.vaults {
		r.Requests += ctl.requests.Value()
		r.RowHits += ctl.rowHits.Value()
		r.RefreshesDroppedSelfRefresh += ctl.refreshesDroppedSR

		ms := ctl.module.Stats()
		ps := ctl.policy.Stats()
		r.Module = r.Module.Add(ms)
		r.Policy = r.Policy.Add(ps)
		r.Energy = r.Energy.Add(ctl.cfg.Power.Evaluate(ms, ps))

		lat.Merge(&ctl.latency)
		hist.Merge(ctl.latencyHist)
	}
	r.AvgLatencyNS = lat.Mean()
	r.P50LatencyNS = hist.Quantile(0.5)
	r.P99LatencyNS = hist.Quantile(0.99)
	r.RefreshOps = r.Module.RefreshOps
	r.RefreshCBR = r.Module.RefreshCBROps
	r.RefreshRASOnly = r.Module.RefreshRASOnlyOps
	r.RefreshPerBank = r.Module.RefreshPerBankOps
	r.DemandStall = r.Module.DemandStall
	if end > 0 {
		r.RefreshPerSecond = float64(r.Module.RefreshOps) / end.Seconds()
	}
	return r
}
