package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strconv"

	"smartrefresh/internal/check"
	"smartrefresh/internal/experiment"
	"smartrefresh/internal/memctrl"
)

// expect.json holds, per workload and seed, every job's result
// fingerprint and the two Smart/CBR ratios the simulator produced when the
// benchmark was written. A pure-speed change must reproduce them bit for
// bit. Regenerate with -write-expect after a deliberate model change.
//
//go:embed expect.json
var expectJSON []byte

type expectation struct {
	Jobs              map[string]string `json:"jobs"`
	SmartRefreshRatio float64           `json:"smart_refresh_ratio"`
	SmartEnergyRatio  float64           `json:"smart_energy_ratio"`
}

// expectFile maps workload name, then decimal seed, to an expectation.
type expectFile map[string]map[string]expectation

func loadExpect() (expectFile, error) {
	var e expectFile
	if err := json.Unmarshal(expectJSON, &e); err != nil {
		return nil, fmt.Errorf("expect.json: %w", err)
	}
	return e, nil
}

func (e expectFile) lookup(workload string, seed uint64) (expectation, bool) {
	x, ok := e[workload][strconv.FormatUint(seed, 10)]
	return x, ok
}

// ratioDrift bounds how far a seed without committed expectations may
// move the two ratios from the workload's seed-0 values. The profiles
// calibrate row coverage, not the seed, so the paper's headline ratios
// barely depend on the stream seed; a larger drift is a model fault.
const ratioDrift = 0.01

// fingerprint digests a job's measured results, per-vault ones included.
func fingerprint(res experiment.RunResult) string {
	return check.Fingerprint(struct {
		Results memctrl.Results
		Vaults  []memctrl.Results
	}{res.Results, res.Vaults})
}

// ratios returns Smart over CBR refresh operations and total energy,
// summed over the workload's pairs (jobs alternate CBR, Smart).
func ratios(res []experiment.RunResult) (refresh, energy float64) {
	var cbrOps, smartOps uint64
	var cbrE, smartE float64
	for i := 0; i+1 < len(res); i += 2 {
		cbrOps += res[i].Results.RefreshOps
		smartOps += res[i+1].Results.RefreshOps
		cbrE += float64(res[i].Results.Energy.Total())
		smartE += float64(res[i+1].Results.Energy.Total())
	}
	if cbrOps == 0 || cbrE == 0 {
		return 0, 0
	}
	return float64(smartOps) / float64(cbrOps), smartE / cbrE
}

// verifier checks every round of one run against invariants and Smart <=
// CBR refreshes, then against the expectation for its seed or — for a
// seed without one — the first round's fingerprints and the seed-0 ratios
// within ratioDrift.
type verifier struct {
	jobs   []benchJob
	exp    expectation
	exact  bool
	first  []string // fingerprints of the first verified round
	errors []string
}

func newVerifier(ef expectFile, workload string, seed uint64, jobs []benchJob) (*verifier, error) {
	v := &verifier{jobs: jobs}
	if x, ok := ef.lookup(workload, seed); ok {
		v.exp, v.exact = x, true
		return v, nil
	}
	x, ok := ef.lookup(workload, 0)
	if !ok {
		return nil, fmt.Errorf("expect.json has no seed-0 entry for %s", workload)
	}
	v.exp = x
	return v, nil
}

func (v *verifier) fail(format string, args ...any) {
	if len(v.errors) < 20 {
		v.errors = append(v.errors, fmt.Sprintf(format, args...))
	}
}

// round checks one round's results and returns how many jobs failed.
func (v *verifier) round(res []experiment.RunResult) int {
	bad := make([]bool, len(res))
	fps := make([]string, len(res))
	for i, r := range res {
		key := v.jobs[i].key()
		if r.Err != nil || r.RetentionErr != nil {
			v.fail("%s: err=%v retention=%v", key, r.Err, r.RetentionErr)
			bad[i] = true
			continue
		}
		fps[i] = fingerprint(r)
		if msg := invariants(r); msg != "" {
			v.fail("%s: %s", key, msg)
			bad[i] = true
		}
		switch {
		case v.exact && fps[i] != v.exp.Jobs[key]:
			v.fail("%s: fingerprint %.16s, expected %.16s", key, fps[i], v.exp.Jobs[key])
			bad[i] = true
		case !v.exact && v.first != nil && fps[i] != v.first[i]:
			v.fail("%s: fingerprint changed between rounds", key)
			bad[i] = true
		}
	}
	if v.first == nil {
		v.first = fps
	}
	for i := 0; i+1 < len(res); i += 2 {
		if cbr, smart := res[i].Results.RefreshOps, res[i+1].Results.RefreshOps; smart > cbr {
			v.fail("%s: smart refreshed %d rows, cbr %d", v.jobs[i+1].key(), smart, cbr)
			bad[i+1] = true
		}
	}
	refresh, energy := ratios(res)
	ratioOK := refresh == v.exp.SmartRefreshRatio && energy == v.exp.SmartEnergyRatio
	if !v.exact {
		ratioOK = near(refresh, v.exp.SmartRefreshRatio) && near(energy, v.exp.SmartEnergyRatio)
	}
	if !ratioOK {
		v.fail("ratios refresh=%v energy=%v, expected %v %v (exact=%v)",
			refresh, energy, v.exp.SmartRefreshRatio, v.exp.SmartEnergyRatio, v.exact)
		for i := range bad {
			bad[i] = true
		}
	}
	n := 0
	for _, b := range bad {
		if b {
			n++
		}
	}
	return n
}

func near(got, want float64) bool {
	d := got - want
	return d <= ratioDrift*want && -d <= ratioDrift*want
}

// invariants checks what holds for every job at every seed: refresh
// accounting balances, and the window saw refreshes and energy.
func invariants(r experiment.RunResult) string {
	res := r.Results
	if got, want := res.Policy.RefreshesRequested, res.RefreshOps+res.RefreshesDroppedSelfRefresh; got != want {
		return fmt.Sprintf("policy requested %d refreshes, module did %d + %d dropped", got, res.RefreshOps, res.RefreshesDroppedSelfRefresh)
	}
	if res.Energy.Total() <= 0 {
		return "no energy"
	}
	if res.Module.RefreshOps == 0 {
		return "no refreshes in the window"
	}
	return ""
}

// expectFor builds the expectation one verified round reproduces.
func expectFor(jobs []benchJob, res []experiment.RunResult) expectation {
	x := expectation{Jobs: map[string]string{}}
	for i, r := range res {
		x.Jobs[jobs[i].key()] = fingerprint(r)
	}
	x.SmartRefreshRatio, x.SmartEnergyRatio = ratios(res)
	return x
}
