package check

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// Fingerprint returns the hex SHA-256 of v's canonical JSON rendering.
// Every value the harness fingerprints (reports, run results, figure
// tables) is built from exported scalars — integers, sim durations and
// float64s — which encoding/json renders deterministically (integers as
// exact digits, floats via their shortest round-trippable form), so two
// fingerprints agree exactly when the underlying results are
// bit-identical. This is what the resumability guarantee is checked
// against: an interrupted-and-resumed sweep must fingerprint identically
// to an uninterrupted one.
func Fingerprint(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		// The harness only fingerprints plain data types; an encoding
		// failure is a programming error in the caller.
		panic(fmt.Sprintf("check: fingerprint: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// reportDigest is what FingerprintReports hashes of a report: the
// scenario's name and seed, which regenerate the rest of the scenario,
// and the results. The scenario's configuration is left out, so a
// change to its layout that moves no simulated value leaves the
// fingerprint alone.
type reportDigest struct {
	Name       string
	Seed       uint64
	Runs       []PolicyRun
	Violations []Violation
}

// FingerprintReports digests a whole sweep's reports into one
// fingerprint, for quick "did anything change" comparisons between
// simcheck runs (cmd/simcheck -fingerprint).
func FingerprintReports(reports []Report) string {
	digests := make([]reportDigest, len(reports))
	for i, r := range reports {
		digests[i] = reportDigest{r.Scenario.Name, r.Scenario.Seed, r.Runs, r.Violations}
	}
	return Fingerprint(digests)
}
