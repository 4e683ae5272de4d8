package check_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"smartrefresh/internal/check"
	"smartrefresh/internal/experiment"
	"smartrefresh/internal/sim"
)

// resumeOpts keeps the sweeps fast; the windows match the engine tests.
func resumeOpts() experiment.RunOptions {
	return experiment.RunOptions{Warmup: 16 * sim.Millisecond, Measure: 32 * sim.Millisecond}
}

func resumeSuite(benchmarks []string, eng *experiment.Engine) *experiment.Suite {
	s := experiment.NewSuite()
	s.Benchmarks = benchmarks
	s.Opts = resumeOpts()
	s.Engine = eng
	return s
}

// figureFingerprints regenerates the named figures and digests each
// table. Fingerprint hashes the canonical JSON of the figure — every
// number in a table is an exported integer or float64, so two equal
// fingerprints mean bit-identical tables.
func figureFingerprints(t *testing.T, s *experiment.Suite, ids []string) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, id := range ids {
		fig, err := s.FigureByID(id)
		if err != nil {
			t.Fatalf("figure %s: %v", id, err)
		}
		out[id] = check.Fingerprint(fig)
	}
	return out
}

// The resumability guarantee, end to end: a sweep interrupted after N
// jobs and resumed from its checkpoint regenerates figure tables
// bit-identical to an uninterrupted run — the checkpointed results
// round-trip through JSON without losing a bit, and the engine serves
// them as cache hits instead of re-simulating.
func TestResumedSweepBitIdenticalFigures(t *testing.T) {
	cases := []struct {
		name        string
		benchmarks  []string
		figures     []string
		cancelAfter int // cancel once this many jobs have finished
	}{
		{"two-benchmarks-cut-early", []string{"fasta", "gcc"}, []string{"fig6", "fig7", "fig8"}, 1},
		{"two-benchmarks-cut-late", []string{"radix", "perl_twolf"}, []string{"fig6", "fig8"}, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Uninterrupted baseline.
			want := figureFingerprints(t,
				resumeSuite(tc.benchmarks, experiment.NewEngine(2)), tc.figures)

			// Interrupted run: serial engine (so "after N jobs" is
			// deterministic), cancelled from the job-done hook.
			ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			eng := experiment.NewEngine(1)
			eng.Ctx = ctx
			eng.Checkpoint = experiment.NewCheckpoint(ckpt)
			finished := 0
			eng.OnJobDone = func(experiment.JobEvent) {
				finished++
				if finished == tc.cancelAfter {
					cancel()
				}
			}
			if _, err := resumeSuite(tc.benchmarks, eng).Sweep(experiment.Conv2GB); err == nil {
				t.Fatal("cancelled sweep reported no error")
			}

			cp, err := experiment.LoadCheckpoint(ckpt)
			if err != nil {
				t.Fatal(err)
			}
			if cp.Len() != tc.cancelAfter {
				t.Fatalf("checkpoint holds %d results, want the %d finished before cancellation",
					cp.Len(), tc.cancelAfter)
			}

			// Resumed run on a fresh engine: checkpointed jobs must be
			// served as cache hits, and the tables must not change.
			resumedEng := experiment.NewEngine(2)
			resumedEng.Checkpoint = cp
			got := figureFingerprints(t,
				resumeSuite(tc.benchmarks, resumedEng), tc.figures)

			for _, id := range tc.figures {
				if got[id] != want[id] {
					t.Errorf("figure %s differs after resume: %s != %s", id, got[id], want[id])
				}
			}
			st := resumedEng.Stats()
			if st.CacheHits < tc.cancelAfter {
				t.Errorf("resumed engine reported %d cache hits, want >= %d restored jobs",
					st.CacheHits, tc.cancelAfter)
			}
			total := 2 * len(tc.benchmarks) // {cbr, smart} per benchmark
			if st.Finished != total-tc.cancelAfter {
				t.Errorf("resumed engine simulated %d jobs, want %d (total %d - %d restored)",
					st.Finished, total-tc.cancelAfter, total, tc.cancelAfter)
			}
		})
	}
}

// The same guarantee observed through the harness's own fingerprints:
// restoring a checkpoint and re-recording it to a new path produces a
// byte-identical file, so checkpoints are stable artifacts that can be
// diffed across machines.
func TestCheckpointRoundTripStable(t *testing.T) {
	dir := t.TempDir()
	first := filepath.Join(dir, "first.ckpt")

	eng := experiment.NewEngine(2)
	eng.Checkpoint = experiment.NewCheckpoint(first)
	s := resumeSuite([]string{"fasta"}, eng)
	if _, err := s.Sweep(experiment.Conv2GB); err != nil {
		t.Fatal(err)
	}

	cp, err := experiment.LoadCheckpoint(first)
	if err != nil {
		t.Fatal(err)
	}
	second := filepath.Join(dir, "second.ckpt")
	cp.SetPath(second)
	if err := cp.Flush(); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("checkpoint changed across a load/flush round trip")
	}
}
