package experiment

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"smartrefresh/internal/atomicio"
)

// Checkpoint persists completed sweep results so an interrupted campaign
// can resume without repeating finished simulations. The on-disk format
// is JSONL: a header line identifying the format and version, then one
// record per completed memoised job: its identity (Job.ID) and its
// RunResult. Every flush rewrites the whole file atomically (temp +
// rename via atomicio), so a SIGINT or crash at any instant leaves
// either the previous complete checkpoint or the new one — never a torn
// file.
//
// Restored results are bit-identical to freshly simulated ones: a record
// embeds the whole RunResult, per-vault results included, whose fields
// are integers, durations, float64s and strings (the retention error
// travels as its text), all of which encoding/json round-trips exactly.
// The engine therefore serves checkpoint entries as ordinary cache hits
// and regenerated figure tables match an uninterrupted run byte for byte.
//
// A nil *Checkpoint is a valid no-op sink, mirroring the telemetry
// types, so the engine's hot path stays unconditional.
type Checkpoint struct {
	mu      sync.Mutex
	path    string
	order   []string // insertion order, for stable on-disk layout
	entries map[string]RunResult
}

const (
	checkpointFormat  = "smartrefresh-sweep-checkpoint"
	checkpointVersion = 2
)

type checkpointHeader struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
}

// checkpointRecord is one completed job's identity and result. The
// result is embedded whole, so a field added to RunResult is recorded
// too; its retention error, which does not round-trip through JSON as an
// error value, is carried as text.
type checkpointRecord struct {
	Key string `json:"key"`
	RunResult
	RetentionErr string `json:"retention_err,omitempty"`
}

// NewCheckpoint returns an empty checkpoint that will persist to path on
// every recorded result.
func NewCheckpoint(path string) *Checkpoint {
	return &Checkpoint{path: path, entries: map[string]RunResult{}}
}

// LoadCheckpoint reads a checkpoint written by a previous (possibly
// interrupted) sweep. Records after a corrupt line are dropped rather
// than failing the load: the atomic writer never produces torn files,
// but a checkpoint inherited from a hard kill of an older tool might,
// and a partial prefix is still worth resuming from.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("experiment: load checkpoint: %w", err)
	}
	defer f.Close()

	c := NewCheckpoint(path)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	seenHeader := false
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if !seenHeader {
			var h checkpointHeader
			if err := json.Unmarshal(line, &h); err != nil || h.Format != checkpointFormat {
				return nil, fmt.Errorf("experiment: %s is not a sweep checkpoint", path)
			}
			if h.Version != checkpointVersion {
				return nil, fmt.Errorf("experiment: checkpoint %s is version %d; this build reads version %d",
					path, h.Version, checkpointVersion)
			}
			seenHeader = true
			continue
		}
		var rec checkpointRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			break // torn tail: keep the complete prefix
		}
		if rec.Key == "" {
			continue
		}
		if rec.RetentionErr != "" {
			rec.RunResult.RetentionErr = errors.New(rec.RetentionErr)
		}
		c.putLocked(rec.Key, rec.RunResult)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("experiment: load checkpoint %s: %w", path, err)
	}
	if !seenHeader {
		return nil, fmt.Errorf("experiment: %s is not a sweep checkpoint", path)
	}
	return c, nil
}

func (c *Checkpoint) putLocked(key string, res RunResult) {
	if _, ok := c.entries[key]; !ok {
		c.order = append(c.order, key)
	}
	c.entries[key] = res
}

// Path returns the file the checkpoint persists to.
func (c *Checkpoint) Path() string {
	if c == nil {
		return ""
	}
	return c.path
}

// SetPath redirects future flushes (e.g. resume from one file, keep
// recording into another).
func (c *Checkpoint) SetPath(path string) {
	c.mu.Lock()
	c.path = path
	c.mu.Unlock()
}

// Len reports the number of completed results held.
func (c *Checkpoint) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// lookup returns the stored result for a job identity.
func (c *Checkpoint) lookup(key string) (RunResult, bool) {
	if c == nil {
		return RunResult{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	res, ok := c.entries[key]
	return res, ok
}

// record stores one completed result and flushes the checkpoint to disk.
// The engine calls this once per simulated memoised job; a whole-file atomic
// rewrite per job is cheap at sweep scale (hundreds of records) and is
// what makes the file readable at every instant.
func (c *Checkpoint) record(key string, res RunResult) error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(key, res)
	return c.flushLocked()
}

// Flush rewrites the checkpoint file from the in-memory state.
func (c *Checkpoint) Flush() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.flushLocked()
}

func (c *Checkpoint) flushLocked() error {
	if c.path == "" {
		return nil
	}
	return atomicio.WriteFile(c.path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		if err := enc.Encode(checkpointHeader{Format: checkpointFormat, Version: checkpointVersion}); err != nil {
			return err
		}
		for _, key := range c.order {
			res := c.entries[key]
			rec := checkpointRecord{Key: key, RunResult: res}
			if res.RetentionErr != nil {
				rec.RetentionErr = res.RetentionErr.Error()
			}
			if err := enc.Encode(rec); err != nil {
				return err
			}
		}
		return nil
	})
}
