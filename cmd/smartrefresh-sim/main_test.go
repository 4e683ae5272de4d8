package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"smartrefresh/internal/config"
	"smartrefresh/internal/experiment"
	"smartrefresh/internal/sim"
	"smartrefresh/internal/trace"
	"smartrefresh/internal/workload"
)

// runQuiet invokes run with no stdin and discarded stdout.
func runQuiet(t *testing.T, args ...string) error {
	t.Helper()
	return run(args, strings.NewReader(""), io.Discard)
}

func TestRunList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, strings.NewReader(""), &out); err != nil {
		t.Fatal(err)
	}
	want := "policies:   " + strings.Join(experiment.PolicyNames(), ", ") + "\n"
	if !strings.Contains(out.String(), want) {
		t.Errorf("-list output lacks %q:\n%s", want, out.String())
	}
}

// The retention-map policies run through the engine like every other
// policy: the warmup is excluded and the printed window is the measured
// one.
func TestRetentionMapPoliciesMeasureWindow(t *testing.T) {
	for _, policy := range []string{"smart-retention", "raidr"} {
		var out bytes.Buffer
		err := run([]string{"-config", "table1-2gb", "-policy", policy, "-benchmark", "gcc",
			"-warmup-ms", "16", "-measure-ms", "16"}, strings.NewReader(""), &out)
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		if !strings.Contains(out.String(), "\nwindow            16ms\n") {
			t.Errorf("%s: want a 16ms window:\n%s", policy, out.String())
		}
	}
}

// A trace has no workload seed to derive a retention map from, and a
// vaulted geometry cannot take a monolithic map: both are rejected
// instead of silently running something else.
func TestRetentionMapPoliciesRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.trc")
	writeBinaryTrace(t, path, testTraceRecords(t, 1))
	for _, args := range [][]string{
		{"-policy", "raidr", "-trace", filepath.Join(t.TempDir(), "missing.trc")},
		{"-policy", "smart-retention", "-trace", path},
		{"-policy", "raidr", "-trace", path},
		{"-config", "hmc-8vault", "-policy", "raidr", "-warmup-ms", "1", "-measure-ms", "1"},
		{"-config", "hmc-8vault", "-policy", "smart-retention", "-warmup-ms", "1", "-measure-ms", "1"},
	} {
		err := runQuiet(t, args...)
		if err == nil {
			t.Errorf("%v accepted", args)
			continue
		}
		if args[0] == "-policy" && !strings.Contains(err.Error(), args[1]) {
			t.Errorf("%v: error %q does not name the policy", args, err)
		}
	}
}

func TestRunBenchmark(t *testing.T) {
	err := runQuiet(t,
		"-config", "table1-2gb", "-policy", "smart", "-benchmark", "fasta",
		"-warmup-ms", "16", "-measure-ms", "16",
	)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunStackedConfig(t *testing.T) {
	err := runQuiet(t,
		"-config", "table2-3d-32ms", "-policy", "cbr", "-benchmark", "gcc",
		"-warmup-ms", "8", "-measure-ms", "8",
	)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunRetentionAwarePolicy(t *testing.T) {
	err := runQuiet(t,
		"-config", "table1-2gb", "-policy", "smart-retention", "-benchmark", "gcc",
		"-warmup-ms", "16", "-measure-ms", "16",
	)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := runQuiet(t, "-config", "nope"); err == nil {
		t.Error("unknown config accepted")
	}
	if err := runQuiet(t, "-policy", "nope"); err == nil {
		t.Error("unknown policy accepted")
	}
	if err := runQuiet(t, "-benchmark", "nope"); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if err := runQuiet(t, "-trace", "/definitely/not/here"); err == nil {
		t.Error("missing trace accepted")
	}
}

// A negative window is rejected rather than run and mislabelled:
// -measure-ms -5 used to print "0 refresh ops (-0/s)", and -warmup-ms -3
// silently shortened a 16 ms window to 13 ms.
func TestRunRejectsNegativeWindow(t *testing.T) {
	for _, args := range [][]string{
		{"-benchmark", "fasta", "-measure-ms", "-5"},
		{"-benchmark", "fasta", "-warmup-ms", "-3", "-measure-ms", "16"},
	} {
		if err := runQuiet(t, args...); err == nil || !strings.Contains(err.Error(), "negative window") {
			t.Errorf("%v: err = %v, want a negative-window error", args, err)
		}
	}
}

// -measure-ms 0 measures the default window (four refresh intervals), and
// the printed window and refresh rate are that window's, not "0ps" and
// "+Inf/s".
func TestRunZeroMeasurePrintsEffectiveWindow(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-config", "table1-2gb", "-benchmark", "fasta", "-warmup-ms", "16", "-measure-ms", "0"},
		strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	want := 4 * config.Table1_2GB().RefreshInterval()
	if !strings.Contains(out.String(), "\nwindow            "+want.String()+"\n") {
		t.Errorf("want a %v window:\n%s", want, out.String())
	}
	if strings.Contains(out.String(), "Inf") {
		t.Errorf("infinite rate printed:\n%s", out.String())
	}
}

// testTraceRecords builds a deterministic generator-derived trace.
func testTraceRecords(t *testing.T, ms int) []trace.Record {
	t.Helper()
	return benchmarkRecords(t, "fasta", ms)
}

// benchmarkRecords is the main-memory stream of one benchmark over its
// first ms milliseconds, as tracegen writes it.
func benchmarkRecords(t *testing.T, benchmark string, ms int) []trace.Record {
	t.Helper()
	prof, err := workload.ByName(benchmark)
	if err != nil {
		t.Fatal(err)
	}
	src := prof.NewSource(false)
	end := sim.Time(ms) * sim.Millisecond
	var recs []trace.Record
	for {
		rec, ok := src.Next()
		if !ok || rec.Time > end {
			return recs
		}
		recs = append(recs, rec)
	}
}

// writeBinaryTrace renders records to a file via the binary codec.
func writeBinaryTrace(t *testing.T, path string, recs []trace.Record) {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewBinaryWriter(&buf)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestRunTraceReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.trc")
	var recs []trace.Record
	for i := 0; i < 100; i++ {
		recs = append(recs, trace.Record{Time: sim.Time(i) * sim.Microsecond, Addr: uint64(i) * 16384})
	}
	writeBinaryTrace(t, path, recs)
	if err := runQuiet(t, "-config", "table1-2gb", "-policy", "smart", "-trace", path); err != nil {
		t.Fatal(err)
	}
}

// Replay has no window and no power-down or self-refresh ladder, so each
// of those flags is rejected by name instead of silently dropped.
func TestReplayRejectsUnusedFlags(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.trc")
	writeBinaryTrace(t, path, testTraceRecords(t, 1))
	for _, fv := range [][2]string{
		{"-selfrefresh-us", "20"}, {"-actpdn-us", "0.5"}, {"-prepdn-fast-us", "3"}, {"-prepdn-slow-us", "9"},
		{"-sr-slow-us", "5"}, {"-warmup-ms", "1"}, {"-measure-ms", "256"},
	} {
		err := runQuiet(t, "-config", "table1-2gb", "-policy", "smart", "-trace", path, fv[0], fv[1])
		if err == nil || !strings.Contains(err.Error(), fv[0]) {
			t.Errorf("-trace with %s %s: err = %v, want an error naming %s", fv[0], fv[1], err, fv[0])
		}
	}
	err := runQuiet(t, "-trace", path, "-selfrefresh-us", "20", "-actpdn-us", "0.5", "-prepdn-fast-us", "3")
	if err == nil || !strings.Contains(err.Error(), "-actpdn-us, -prepdn-fast-us, -selfrefresh-us") {
		t.Errorf("err = %v, want all three flags named", err)
	}
}

func TestRunTextTraceReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.txt")
	if err := os.WriteFile(path, []byte("# test\n0 0x1000 R\n1500 0x2000 W\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runQuiet(t, "-config", "table1-2gb", "-policy", "cbr", "-trace", path); err != nil {
		t.Fatal(err)
	}
}

// runCapture invokes run and returns its stdout.
func runCapture(t *testing.T, stdin io.Reader, args ...string) (string, error) {
	t.Helper()
	var buf bytes.Buffer
	err := run(args, stdin, &buf)
	return buf.String(), err
}

// TestStdinReplayMatchesFileReplay: the same trace delivered as a file,
// as plain stdin, as gzip'd stdin, and as one-byte-at-a-time stdin (the
// short-read sniff regression: a pipe may legally deliver fewer than 8
// bytes per read, which the old bare f.Read sniff misclassified as
// text) must all print byte-identical results.
func TestStdinReplayMatchesFileReplay(t *testing.T) {
	recs := testTraceRecords(t, 4)
	if len(recs) == 0 {
		t.Fatal("empty test trace")
	}
	path := filepath.Join(t.TempDir(), "t.trc")
	writeBinaryTrace(t, path, recs)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}

	args := []string{"-config", "table1-2gb", "-policy", "smart"}
	want, err := runCapture(t, strings.NewReader(""), append(args, "-trace", path)...)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]io.Reader{
		"stdin-plain":         bytes.NewReader(raw),
		"stdin-gzip":          bytes.NewReader(gz.Bytes()),
		"stdin-one-byte":      iotest.OneByteReader(bytes.NewReader(raw)),
		"stdin-one-byte-gzip": iotest.OneByteReader(bytes.NewReader(gz.Bytes())),
	}
	for name, stdin := range cases {
		t.Run(name, func(t *testing.T) {
			got, err := runCapture(t, stdin, append(args, "-trace", "-")...)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("results differ from file replay:\n--- file\n%s--- %s\n%s", want, name, got)
			}
		})
	}
}

// TestReplayCaptureBitIdentical: replaying a binary trace with -capture
// re-records exactly the bytes that came in.
func TestReplayCaptureBitIdentical(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.trc")
	out := filepath.Join(dir, "out.trc")
	writeBinaryTrace(t, in, testTraceRecords(t, 4))
	if err := runQuiet(t, "-policy", "cbr", "-trace", in, "-capture", out); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("captured trace differs from input: %d vs %d bytes", len(b), len(a))
	}
}

// TestBenchmarkCaptureReplays: -capture alongside a benchmark run
// records the generator stream; the capture decodes cleanly, is
// nonempty and time-ordered, and a replay of it runs.
func TestBenchmarkCaptureReplays(t *testing.T) {
	out := filepath.Join(t.TempDir(), "gen.trc")
	err := runQuiet(t,
		"-config", "table1-2gb", "-policy", "smart", "-benchmark", "fasta",
		"-warmup-ms", "2", "-measure-ms", "2", "-capture", out,
	)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r := trace.NewBinaryReader(f)
	n := 0
	var last trace.Record
	for {
		rec, ok := r.Next()
		if !ok {
			break
		}
		if rec.Time < last.Time {
			t.Fatal("captured stream out of order")
		}
		last = rec
		n++
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if n == 0 {
		t.Fatal("benchmark capture is empty")
	}
	if err := runQuiet(t, "-policy", "smart", "-trace", out); err != nil {
		t.Fatalf("replay of benchmark capture failed: %v", err)
	}
}

// TestBenchmarkCaptureIsSimulatedStream: -capture records the stream the
// run consumed, after the window defaults apply. -measure-ms 0 measures
// the default four refresh intervals (256 ms on table1-2gb), so its
// capture must equal the explicit -measure-ms 256 one byte for byte.
func TestBenchmarkCaptureIsSimulatedStream(t *testing.T) {
	dir := t.TempDir()
	var caps [2][]byte
	for i, measure := range []string{"0", "256"} {
		path := filepath.Join(dir, "m"+measure+".trc")
		if err := runQuiet(t, "-config", "table1-2gb", "-benchmark", "gcc", "-measure-ms", measure, "-capture", path); err != nil {
			t.Fatal(err)
		}
		var err error
		if caps[i], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(caps[0], caps[1]) {
		t.Errorf("-measure-ms 0 captured %d bytes, -measure-ms 256 %d: the capture is not the simulated stream",
			len(caps[0]), len(caps[1]))
	}
}

// TestVaultedTraceReplay: a trace replay on a vaulted preset runs
// through the vault array: it honours -shards with byte-identical output
// at every count and prints the per-vault breakdown, whose accesses sum
// to the stack's demand accesses.
func TestVaultedTraceReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gcc.trc")
	writeBinaryTrace(t, path, benchmarkRecords(t, "gcc", 16))
	var ref string
	for _, shards := range []string{"1", "2", "8"} {
		out, err := runCapture(t, strings.NewReader(""), "-config", "hmc-8vault", "-policy", "smart", "-trace", path, "-shards", shards)
		if err != nil {
			t.Fatal(err)
		}
		if ref == "" {
			ref = out
		} else if out != ref {
			t.Fatalf("-shards %s output differs from -shards 1:\n%s\nvs\n%s", shards, out, ref)
		}
	}
	if !strings.Contains(ref, "\nvaults            8\n") {
		t.Fatalf("no 8-vault breakdown:\n%s", ref)
	}
	var demand, sum uint64
	for _, line := range strings.Split(ref, "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) > 2 && f[0] == "demand" && f[1] == "accesses":
			demand = mustUint(t, f[2])
		case len(f) > 1 && strings.HasPrefix(f[0], "vault0"):
			sum += mustUint(t, strings.TrimSuffix(f[1], ","))
		}
	}
	if demand == 0 || sum != demand {
		t.Errorf("per-vault accesses sum to %d, demand accesses %d", sum, demand)
	}
}

func mustUint(t *testing.T, s string) uint64 {
	t.Helper()
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestServerVaultedReplayMatchesCLI: a -serve replay on a vaulted preset
// goes through the same vault array as the CLI, so its terminal results
// render to the CLI's aggregate lines.
func TestServerVaultedReplayMatchesCLI(t *testing.T) {
	recs := benchmarkRecords(t, "gcc", 16)
	path := filepath.Join(t.TempDir(), "gcc.trc")
	writeBinaryTrace(t, path, recs)
	cli, err := runCapture(t, strings.NewReader(""), "-config", "hmc-8vault", "-policy", "smart", "-trace", path)
	if err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(newServeMux())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/replay?config=hmc-8vault&policy=smart", "application/octet-stream",
		bytes.NewReader(encodeRecords(t, recs)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var final replayResponse
	if err := json.NewDecoder(resp.Body).Decode(&final); err != nil {
		t.Fatal(err)
	}
	if final.Type != "results" || final.Results == nil {
		t.Fatalf("terminal line = %+v", final)
	}
	var served bytes.Buffer
	printResults(&served, mustPreset(t, "hmc-8vault"), *final.Results, final.EndPS, nil)
	aggregate, _, _ := strings.Cut(cli, "vaults ")
	if served.String() != aggregate {
		t.Errorf("served results differ from the CLI's:\nserved:\n%s\ncli:\n%s", served.String(), aggregate)
	}
}

// TestOutOfOrderTraceRejected: ingest validation fails loudly, naming
// the offending record, instead of corrupting controller accounting.
func TestOutOfOrderTraceRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.txt")
	if err := os.WriteFile(path, []byte("0 0x1000 R\n200 0x2000 W\n100 0x3000 R\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := runQuiet(t, "-policy", "cbr", "-trace", path)
	if err == nil {
		t.Fatal("out-of-order trace accepted")
	}
	if !strings.Contains(err.Error(), "record 2") {
		t.Errorf("error %q does not name record 2", err)
	}
}

// TestTimeOverflowTraceRejected: a binary record with a uint64 time
// above MaxInt64 is a decode error, not a negative timestamp.
func TestTimeOverflowTraceRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.trc")
	data := append([]byte("SRTRCE01"), bytes.Repeat([]byte{0xff}, 17)...)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	err := runQuiet(t, "-policy", "cbr", "-trace", path)
	if err == nil {
		t.Fatal("overflowing time accepted")
	}
	if !strings.Contains(err.Error(), "overflows") {
		t.Errorf("error %q is not the overflow error", err)
	}
}

// TestTornTraceStrictAndTolerant: a torn tail fails by default and
// replays the complete prefix under -torn-ok.
func TestTornTraceStrictAndTolerant(t *testing.T) {
	recs := testTraceRecords(t, 2)
	path := filepath.Join(t.TempDir(), "torn.trc")
	var buf bytes.Buffer
	w := trace.NewBinaryWriter(&buf)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes()[:buf.Len()-9], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runQuiet(t, "-policy", "cbr", "-trace", path); err == nil {
		t.Error("torn trace accepted without -torn-ok")
	}
	if err := runQuiet(t, "-policy", "cbr", "-trace", path, "-torn-ok"); err != nil {
		t.Errorf("torn trace rejected despite -torn-ok: %v", err)
	}
}

// TestSnapshotFile: -snapshot-ms with a file sink leaves the latest
// snapshot at the path, atomically rewritten.
func TestSnapshotFile(t *testing.T) {
	dir := t.TempDir()
	tr := filepath.Join(dir, "t.trc")
	writeBinaryTrace(t, tr, testTraceRecords(t, 4))
	snap := filepath.Join(dir, "snap.json")
	err := runQuiet(t, "-policy", "smart", "-trace", tr, "-snapshot-ms", "1", "-snapshot-out", snap)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Seq     int  `json:"seq"`
		Final   bool `json:"final"`
		Records uint64
		Metrics []json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !got.Final || got.Seq < 2 || len(got.Metrics) == 0 {
		t.Errorf("final snapshot = seq %d final %v metrics %d", got.Seq, got.Final, len(got.Metrics))
	}
}

// TestServerReplay: the HTTP service replays a gzip'd POSTed trace,
// streams snapshots, and its terminal results line matches a direct
// in-process replay of the same records.
func TestServerReplay(t *testing.T) {
	srv := httptest.NewServer(newServeMux())
	defer srv.Close()

	recs := testTraceRecords(t, 4)
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	bw := trace.NewBinaryWriter(zw)
	for _, r := range recs {
		if err := bw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(srv.URL+"/replay?config=table1-2gb&policy=smart&snapshot-ms=1", "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	var snapshots, resultLines int
	var final replayResponse
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var probe struct {
			Type string `json:"type"`
			Seq  int    `json:"seq"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		if probe.Type == "" {
			snapshots++
			continue
		}
		resultLines++
		if err := json.Unmarshal(line, &final); err != nil {
			t.Fatal(err)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if snapshots < 2 {
		t.Errorf("got %d streamed snapshots, want >= 2", snapshots)
	}
	if resultLines != 1 || final.Type != "results" {
		t.Fatalf("terminal line = %+v (%d result lines)", final, resultLines)
	}
	if !final.Gzipped || final.Format != "binary" {
		t.Errorf("sniff reported format=%s gzipped=%v", final.Format, final.Gzipped)
	}
	if final.Records != uint64(len(recs)) {
		t.Errorf("server replayed %d records, want %d", final.Records, len(recs))
	}

	// The server's results must match a direct in-process streaming
	// replay of the identical records.
	direct, err := replayStream(context.Background(), bytes.NewReader(encodeRecords(t, recs)), replayParams{
		cfg:    mustPreset(t, "table1-2gb"),
		policy: mustPolicy(t, "smart"),
		bufKB:  trace.DefaultStreamBuffer / 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(final.Results)
	wantJSON, _ := json.Marshal(direct.Results)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("server results differ from direct replay:\nserver: %s\ndirect: %s", gotJSON, wantJSON)
	}
}

// TestServerRejectsBadParams covers the 400 surface.
func TestServerRejectsBadParams(t *testing.T) {
	srv := httptest.NewServer(newServeMux())
	defer srv.Close()
	for _, url := range []string{
		"/replay?config=nope",
		"/replay?policy=nope",
		"/replay?policy=raidr",
		"/replay?policy=smart-retention",
		"/replay?snapshot-ms=x",
		"/replay?buffer-kb=-1",
	} {
		resp, err := http.Post(srv.URL+url, "application/octet-stream", strings.NewReader(""))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", url, resp.StatusCode)
		}
	}
}

// TestServerReplayErrorLine: a malformed stream yields a terminal error
// line, not a torn response.
func TestServerReplayErrorLine(t *testing.T) {
	srv := httptest.NewServer(newServeMux())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/replay", "application/octet-stream",
		strings.NewReader("0 0x1000 R\n200 0x2000 W\n100 0x3000 R\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var final replayResponse
	if err := json.Unmarshal(bytes.TrimSpace(body), &final); err != nil {
		t.Fatal(err)
	}
	if final.Type != "error" || !strings.Contains(final.Error, "record 2") {
		t.Errorf("terminal line = %+v, want out-of-order error naming record 2", final)
	}
}

// A request whose context is cancelled — the client went away — stops
// its replay, which ends with an error line instead of results.
func TestServerReplayCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/replay?policy=cbr",
		strings.NewReader("0 0x1000 R\n200 0x2000 W\n")).WithContext(ctx)
	rec := httptest.NewRecorder()
	newServeMux().ServeHTTP(rec, req)
	var final replayResponse
	if err := json.Unmarshal(bytes.TrimSpace(rec.Body.Bytes()), &final); err != nil {
		t.Fatalf("%v in %q", err, rec.Body.String())
	}
	if final.Type != "error" || !strings.Contains(final.Error, context.Canceled.Error()) {
		t.Errorf("terminal line = %+v, want a cancellation error", final)
	}
}

func TestServerHealthz(t *testing.T) {
	srv := httptest.NewServer(newServeMux())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

// encodeRecords renders records through the binary codec.
func encodeRecords(t *testing.T, recs []trace.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewBinaryWriter(&buf)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func mustPreset(t *testing.T, name string) (cfg config.DRAM) {
	t.Helper()
	cfg, ok := config.Presets()[name]
	if !ok {
		t.Fatalf("missing preset %s", name)
	}
	return cfg
}

func mustPolicy(t *testing.T, name string) experiment.PolicyEntry {
	t.Helper()
	policy, err := experiment.ParsePolicy(name)
	if err != nil {
		t.Fatal(err)
	}
	return policy
}
