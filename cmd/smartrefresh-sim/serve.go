// Server mode: a long-lived trace-replay service. Clients POST a trace
// stream (binary or text, gzip-compressed or plain — the ingest sniffs,
// it never trusts headers) and read back a streaming NDJSON response:
// incremental telemetry snapshots every N simulated milliseconds while
// the replay runs, then one terminal line carrying either the full
// results or the ingest error. Each request gets its own controller (one
// per vault on a vaulted preset) and metrics registry, so concurrent
// replays are independent.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"smartrefresh/internal/config"
	"smartrefresh/internal/experiment"
	"smartrefresh/internal/memctrl"
	"smartrefresh/internal/sim"
	"smartrefresh/internal/telemetry"
	"smartrefresh/internal/trace"
)

// serveShutdownGrace is how long Shutdown waits for in-flight replays
// after SIGINT/SIGTERM before giving up on a graceful drain.
const serveShutdownGrace = 5 * time.Second

// replayResponse is the terminal NDJSON line of a /replay request.
type replayResponse struct {
	Type         string           `json:"type"` // "results" or "error"
	Error        string           `json:"error,omitempty"`
	Config       string           `json:"config,omitempty"`
	Policy       string           `json:"policy,omitempty"`
	Format       string           `json:"format,omitempty"`
	Gzipped      bool             `json:"gzipped,omitempty"`
	Torn         bool             `json:"torn,omitempty"`
	Records      uint64           `json:"records,omitempty"`
	EndPS        sim.Time         `json:"end_ps,omitempty"`
	Results      *memctrl.Results `json:"results,omitempty"`
	RetentionErr string           `json:"retention_err,omitempty"`
}

// newServeMux builds the service's HTTP surface.
func newServeMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "smartrefresh-sim trace-replay service\n\n"+
			"POST /replay?config=<preset>&policy=<name>[&snapshot-ms=N][&torn-ok=1][&check=1]\n"+
			"  policies: "+strings.Join(replayableNames(), ", ")+"\n"+
			"  body: access trace (binary or text codec, gzip or plain, sniffed)\n"+
			"  response: NDJSON — telemetry snapshots, then one results or error line\n")
	})
	mux.HandleFunc("POST /replay", handleReplay)
	return mux
}

// handleReplay streams one trace through one simulation.
func handleReplay(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()

	cfgName := q.Get("config")
	if cfgName == "" {
		cfgName = "table1-2gb"
	}
	cfg, ok := config.Presets()[cfgName]
	if !ok {
		http.Error(w, fmt.Sprintf("unknown preset %q (want one of %s)", cfgName, strings.Join(presetNames(), ", ")), http.StatusBadRequest)
		return
	}
	policyName := q.Get("policy")
	if policyName == "" {
		policyName = "smart"
	}
	policy, err := experiment.ParsePolicy(policyName)
	if err == nil {
		err = checkReplayable(policy)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	snapshotMS := 0
	if v := q.Get("snapshot-ms"); v != "" {
		if snapshotMS, err = strconv.Atoi(v); err != nil || snapshotMS < 0 {
			http.Error(w, fmt.Sprintf("bad snapshot-ms %q", v), http.StatusBadRequest)
			return
		}
	}
	bufKB := trace.DefaultStreamBuffer / 1024
	if v := q.Get("buffer-kb"); v != "" {
		if bufKB, err = strconv.Atoi(v); err != nil || bufKB <= 0 {
			http.Error(w, fmt.Sprintf("bad buffer-kb %q", v), http.StatusBadRequest)
			return
		}
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	p := replayParams{
		cfg:    cfg,
		policy: policy,
		check:  boolParam(q.Get("check")),
		// One request advances a vaulted preset's vaults serially, so it
		// cannot take every CPU; results are the same at any count.
		shards:    1,
		bufKB:     bufKB,
		tornOK:    boolParam(q.Get("torn-ok")),
		snapEvery: sim.Time(snapshotMS) * sim.Millisecond,
	}
	if p.snapEvery > 0 {
		// Snapshots are written while the trace body is still being
		// read; without full duplex the HTTP/1.x server may close the
		// body once the first snapshot flushes the response headers.
		if err := http.NewResponseController(w).EnableFullDuplex(); err != nil {
			http.Error(w, fmt.Sprintf("snapshot-ms needs a full-duplex connection: %v", err), http.StatusBadRequest)
			return
		}
		p.snapEmit = telemetry.JSONLEmitter(w)
	}

	// A client that goes away cancels r.Context(), which stops the run.
	out, err := replayStream(r.Context(), r.Body, p)
	resp := replayResponse{
		Type:    "results",
		Config:  cfgName,
		Policy:  policyName,
		Format:  out.Format.String(),
		Gzipped: out.Gzipped,
		Torn:    out.Torn,
		Records: out.Records,
		EndPS:   out.Window,
		Results: &out.Results,
	}
	if err != nil {
		// The status line is long gone once streaming started; the
		// terminal NDJSON line is the error channel.
		resp = replayResponse{Type: "error", Error: err.Error(), Records: out.Records}
	} else if out.RetentionErr != nil {
		resp.RetentionErr = out.RetentionErr.Error()
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(resp); err != nil {
		return
	}
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
}

// boolParam reads a query flag ("1", "true", "yes" enable).
func boolParam(v string) bool {
	switch strings.ToLower(v) {
	case "1", "true", "yes", "on":
		return true
	}
	return false
}

// runServe runs the replay service until SIGINT/SIGTERM, then drains
// in-flight replays gracefully.
func runServe(addr string, stdout io.Writer) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	srv := &http.Server{Handler: newServeMux()}
	fmt.Fprintf(stdout, "smartrefresh-sim: serving trace replay on http://%s/\n", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "smartrefresh-sim: shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), serveShutdownGrace)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		return fmt.Errorf("serve: shutdown: %w", err)
	}
	return nil
}
