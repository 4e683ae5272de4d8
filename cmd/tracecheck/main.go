// Command tracecheck validates a Chrome trace-event JSON file produced
// by the telemetry tracer (-trace / -trace-out on the simulation
// commands): the top-level shape, per-event field invariants, and —
// optionally — that specific event names are present. CI runs it over a
// fresh experiments trace so trace-schema drift fails the build.
//
// Examples:
//
//	tracecheck -in trace.json
//	tracecheck -in trace.json -require ACT,PRE,READ,WRITE,REF-RAS,REF-CBR,SELF-REF,IDLE-CLOSE
//	tracecheck -in trace.json -spans   # also require engine job spans, one per name
//
// The exit status is 1 when the file is malformed or a requirement is
// missing, 0 otherwise.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

type traceFile struct {
	TraceEvents []traceEvent      `json:"traceEvents"`
	DisplayUnit string            `json:"displayTimeUnit"`
	OtherData   map[string]string `json:"otherData"`
}

type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Pid  *int           `json:"pid"`
	Tid  *int           `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Args map[string]any `json:"args"`
}

func run(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("tracecheck", flag.ContinueOnError)
	fs.SetOutput(w)
	in := fs.String("in", "", "trace-event JSON file to validate")
	require := fs.String("require", "", "comma-separated event names that must be present")
	spans := fs.Bool("spans", false, "require at least one engine job span (cat=engine), and no two sharing a name")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *in == "" {
		fmt.Fprintln(w, "tracecheck: -in is required")
		return 2
	}

	data, err := os.ReadFile(*in)
	if err != nil {
		fmt.Fprintln(w, "tracecheck:", err)
		return 1
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		fmt.Fprintf(w, "tracecheck: %s is not valid trace JSON: %v\n", *in, err)
		return 1
	}

	problems := validate(tf)
	names := map[string]int{}
	engineSpans := 0
	spanNames := map[string]int{}
	for _, ev := range tf.TraceEvents {
		if ev.Ph != "M" {
			names[ev.Name]++
		}
		if ev.Cat == "engine" && ev.Ph == "X" {
			engineSpans++
			spanNames[ev.Name]++
		}
	}
	if *require != "" {
		for _, want := range strings.Split(*require, ",") {
			want = strings.TrimSpace(want)
			if names[want] == 0 {
				problems = append(problems, fmt.Sprintf("required event %q absent", want))
			}
		}
	}
	if *spans {
		if engineSpans == 0 {
			problems = append(problems, "no engine job spans (cat=engine, ph=X)")
		}
		// A span is named by its job's identity, which names one
		// simulation: two spans of one name are two jobs the identity
		// cannot tell apart.
		var shared []string
		for n, c := range spanNames {
			if c > 1 {
				shared = append(shared, fmt.Sprintf("%s (%d spans)", n, c))
			}
		}
		sort.Strings(shared)
		for _, n := range shared {
			problems = append(problems, "engine job spans share a name: "+n)
		}
	}

	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	fmt.Fprintf(w, "tracecheck: %d events, %d engine spans, dropped=%s\n",
		len(tf.TraceEvents), engineSpans, tf.OtherData["droppedEvents"])
	for _, n := range sorted {
		fmt.Fprintf(w, "  %-12s %d\n", n, names[n])
	}

	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(w, "tracecheck: INVALID:", p)
		}
		return 1
	}
	return 0
}

// validate checks the structural invariants every tracer output holds.
func validate(tf traceFile) []string {
	var problems []string
	if tf.DisplayUnit != "ns" {
		problems = append(problems, fmt.Sprintf("displayTimeUnit = %q, want \"ns\"", tf.DisplayUnit))
	}
	if len(tf.TraceEvents) == 0 {
		problems = append(problems, "no trace events")
	}
	for i, ev := range tf.TraceEvents {
		bad := func(format string, args ...any) {
			if len(problems) < 20 { // cap the noise on a badly broken file
				problems = append(problems, fmt.Sprintf("event %d (%s): %s", i, ev.Name, fmt.Sprintf(format, args...)))
			}
		}
		if ev.Name == "" {
			bad("empty name")
		}
		if ev.Pid == nil || ev.Tid == nil {
			bad("missing pid/tid")
			continue
		}
		switch ev.Ph {
		case "M":
			if ev.Name != "process_name" && ev.Name != "thread_name" {
				bad("unknown metadata event")
			}
		case "X":
			if ev.Ts < 0 || ev.Dur < 0 {
				bad("negative ts %v / dur %v", ev.Ts, ev.Dur)
			}
		case "i":
			if ev.Ts < 0 {
				bad("negative ts %v", ev.Ts)
			}
		default:
			bad("unknown phase %q", ev.Ph)
		}
	}
	return problems
}
