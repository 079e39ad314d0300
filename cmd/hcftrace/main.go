// Command hcftrace runs a workload under any of the six engines with
// lifecycle tracing and reports where operations went: per-phase attempt
// outcomes with abort attribution (conflicting cache line + writer
// thread, lock holders), self vs helped completions with latency and
// time-in-phase breakdowns, combiner selection sizes, the hottest
// conflicting cache lines, and (optionally) a raw event timeline.
//
// Output formats:
//
//	-format text    human-readable summary + span stats (default)
//	-format json    machine-readable summary + span stats (also: -json)
//	-format chrome  Chrome trace-event JSON — load the file in Perfetto
//	                (ui.perfetto.dev) or chrome://tracing; threads are
//	                tracks, operations are slices with nested phase
//	                sub-slices, combining shows as flow arrows
//
// Usage:
//
//	hcftrace -scenario hashtable -threads 18
//	hcftrace -scenario pqueue -engine TLE+FC -threads 12 -timeline 60
//	hcftrace -scenario hashtable -format chrome -out trace.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"hcf/internal/harness"
	"hcf/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hcftrace:", err)
		os.Exit(1)
	}
}

// report is the -format json document: run identity and results alongside
// the aggregate trace summary and span statistics, field-compatible in
// style with hcfbench/hcfstat output.
type report struct {
	Scenario   string            `json:"scenario"`
	Engine     string            `json:"engine"`
	Threads    int               `json:"threads"`
	Horizon    int64             `json:"horizon"`
	Seed       uint64            `json:"seed"`
	Ops        uint64            `json:"ops"`
	Cycles     int64             `json:"cycles"`
	Throughput float64           `json:"throughput_ops_per_mcycle"`
	Summary    trace.SummaryData `json:"summary"`
	Spans      trace.SpanStats   `json:"spans"`
}

func run(args []string) error {
	fs := flag.NewFlagSet("hcftrace", flag.ContinueOnError)
	var (
		scenario = fs.String("scenario", "hashtable", "hashtable | avl | pqueue | stack | deque | sortedlist")
		engine   = fs.String("engine", "HCF", "Lock | TLE | FC | SCM | TLE+FC | HCF")
		threads  = fs.Int("threads", 18, "worker threads")
		find     = fs.Int("find", 40, "find percentage (hashtable, avl, sortedlist)")
		horizon  = fs.Int64("horizon", 100_000, "virtual cycles")
		seed     = fs.Uint64("seed", 1, "workload seed")
		limit    = fs.Int("limit", 0, "flight-recorder ring size per thread (0 = retain all events)")
		timeline = fs.Int("timeline", 0, "also print the first N raw events (text format)")
		format   = fs.String("format", "text", "text | json | chrome")
		jsonFlag = fs.Bool("json", false, "shorthand for -format json")
		out      = fs.String("out", "", "write output to this file instead of stdout")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *jsonFlag {
		*format = "json"
	}
	switch *format {
	case "text", "json", "chrome":
	default:
		return fmt.Errorf("unknown format %q (want text, json, or chrome)", *format)
	}
	var sc harness.Scenario
	switch *scenario {
	case "hashtable":
		sc = harness.HashTableScenario(*find, 4096)
	case "avl":
		sc = harness.AVLScenario(*find, 1024, 0.9, harness.AVLCombining)
	case "pqueue":
		sc = harness.PQScenario(50, 1<<20, 4096)
	case "stack":
		sc = harness.StackScenario(1024)
	case "deque":
		sc = harness.DequeScenario(2048, true)
	case "sortedlist":
		sc = harness.SortedListScenario(*find, 512)
	default:
		return fmt.Errorf("unknown scenario %q", *scenario)
	}

	cfg := harness.Config{Horizon: *horizon, Seed: *seed}
	pt, err := harness.RunPointWith(sc, *engine, *threads, cfg, harness.Probes{Trace: true, TraceLimit: *limit})
	if err != nil {
		return err
	}
	res, col := pt.Result, pt.Trace

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}

	switch *format {
	case "chrome":
		if err := trace.WriteChrome(w, col.Events(), *engine); err != nil {
			return err
		}
	case "json":
		doc := report{
			Scenario:   res.Scenario,
			Engine:     res.Engine,
			Threads:    res.Threads,
			Horizon:    *horizon,
			Seed:       *seed,
			Ops:        res.Ops,
			Cycles:     res.Cycles,
			Throughput: res.Throughput,
			Summary:    col.SummaryData(),
			Spans:      trace.ComputeSpanStats(trace.BuildSpans(col.Events())),
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			return err
		}
	default:
		fmt.Fprintf(w, "scenario %s, engine %s, %d threads, horizon %d cycles\n\n",
			sc.Name, *engine, *threads, *horizon)
		fmt.Fprint(w, col.Summary())
		fmt.Fprintf(w, "\n")
		fmt.Fprint(w, trace.FormatSpanStats(trace.ComputeSpanStats(trace.BuildSpans(col.Events()))))
		if *timeline > 0 {
			fmt.Fprintf(w, "\nfirst %d events:\n%s", *timeline, col.FormatTimeline(*timeline))
		}
	}
	if res.InvariantViolation != "" {
		return fmt.Errorf("invariant violation: %s", res.InvariantViolation)
	}
	return nil
}
