// Command hcfstat runs one (scenario, engine, threads) configuration on the
// deterministic simulator and reports it through one probe (-probe):
//
//   - counters (default): throughput, HTM abort taxonomy, lock and
//     combining statistics, memory-system behaviour and, for HCF, the
//     per-class phase breakdown;
//   - metrics: a per-interval series of throughput, aborts and combining
//     degree, plus latency percentiles (p50/p90/p99/max) per operation
//     class and completion path, in virtual cycles;
//   - trace: lifecycle tracing — per-phase attempt outcomes with abort
//     attribution (conflicting cache line + writer thread, lock holders),
//     self vs helped completions, combiner selection sizes, the hottest
//     conflicting cache lines and optionally a raw event timeline.
//
// Usage:
//
//	hcfstat -scenario hashtable -find 40 -engine HCF -threads 18
//	hcfstat -scenario sharded -shards 4 -engine HCF-S -threads 36
//	hcfstat -scenario avl -find 0 -theta 0.9 -engine TLE -threads 36 -format json
//	hcfstat -scenario elastic -hot 90 -threads 36 -decisions 5
//	hcfstat -probe metrics -scenario hashtable -threads 18 -interval 10000
//	hcfstat -probe metrics -format csv -out run.csv
//	hcfstat -probe metrics -trace-limit 512 -serve localhost:8080
//	hcfstat -probe trace -scenario pqueue -engine TLE+FC -threads 12 -timeline 60
//	hcfstat -probe trace -format chrome -out trace.json
//
// Formats: text and json under every probe; csv (two tables: intervals,
// then latencies) and prom (Prometheus text exposition) under metrics;
// chrome under trace (Chrome trace-event JSON for ui.perfetto.dev or
// chrome://tracing). A flag that the probe or scenario does not read is
// an error, and so is a report that could not be written in full.
//
// The elastic scenario runs only under the counters probe: it always runs
// the HCF-E engine with its rebalancer attached and reports the final ring
// topology plus the tail of the rebalancer's decision journal.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime/pprof"
	"slices"
	"strings"
	"syscall"

	"hcf/internal/core"
	"hcf/internal/harness"
	"hcf/internal/htm"
	"hcf/internal/journal"
	"hcf/internal/metrics"
	"hcf/internal/trace"
	"hcf/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hcfstat:", err)
		os.Exit(1)
	}
}

type options struct {
	probe, scenario, engine, format, out, serve, cpuProf string
	threads, find, shards, cross, hot, decisions         int
	traceLimit, timeline                                 int
	theta                                                float64
	horizon, interval                                    int64
	seed                                                 uint64
	set                                                  []string // flags given, in lexicographic order
}

// sharedFlags are read by every probe and scenario.
const sharedFlags = "probe scenario threads horizon seed format out cpuprofile"

// probes maps each -probe to the flags it reads besides the shared and
// scenario ones, the formats it writes, and what it attaches to the run.
var probes = map[string]struct {
	flags, formats string
	attach         func(o *options) harness.Probes
}{
	"counters": {"", "text json", func(*options) harness.Probes { return harness.Probes{} }},
	"metrics": {"interval trace-limit serve", "text json csv prom", func(o *options) harness.Probes {
		return harness.Probes{Metrics: true, Interval: o.interval, Trace: o.traceLimit > 0, TraceLimit: o.traceLimit}
	}},
	"trace": {"trace-limit timeline", "text json chrome", func(o *options) harness.Probes {
		return harness.Probes{Trace: true, TraceLimit: o.traceLimit}
	}},
}

// scenarios maps each -scenario to the flags it reads and how to build it.
// Elastic has no builder: RunPointElastic runs it through the open-loop
// driver, at the elastic figure's rate, with the rebalancer on.
var scenarios = map[string]struct {
	flags string
	build func(o *options) harness.Scenario
}{
	"hashtable": {"engine find", func(o *options) harness.Scenario { return harness.HashTableScenario(o.find, 16384) }},
	"sharded": {"engine find shards cross hot", func(o *options) harness.Scenario {
		return harness.ShardedHashTableScenario(o.find, 16384, o.shards, o.cross, o.hot)
	}},
	"elastic": {"find hot decisions", nil},
	"avl": {"engine find theta", func(o *options) harness.Scenario {
		return harness.AVLScenario(o.find, 1024, o.theta, harness.AVLCombining)
	}},
	"pqueue":     {"engine", func(*options) harness.Scenario { return harness.PQScenario(50, 1<<20, 4096) }},
	"stack":      {"engine", func(*options) harness.Scenario { return harness.StackScenario(1024) }},
	"deque":      {"engine", func(*options) harness.Scenario { return harness.DequeScenario(2048, true) }},
	"sortedlist": {"engine find", func(o *options) harness.Scenario { return harness.SortedListScenario(o.find, 512) }},
}

func parse(args []string) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("hcfstat", flag.ContinueOnError)
	fs.StringVar(&o.probe, "probe", "counters", "counters | metrics | trace")
	fs.StringVar(&o.scenario, "scenario", "hashtable", "hashtable | sharded | elastic | avl | pqueue | stack | deque | sortedlist")
	fs.StringVar(&o.engine, "engine", "HCF", "Lock | TLE | FC | SCM | TLE+FC | HCF | HCF-S (not elastic, which always runs HCF-E)")
	fs.IntVar(&o.threads, "threads", 18, "worker threads")
	fs.IntVar(&o.find, "find", 40, "find percentage (hashtable, sharded, elastic, avl, sortedlist)")
	fs.IntVar(&o.shards, "shards", 4, "shard count (sharded)")
	fs.IntVar(&o.cross, "cross", 0, "cross-shard scan percentage (sharded)")
	fs.IntVar(&o.hot, "hot", 0, "percentage of keys skewed onto shard 0 (sharded); drifting hot-set percentage (elastic)")
	fs.IntVar(&o.decisions, "decisions", 8, "print the last N rebalancer decisions (elastic)")
	fs.Float64Var(&o.theta, "theta", 0.9, "zipf skew (avl)")
	fs.Int64Var(&o.horizon, "horizon", 200_000, "virtual cycles (elastic defaults to its own longer horizon)")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed")
	fs.Int64Var(&o.interval, "interval", 10_000, "sampling interval in virtual cycles (metrics)")
	fs.IntVar(&o.traceLimit, "trace-limit", 0, "flight-recorder ring size per thread; 0 retains every event under trace and attaches no recorder under metrics, where trace health lands in the report and hot lines on the -serve endpoints")
	fs.StringVar(&o.serve, "serve", "", "after the run, serve the report on host:port (/debug endpoints, including Prometheus via ?format=prom) until interrupted (metrics)")
	fs.IntVar(&o.timeline, "timeline", 0, "also print the first N raw events (trace, text format)")
	fs.StringVar(&o.format, "format", "text", "text | json (every probe) | csv | prom (metrics) | chrome (trace)")
	fs.StringVar(&o.out, "out", "", "write the report to this file instead of stdout")
	fs.StringVar(&o.cpuProf, "cpuprofile", "", "write a pprof CPU profile of the run to this file")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	fs.Visit(func(f *flag.Flag) { o.set = append(o.set, f.Name) })
	return o, o.check()
}

// check rejects an unknown probe, scenario or format and every explicitly
// set flag that the chosen probe and scenario do not read.
func (o *options) check() error {
	p, ok := probes[o.probe]
	if !ok {
		return fmt.Errorf("unknown probe %q (want counters, metrics or trace)", o.probe)
	}
	sc, ok := scenarios[o.scenario]
	if !ok {
		return fmt.Errorf("unknown scenario %q", o.scenario)
	}
	if sc.build == nil && o.probe != "counters" {
		return fmt.Errorf("-scenario %s runs only under -probe counters", o.scenario)
	}
	if !slices.Contains(strings.Fields(p.formats), o.format) {
		return fmt.Errorf("unknown format %q for -probe %s (want %s)", o.format, o.probe, p.formats)
	}
	allowed := strings.Fields(sharedFlags + " " + p.flags + " " + sc.flags)
	for _, name := range o.set {
		if !slices.Contains(allowed, name) {
			return fmt.Errorf("-%s does not apply to -probe %s -scenario %s", name, o.probe, o.scenario)
		}
	}
	if sc.build == nil {
		return nil
	}
	return harness.ValidateEngineNames([]string{o.engine})
}

// point is a finished run: the closed-loop point with whatever the probe
// collected, or for the elastic scenario the open-loop elastic point
// (whose invariant verdict is copied into the embedded Result).
type point struct {
	harness.Point
	elastic *harness.ElasticPoint
}

func run(args []string) error {
	o, err := parse(args)
	if err != nil {
		return err
	}
	pt, err := o.measure()
	if err != nil {
		return err
	}
	if err := writeOut(o.out, func(w io.Writer) error { return o.write(w, pt) }); err != nil {
		return err
	}
	if err := verdict(pt); err != nil {
		return err
	}
	if o.serve != "" {
		return serveReport(o.serve, pt.Report, pt.Trace)
	}
	return nil
}

// verdict turns a finished point into the command's error: a failed
// structural invariant check fails the command under every probe.
func verdict(pt point) error {
	if pt.InvariantViolation != "" {
		return fmt.Errorf("invariant violation: %s", pt.InvariantViolation)
	}
	return nil
}

// measure runs the point, under the CPU profiler when -cpuprofile is set.
func (o *options) measure() (pt point, err error) {
	if o.cpuProf != "" {
		f, err := os.Create(o.cpuProf)
		if err != nil {
			return pt, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return pt, err
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
	}
	cfg := harness.Config{Horizon: o.horizon, Seed: o.seed}
	build := scenarios[o.scenario].build
	if build != nil {
		pt.Point, err = harness.RunPointWith(build(o), o.engine, o.threads, cfg, probes[o.probe].attach(o))
		return pt, err
	}
	// The elastic runner has its own longer default horizon: forward
	// -horizon only when it was set to a positive value, as -fig elastic
	// does. RunPointElastic rejects a horizon too short to cut into
	// windows before anything runs.
	if !slices.Contains(o.set, "horizon") || cfg.Horizon <= 0 {
		cfg.Horizon = harness.ElasticDefaultHorizon
	}
	sc := harness.ElasticScenario(o.find, harness.ElasticBuckets,
		harness.ElasticMaxShards, harness.ElasticInitialShards, o.hot, cfg.Horizon)
	ep, err := harness.RunPointElastic(sc, "elastic", true, o.threads, cfg,
		harness.OpenLoopConfig{Rate: harness.ElasticDefaultRate})
	pt.elastic, pt.InvariantViolation = &ep, ep.InvariantViolation
	return pt, err
}

// writeOut sends the report to stdout or the -out file through one
// buffered writer and returns the first write, flush or close error, so a
// report that was not written in full fails the command.
func writeOut(path string, write func(io.Writer) error) error {
	f := os.Stdout
	if path != "" {
		var err error
		if f, err = os.Create(path); err != nil {
			return err
		}
	}
	w := bufio.NewWriter(f)
	err := write(w)
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if path != "" {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// write renders the point in the chosen probe's format. Plain writes go
// unchecked: the buffered writer keeps their first error for Flush.
func (o *options) write(w io.Writer, pt point) error {
	switch {
	case pt.elastic != nil && o.format == "json":
		out, err := json.MarshalIndent(pt.elastic, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\n", out)
	case pt.elastic != nil:
		writeElastic(w, pt.elastic, o.decisions)
	case o.probe == "counters" && o.format == "json":
		out, err := harness.FormatJSON(pt.Result)
		if err != nil {
			return err
		}
		io.WriteString(w, out)
	case o.probe == "counters":
		writeCounters(w, pt.Result)
	case o.probe == "metrics":
		return writeMetrics(w, pt.Report, o.format)
	default:
		return o.writeTrace(w, pt)
	}
	return nil
}

func writeCounters(w io.Writer, r harness.Result) {
	fmt.Fprintf(w, "scenario    %s\n", r.Scenario)
	fmt.Fprintf(w, "engine      %s\n", r.Engine)
	fmt.Fprintf(w, "threads     %d\n", r.Threads)
	fmt.Fprintf(w, "ops         %d in %d cycles\n", r.Ops, r.Cycles)
	fmt.Fprintf(w, "throughput  %.1f ops/Mcycle\n\n", r.Throughput)

	m := &r.Metrics
	fmt.Fprintf(w, "locks       L acquisitions: %d (%.4f/op), selection/aux: %d\n",
		m.LockAcquisitions, perOp(m.LockAcquisitions, r.Ops), m.AuxAcquisitions)
	fmt.Fprintf(w, "combining   %d ops in %d sessions (degree %.2f)\n",
		m.CombinedOps, m.CombinerSessions, m.CombiningDegree())

	h := &m.HTM
	fmt.Fprintf(w, "htm         started %d, committed %d (%.1f%%)\n",
		h.Started, h.Commits, pct(h.Commits, h.Started))
	fmt.Fprintf(w, "  aborts    total %d", h.TotalAborts())
	for reason := htm.ReasonConflict; reason < htm.NumReasons; reason++ {
		if h.Aborts[reason] > 0 {
			fmt.Fprintf(w, "  %s=%d", reason, h.Aborts[reason])
		}
	}
	fmt.Fprintln(w)

	fmt.Fprintf(w, "memory      loads %d, stores %d, L1 miss %.2f%% (coherence %d, cross-socket %d)\n\n",
		r.Mem.Loads, r.Mem.Stores, 100*r.Mem.MissRate(),
		r.Mem.CoherenceMisses, r.Mem.RemoteMisses)

	if r.PhaseByClass != nil {
		fmt.Fprintln(w, "phase completions by class:")
		for c, phases := range r.PhaseByClass {
			var total uint64
			for _, p := range phases {
				total += p
			}
			if total == 0 {
				continue
			}
			fmt.Fprintf(w, "  class %d:", c)
			for p := 0; p < core.NumPhases; p++ {
				fmt.Fprintf(w, "  %s=%.1f%%", core.Phase(p), pct(phases[p], total))
			}
			fmt.Fprintln(w)
		}
	}
	if r.InvariantViolation != "" {
		fmt.Fprintf(w, "!! INVARIANT VIOLATION: %s\n", r.InvariantViolation)
	}
}

// writeElastic reports the elastic point: the ring topology and the last
// lastN rebalancer decisions (all of them when lastN <= 0).
func writeElastic(w io.Writer, p *harness.ElasticPoint, lastN int) {
	fmt.Fprintf(w, "scenario    %s\n", p.Scenario)
	fmt.Fprintf(w, "engine      %s (rebalancer attached)\n", p.Engine)
	fmt.Fprintf(w, "threads     %d\n", p.Threads)
	fmt.Fprintf(w, "ops         %d of %d arrivals in %d cycles\n", p.Completed, p.Arrivals, p.Makespan)
	fmt.Fprintf(w, "throughput  %.1f ops/Mcycle (post-phase %.1f), sojourn p99 %d\n",
		p.Throughput, p.PostThroughput, p.Sojourn.P99)
	fmt.Fprintf(w, "windows     %d bad of %d; healed=%v\n\n", p.BadWindows, len(p.Windows), p.Healed)

	if t := p.Topology; t != nil {
		fmt.Fprintf(w, "topology    epoch=%d active=%d/%d slots=%d\n",
			t.Ring.Epoch, t.Ring.Active, t.Provisioned, t.Ring.Slots)
		fmt.Fprintf(w, "            splits=%d merges=%d moved_keys=%d reroutes=%d cross_ops=%d\n",
			t.Splits, t.Merges, t.MovedKeys, t.Reroutes, t.CrossOps)
		fmt.Fprintf(w, "            shard_ops=%v slot_counts=%v\n\n", t.ShardOps, t.Ring.Counts)
	}
	ds := p.Decisions
	if lastN > 0 {
		ds = journal.Tail(ds, lastN)
	}
	fmt.Fprintf(w, "rebalancer decisions (last %d of %d):\n", len(ds), len(p.Decisions))
	for _, d := range ds {
		fmt.Fprintf(w, "  w%03d t=%-8d %-5s %-13s", d.Window, d.Now, d.Action, d.Reason)
		if d.Action != "hold" {
			fmt.Fprintf(w, " %d→%d moved=%d", d.From, d.To, d.MovedKeys)
		}
		fmt.Fprintf(w, "  hottest=%.0f%% fair=%.0f%% ops=%d\n",
			100*d.HottestShare, 100*d.FairShare, d.TotalOps)
	}
	if p.InvariantViolation != "" {
		fmt.Fprintf(w, "!! INVARIANT VIOLATION: %s\n", p.InvariantViolation)
	}
}

func writeMetrics(w io.Writer, r *metrics.Report, format string) error {
	switch format {
	case "json":
		out, err := r.JSON()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\n", out)
	case "csv":
		io.WriteString(w, r.CSV())
	case "prom":
		io.WriteString(w, r.Prometheus())
	default:
		io.WriteString(w, r.Text())
	}
	return nil
}

// traceReport is the trace probe's json document: run identity and
// results alongside the aggregate trace summary and span statistics.
type traceReport struct {
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

func (o *options) writeTrace(w io.Writer, pt point) error {
	col := pt.Trace
	spans := func() trace.SpanStats { return trace.ComputeSpanStats(trace.BuildSpans(col.Events())) }
	switch o.format {
	case "chrome":
		return trace.WriteChrome(w, col.Events(), o.engine)
	case "json":
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(traceReport{
			Scenario: pt.Scenario, Engine: pt.Engine, Threads: pt.Threads,
			Horizon: o.horizon, Seed: o.seed,
			Ops: pt.Ops, Cycles: pt.Cycles, Throughput: pt.Throughput,
			Summary: col.SummaryData(), Spans: spans(),
		})
	}
	fmt.Fprintf(w, "scenario %s, engine %s, %d threads, horizon %d cycles\n\n",
		pt.Scenario, o.engine, o.threads, o.horizon)
	io.WriteString(w, col.Summary())
	fmt.Fprintf(w, "\n")
	io.WriteString(w, trace.FormatSpanStats(spans()))
	if o.timeline > 0 {
		fmt.Fprintf(w, "\nfirst %d events:\n%s", o.timeline, col.FormatTimeline(o.timeline))
	}
	return nil
}

// serveReport exposes the finished report (and, when the run was traced,
// its hot lines) on the introspection endpoints and blocks until the
// process is interrupted — a scrape target for Prometheus
// (/debug/metrics?format=prom) or a browse target for curl/hcftop.
func serveReport(addr string, report *metrics.Report, col *trace.Collector) error {
	srv := serve.New()
	srv.Attach(serve.Source{Report: func() *metrics.Report { return report }})
	if col != nil {
		srv.PublishHotLines(col.HotLines(32))
	}
	bound, err := srv.Start(addr)
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Fprintf(os.Stderr, "hcfstat: serving the report at http://%s/debug (ctrl-c to stop)\n", bound)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	return nil
}

func perOp(n, ops uint64) float64 {
	if ops == 0 {
		return 0
	}
	return float64(n) / float64(ops)
}

func pct(n, total uint64) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(total)
}
