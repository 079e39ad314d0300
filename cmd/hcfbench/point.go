package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/signal"
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

// pointBuckets is the key range of the hash-table point scenarios, and
// so the most shards the sharded one can cut it into.
const pointBuckets = 16384

// pointProbes maps each -probe to the flags it reads besides the shared
// and scenario ones, the formats it writes, and what it attaches to the
// run.
var pointProbes = map[string]struct {
	flags, formats string
	attach         func(o *options) harness.Probes
}{
	"counters": {"", "text json", func(*options) harness.Probes { return harness.Probes{} }},
	"metrics": {"trace-limit serve", "text json csv prom", func(o *options) harness.Probes {
		return harness.Probes{Metrics: true, Trace: o.traceLimit > 0, TraceLimit: o.traceLimit}
	}},
	"trace": {"trace-limit timeline", "text json chrome", func(o *options) harness.Probes {
		return harness.Probes{Trace: true, TraceLimit: o.traceLimit}
	}},
}

// pointScenarios maps each -fig point:scenario to the flags it reads and
// how to build it. Elastic has no builder: RunPointElastic runs it
// through the open-loop driver, at the elastic figure's rate, with the
// rebalancer on.
var pointScenarios = map[string]struct {
	flags string
	build func(o *options) harness.Scenario
}{
	"hashtable": {"engines find", func(o *options) harness.Scenario { return harness.HashTableScenario(o.find, pointBuckets) }},
	"sharded": {"engines find shards cross hot", func(o *options) harness.Scenario {
		return harness.ShardedHashTableScenario(o.find, pointBuckets, o.shards, o.cross, o.hot)
	}},
	"elastic": {"find hot decisions", nil},
	"avl": {"engines find theta", func(o *options) harness.Scenario {
		return harness.AVLScenario(o.find, 1024, o.theta, harness.AVLCombining)
	}},
	"pqueue":     {"engines", func(*options) harness.Scenario { return harness.PQScenario(50, 1<<20, 4096) }},
	"stack":      {"engines", func(*options) harness.Scenario { return harness.StackScenario(1024) }},
	"deque":      {"engines", func(*options) harness.Scenario { return harness.DequeScenario(2048, true) }},
	"sortedlist": {"engines find", func(o *options) harness.Scenario { return harness.SortedListScenario(o.find, 512) }},
}

// pointScenario is the scenario -fig point[:scenario] names.
func (o *options) pointScenario() string {
	if _, name, _ := strings.Cut(o.fig, ":"); name != "" {
		return name
	}
	return "hashtable"
}

// pointFlags checks the probe, scenario and format a point run names and
// returns the flags the probe and scenario read.
func (o *options) pointFlags() (string, error) {
	p, ok := pointProbes[o.probe]
	if !ok {
		return "", fmt.Errorf("unknown probe %q (want counters, metrics or trace)", o.probe)
	}
	sc, ok := pointScenarios[o.pointScenario()]
	if !ok {
		return "", fmt.Errorf("unknown scenario %q", o.pointScenario())
	}
	if sc.build == nil && o.probe != "counters" {
		return "", fmt.Errorf("-fig point:%s runs only under -probe counters", o.pointScenario())
	}
	if !slices.Contains(strings.Fields(p.formats), o.format) {
		return "", fmt.Errorf("unknown format %q for -probe %s (want %s)", o.format, o.probe, p.formats)
	}
	return p.flags + " " + sc.flags, nil
}

// checkPointRanges rejects a point input outside what its scenario or
// probe accepts, before the scenario constructors' guards would panic.
func (o *options) checkPointRanges() error {
	for _, c := range []struct {
		flag, want string
		ok         bool
		got        any
	}{
		{"find", "in [0,100]", 0 <= o.find && o.find <= 100, o.find},
		{"hot", "in [0,100]", 0 <= o.hot && o.hot <= 100, o.hot},
		{"cross", "in [0,100]", 0 <= o.cross && o.cross <= 100, o.cross},
		{"shards", fmt.Sprintf("in [1,%d]", pointBuckets), 1 <= o.shards && o.shards <= pointBuckets, o.shards},
		{"theta", "in [0,1)", 0 <= o.theta && o.theta < 1, o.theta},
		{"trace-limit", "non-negative", o.traceLimit >= 0, o.traceLimit},
	} {
		if !c.ok {
			return fmt.Errorf("-%s must be %s, got %v", c.flag, c.want, c.got)
		}
	}
	return nil
}

// point is a finished run: the closed-loop point with whatever the probe
// collected, or for the elastic scenario the open-loop elastic point
// (whose invariant verdict is copied into the embedded Result).
type point struct {
	harness.Point
	elastic *harness.ElasticPoint
}

// runPoint is the -fig point pipeline: one (scenario, engine, threads)
// run reported through one probe, to -out instead of stdout when given,
// and with -serve kept on the /debug endpoints until interrupted.
func runPoint(o *options) error {
	threads, err := o.singleThreads(18)
	if err != nil {
		return err
	}
	if err := o.checkPointRanges(); err != nil {
		return err
	}
	engine := "HCF"
	if o.engines != "" {
		if strings.Contains(o.engines, ",") {
			return fmt.Errorf("-fig point takes exactly one engine, got %s", o.engines)
		}
		engine = o.engines
	}
	pt, err := o.measure(engine, threads)
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

func (o *options) measure(engine string, threads int) (pt point, err error) {
	cfg := harness.Config{Horizon: o.horizon, Seed: o.seed}
	if build := pointScenarios[o.pointScenario()].build; build != nil {
		pt.Point, err = harness.RunPointWith(build(o), engine, threads, cfg, pointProbes[o.probe].attach(o))
		return pt, err
	}
	// The elastic runner has its own longer default horizon: forward
	// -horizon only when it was set to a positive value, as -fig elastic
	// does. RunPointElastic rejects a horizon too short to cut into
	// windows before anything runs.
	if !o.set["horizon"] || cfg.Horizon <= 0 {
		cfg.Horizon = harness.ElasticDefaultHorizon
	}
	sc := harness.ElasticScenario(o.find, harness.ElasticBuckets,
		harness.ElasticMaxShards, harness.ElasticInitialShards, o.hot, cfg.Horizon)
	ep, err := harness.RunPointElastic(sc, "elastic", true, threads, cfg,
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

// printOut writes s to stdout through writeOut, so output that was not
// written in full fails the command.
func printOut(s string) error {
	return writeOut("", func(w io.Writer) error {
		_, err := io.WriteString(w, s)
		return err
	})
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
		return trace.WriteChrome(w, col.Events(), pt.Engine)
	case "json":
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(traceReport{
			Scenario: pt.Scenario, Engine: pt.Engine, Threads: pt.Threads,
			Horizon: pt.Horizon, Seed: o.seed,
			Ops: pt.Ops, Cycles: pt.Cycles, Throughput: pt.Throughput,
			Summary: col.SummaryData(), Spans: spans(),
		})
	}
	fmt.Fprintf(w, "scenario %s, engine %s, %d threads, horizon %d cycles\n\n",
		pt.Scenario, pt.Engine, pt.Threads, pt.Horizon)
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
	fmt.Fprintf(os.Stderr, "hcfbench: serving the report at http://%s/debug (ctrl-c to stop)\n", bound)
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
