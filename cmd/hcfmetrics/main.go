// Command hcfmetrics runs one (scenario, engine, threads) configuration
// with the metrics subsystem enabled and prints the time-resolved picture
// the aggregate counters of hcfstat cannot show: a per-interval series of
// throughput, abort taxonomy and combining degree, plus latency percentile
// tables (p50/p90/p99/max) per operation class and completion path.
//
// Usage:
//
//	hcfmetrics -scenario hashtable -engine HCF -threads 18 -interval 10000
//	hcfmetrics -scenario avl -engine TLE -threads 36 -format json
//	hcfmetrics -scenario hashtable -engine HCF -format csv > run.csv
//	hcfmetrics -scenario hashtable -engine HCF -format prom
//	hcfmetrics -scenario sharded -shards 4 -engine HCF-S -threads 36
//
// Formats: text (default, human tables), json (one indented object), csv
// (two tables: intervals, then latencies), prom (Prometheus text
// exposition). Latencies and interval timestamps are virtual cycles.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"hcf/internal/harness"
	"hcf/internal/metrics"
	"hcf/internal/trace"
	"hcf/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hcfmetrics:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("hcfmetrics", flag.ContinueOnError)
	var (
		scenario = fs.String("scenario", "hashtable", "hashtable | sharded | avl | pqueue | stack | deque")
		engName  = fs.String("engine", "HCF", "Lock | TLE | FC | SCM | TLE+FC | HCF | HCF-S")
		threads  = fs.Int("threads", 18, "worker threads")
		find     = fs.Int("find", 40, "find percentage (hashtable, sharded, avl)")
		shards   = fs.Int("shards", 4, "shard count (sharded)")
		cross    = fs.Int("cross", 0, "cross-shard scan percentage (sharded)")
		hot      = fs.Int("hot", 0, "percentage of keys skewed onto shard 0 (sharded)")
		theta    = fs.Float64("theta", 0.9, "zipf skew (avl)")
		horizon  = fs.Int64("horizon", 200_000, "virtual cycles")
		seed     = fs.Uint64("seed", 1, "workload seed")
		interval = fs.Int64("interval", 10_000, "sampling interval (virtual cycles)")
		format   = fs.String("format", "text", "text | json | csv | prom")
		traceLim = fs.Int("trace-limit", 0, "attach a flight recorder retaining this many events per thread (0 = off); trace health lands in the report, hot lines on the -serve endpoints")
		serveAt  = fs.String("serve", "", "after the run, serve the report on host:port (/debug endpoints, including Prometheus via ?format=prom) until interrupted")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var sc harness.Scenario
	switch *scenario {
	case "hashtable":
		sc = harness.HashTableScenario(*find, 16384)
	case "sharded":
		sc = harness.ShardedHashTableScenario(*find, 16384, *shards, *cross, *hot)
	case "avl":
		sc = harness.AVLScenario(*find, 1024, *theta, harness.AVLCombining)
	case "pqueue":
		sc = harness.PQScenario(50, 1<<20, 4096)
	case "stack":
		sc = harness.StackScenario(1024)
	case "deque":
		sc = harness.DequeScenario(2048, true)
	default:
		return fmt.Errorf("unknown scenario %q", *scenario)
	}
	cfg := harness.Config{Horizon: *horizon, Seed: *seed}

	pt, err := harness.RunPointWith(sc, *engName, *threads, cfg, harness.Probes{
		Metrics:    true,
		Interval:   *interval,
		Trace:      *traceLim > 0,
		TraceLimit: *traceLim,
	})
	if err != nil {
		return err
	}
	if pt.InvariantViolation != "" {
		fmt.Fprintf(os.Stderr, "!! INVARIANT VIOLATION: %s\n", pt.InvariantViolation)
	}
	report := pt.Report

	switch *format {
	case "text":
		fmt.Print(report.Text())
	case "json":
		out, err := report.JSON()
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", out)
	case "csv":
		fmt.Print(report.CSV())
	case "prom":
		fmt.Print(report.Prometheus())
	default:
		return fmt.Errorf("unknown format %q (want text, json, csv or prom)", *format)
	}
	if *serveAt != "" {
		return serveReport(*serveAt, report, pt.Trace)
	}
	return nil
}

// serveReport exposes the finished report (and, when the run was traced,
// its hot lines and health) on the introspection endpoints and blocks
// until the process is interrupted — a scrape target for Prometheus
// (/debug/metrics?format=prom) or a browse target for curl/hcftop.
func serveReport(addr string, report *metrics.Report, col *trace.Collector) error {
	srv := serve.New()
	srv.SetMeta(report.Scenario, report.Engine, report.Threads)
	srv.SetReport(func() *metrics.Report { return report })
	srv.SetShards(func() []metrics.GroupCounters { return report.Totals.ByGroup })
	if report.SLO != nil {
		srv.SetSLO(func() *metrics.SLOSnapshot { return report.SLO })
	}
	if col != nil {
		srv.SetTraceHealth(func() *metrics.TraceHealth { return report.Trace })
		srv.PublishHotLines(col.HotLines(32))
	}
	bound, err := srv.Start(addr)
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Fprintf(os.Stderr, "hcfmetrics: serving the report at http://%s/debug (ctrl-c to stop)\n", bound)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	return nil
}
