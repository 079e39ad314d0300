// Package metrics exposes the HCF observability layer for users of the hcf
// module: lock-free per-thread latency histograms (log₂ buckets, p50/p90/
// p99/max) recorded per operation class × completion path, a time-series
// sampler producing per-interval throughput/abort/combining records, and
// exporters for JSON, CSV and the Prometheus text exposition format.
//
//	rec := metrics.MustNew(metrics.Config{
//		Shards:   threads + 1,
//		Classes:  []string{"find", "insert", "remove"},
//		Paths:    fw.CompletionPaths(),
//		TimeUnit: "cycles",
//	})
//	fw.SetRecorder(rec)
//	sampler := metrics.NewSampler(rec, 10_000)
//	env.Run(...)                    // thread 0: sampler.MaybeSample(th.Now())
//	sampler.Flush(end)
//	report := metrics.BuildReport(rec, sampler, "myrun", fw.Name(), threads)
//	out, _ := report.JSON()
//
// All engines in this module (the HCF framework and the five baselines)
// accept a recorder via SetRecorder; a nil recorder leaves only a nil
// check on the hot path. See `hcfbench -fig point -probe metrics` for a
// ready-made command and docs/OBSERVABILITY.md for the full guide.
package metrics

import "hcf/internal/metrics"

// Core types, re-exported from the internal implementation.
type (
	// Config dimensions a Recorder (shards, class/path/outcome labels).
	Config = metrics.Config
	// Recorder accumulates sharded histograms and counters.
	Recorder = metrics.Recorder
	// Histogram is a lock-free log₂-bucketed histogram.
	Histogram = metrics.Histogram
	// HistogramSnapshot is a mergeable, quantile-queryable copy.
	HistogramSnapshot = metrics.HistogramSnapshot
	// Counters is an aggregated counter snapshot.
	Counters = metrics.Counters
	// Sampler emits per-interval counter deltas.
	Sampler = metrics.Sampler
	// Interval is one time-series sample.
	Interval = metrics.Interval
	// Report is the machine-readable account of one instrumented run.
	Report = metrics.Report
	// HistStat summarizes one histogram (count/mean/p50/p90/p99/max).
	HistStat = metrics.HistStat
	// LatencyStat is a HistStat labelled by class and completion path.
	LatencyStat = metrics.LatencyStat
	// TxStat is a HistStat of transaction durations for one outcome.
	TxStat = metrics.TxStat
)

// Constructors and helpers.
var (
	// New builds a Recorder (errors on non-positive Shards).
	New = metrics.New
	// MustNew is New for statically correct configurations.
	MustNew = metrics.MustNew
	// NewSampler builds a sampler over a recorder.
	NewSampler = metrics.NewSampler
	// BuildReport assembles a Report from a recorder and sampler.
	BuildReport = metrics.BuildReport
)

// NumBuckets is the number of log₂ histogram buckets.
const NumBuckets = metrics.NumBuckets
